"""Bulk clause intake vs per-clause ``add_clause``, on both backends.

``Solver.add_clauses`` takes a flat ``[size, lit, ...]*`` buffer: the
Python backend loops over the reference ``add_clause``, the native one
hands the buffer to ``repro_sat_add_clauses`` in one call.  Either way
the solver must end up in exactly the state one ``add_clause`` per
clause leaves — every clause's literals in arena order, the trail, the
variable count, the propagation count and the UNSAT latch — and every
later solve must follow the same trajectory.  The streams mix duplicate
literals, tautologies, literals already true or false at level 0, units
that propagate, empty clauses and a clause wider than any fixed buffer,
with solves interleaved.
"""

import random

import pytest

from repro import nativelib
from repro.sat.solver import Solver

needs_native_core = pytest.mark.skipif(
    not nativelib.native_available(),
    reason=nativelib.last_error() or "native solver core unavailable",
)


def _flat(clauses):
    flat = []
    for clause in clauses:
        flat.append(len(clause))
        flat.extend(clause)
    return flat


def _solver(backend):
    solver = Solver(native=backend == "native")
    # A silent fallback to the Python loops must not pass the native half.
    assert solver.backend == backend, nativelib.last_error()
    return solver


def _watches(solver):
    """Python-mode watch lists as (blocker, clause index) pairs; the
    native watch arrays are C-owned and show through the trajectories."""
    if solver._native is not None:
        return None
    index = {id(c): i for i, c in enumerate(solver._clauses + solver._learnts)}
    return [
        [(blocker, index[id(clause)]) for blocker, clause in wl]
        for wl in solver._watches
    ]


def _state(solver):
    core = solver._native
    lits_of = core.clause_lits if core is not None else list
    return (
        [list(lits_of(c)) for c in solver._clauses],
        [list(lits_of(c)) for c in solver._learnts],
        [solver._trail[i] for i in range(len(solver._trail))],
        solver.num_vars,
        solver.propagations,
        solver._ok,
        _watches(solver),
    )


def _stream(seed):
    """A seeded op list: clause batches and solve calls."""
    rng = random.Random(("clause-intake", seed).__str__())
    n = rng.randint(10, 40)

    def lit(top=n):
        return rng.choice((1, -1)) * rng.randint(1, top)

    ops = []
    for _ in range(rng.randint(4, 10)):
        if rng.random() < 0.3:
            picks = rng.sample(range(1, n + 1), rng.randint(0, 3))
            ops.append(("solve", [rng.choice((v, -v)) for v in picks]))
            continue
        batch = []
        for _ in range(rng.randint(1, 30)):
            roll = rng.random()
            if roll < 0.08:
                clause = [lit()]  # unit: propagates at level 0
            elif roll < 0.16:
                v = rng.randint(1, n)
                clause = [lit(), v, lit(), -v]  # tautology
            else:
                clause = [lit() for _ in range(rng.randint(2, 5))]
                if rng.random() < 0.3:
                    clause.insert(rng.randrange(len(clause) + 1),
                                  rng.choice(clause))  # duplicate literal
            batch.append(clause)
        ops.append(("batch", batch))
    if seed % 3 == 0:
        # Wider than any fixed buffer; grows the variable table too.
        wide = [lit(n + 5000) for _ in range(20_000)]
        ops.insert(rng.randrange(len(ops) + 1), ("batch", [wide, [lit()]]))
    if seed % 5 == 1:
        batch = [[lit(), lit()], [], [n + 100, n + 101]]
        ops.insert(rng.randrange(len(ops) + 1), ("batch", batch))
    return ops


def _run(ops, backend, bulk):
    solver = _solver(backend)
    trace = []
    for kind, payload in ops:
        if kind == "batch":
            if bulk:
                ok = solver.add_clauses(_flat(payload))
            else:
                ok = True
                for clause in payload:
                    if not solver.add_clause(clause):
                        ok = False
                        break
            trace.append(("batch", ok, _state(solver)))
        else:
            status = solver.solve(payload, max_conflicts=20_000)
            model = (
                [solver.model_value(v) for v in range(1, solver.num_vars + 1)]
                if status is True else None
            )
            trace.append((
                "solve", status, solver.conflicts, solver.decisions, model,
                _state(solver),
            ))
    return trace


def _without_watches(trace):
    return [entry[:-1] + (entry[-1][:-1],) for entry in trace]


@pytest.mark.parametrize("seed", range(40))
def test_bulk_matches_per_clause_python(seed):
    ops = _stream(seed)
    assert _run(ops, "python", bulk=True) == _run(ops, "python", bulk=False)


@needs_native_core
@pytest.mark.parametrize("seed", range(40))
def test_bulk_matches_per_clause_native(seed):
    ops = _stream(seed)
    reference = _without_watches(_run(ops, "python", bulk=False))
    assert _without_watches(_run(ops, "native", bulk=True)) == reference
    assert _without_watches(_run(ops, "native", bulk=False)) == reference


def test_streams_cover_the_edge_cases():
    ops = [op for seed in range(40) for op in _stream(seed)]
    clauses = [c for kind, batch in ops if kind == "batch" for c in batch]
    assert any(len(c) == 0 for c in clauses)
    assert any(len(c) == 1 for c in clauses)
    assert any(len(c) >= 20_000 for c in clauses)
    assert any(len(set(c)) < len(c) for c in clauses)
    assert any(set(c) & {-x for x in c} for c in clauses)
    assert any(kind == "solve" for kind, _ in ops)
    # Some batch makes the formula UNSAT, so intake stops mid-buffer.
    assert any(
        entry[0] == "batch" and not entry[1]
        for seed in range(40)
        for entry in _run(_stream(seed), "python", bulk=True)
    )


def _backends():
    return [
        "python",
        pytest.param("native", marks=needs_native_core),
    ]


@pytest.mark.parametrize("backend", _backends())
class TestIntakeGuards:
    def test_zero_literal_raises_after_earlier_clauses(self, backend):
        bulk, single = _solver(backend), _solver(backend)
        with pytest.raises(ValueError):
            bulk.add_clauses([2, 1, 2, 3, 5, 0, 7])
        single.add_clause([1, 2])
        with pytest.raises(ValueError):
            single.add_clause([5, 0, 7])
        assert _state(bulk) == _state(single)
        assert bulk.num_vars == 5

    def test_unit_above_level_zero_raises(self, backend):
        bulk, single = _solver(backend), _solver(backend)
        for solver in (bulk, single):
            solver.add_clause([-1])
            solver._new_decision_level()
        # Above level 0 nothing is simplified: -1 stays in the clause.
        bulk_clauses = [2, 1, 2, 1, 3]
        with pytest.raises(RuntimeError):
            bulk.add_clauses(bulk_clauses)
        single.add_clause([1, 2])
        with pytest.raises(RuntimeError):
            single.add_clause([3])
        assert _state(bulk) == _state(single)
        assert [len(c) for c in _state(bulk)[0]] == [2]

    def test_empty_clause_stops_intake(self, backend):
        solver = _solver(backend)
        assert solver.add_clauses([2, 1, 2, 0, 2, 50, 51]) is False
        assert solver.num_vars == 2
        assert solver.add_clauses([]) is False
        assert solver.solve() is False

    def test_overrunning_size_word_raises(self, backend):
        solver = _solver(backend)
        with pytest.raises(ValueError):
            solver.add_clauses([2, 1, 2, 3, 4])
        assert solver.num_vars == 2
