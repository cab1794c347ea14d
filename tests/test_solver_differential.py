"""Solver fuzzing: the CDCL rewrite vs the seed solver, on random 3-CNF.

``benchmarks/legacy_solver.py`` is the pre-overhaul CDCL kept as a
baseline; both solvers are complete, so on every instance they must
agree on SAT/UNSAT, and every claimed model must actually satisfy the
formula.  Instances straddle the random-3-SAT phase transition
(clause/variable ratio ~4.27) where both branches of the search get
exercised.

The native (C) propagation core is held to a stronger standard at the
bottom of this module: full trajectory bit-identity against the Python
loop (propagations, conflicts, decisions, learnt counts, models) on
seeded 3-CNFs, warm assumption-probe sequences, attack-generated miter
CNFs, and across fork/spawn child processes.
"""

import importlib.util
import pathlib
import random

import pytest

from factories import random_3cnf
from repro.sat.solver import solve_cnf

_LEGACY_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "legacy_solver.py"
)


def _load_legacy():
    spec = importlib.util.spec_from_file_location("legacy_solver", _LEGACY_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


legacy = _load_legacy()


def _satisfies(cnf, model):
    for clause in cnf.clauses:
        if any(
            model.get(abs(lit), False) == (lit > 0) for lit in clause
        ):
            continue
        return False
    return True


def _instance(seed):
    rng = random.Random(("fuzz-shape", seed).__str__())
    n_vars = rng.randint(6, 24)
    ratio = rng.uniform(3.0, 5.5)
    n_clauses = max(4, int(n_vars * ratio))
    return random_3cnf(n_vars, n_clauses, seed=seed)


@pytest.mark.parametrize("seed", range(50))
def test_solvers_agree_on_random_3cnf(seed):
    cnf = _instance(seed)
    status_new, model_new = solve_cnf(cnf, max_conflicts=200_000)
    status_old, model_old = legacy.solve_cnf(cnf, max_conflicts=200_000)
    assert status_new is not None, "rewrite exhausted its conflict budget"
    assert status_old is not None, "legacy exhausted its conflict budget"
    assert status_new == status_old, (
        f"seed {seed}: rewrite={status_new} legacy={status_old}"
    )
    if status_new:
        assert _satisfies(cnf, model_new), f"seed {seed}: rewrite model invalid"
        assert _satisfies(cnf, model_old), f"seed {seed}: legacy model invalid"


@pytest.mark.parametrize("seed", range(8))
def test_agreement_under_assumptions(seed):
    """Pinning literals via assumptions must not break the agreement."""
    cnf = _instance(seed)
    rng = random.Random(("fuzz-assume", seed).__str__())
    variables = rng.sample(range(1, cnf.num_vars + 1), min(3, cnf.num_vars))
    assumptions = [v if rng.random() < 0.5 else -v for v in variables]
    status_new, model_new = solve_cnf(
        cnf, assumptions=assumptions, max_conflicts=200_000
    )
    status_old, _ = legacy.solve_cnf(
        cnf, assumptions=assumptions, max_conflicts=200_000
    )
    assert status_new is not None and status_old is not None
    assert status_new == status_old
    if status_new:
        assert _satisfies(cnf, model_new)
        for lit in assumptions:
            assert model_new.get(abs(lit), False) == (lit > 0)


def test_unsat_core_shape_trivial_contradiction():
    """Both solvers refuse x AND NOT x immediately."""
    from repro.sat.cnf import CNF

    cnf = CNF()
    v = cnf.new_var("x")
    cnf.add_clause([v])
    cnf.add_clause([-v])
    assert solve_cnf(cnf)[0] is False
    assert legacy.solve_cnf(cnf)[0] is False


# ----------------------------------------------------------------------
# Warm learned-clause reuse vs a fresh solver, on the miter CNFs the
# incremental attack loop actually generates (ISSUE-7 regression).
# ----------------------------------------------------------------------

from factories import build_locked_circuit  # noqa: E402
from repro.attacks import DipEngine, Oracle  # noqa: E402
from repro.sat.solver import Solver  # noqa: E402


class _RecordingSolver(Solver):
    """Records the exact (clause, solve) operation sequence it serves."""

    def __init__(self):
        super().__init__()
        self.events = []

    def add_clause(self, literals):
        self.events.append(("clause", tuple(literals)))
        return super().add_clause(literals)

    def add_clauses(self, flat):
        # The bulk intake the circuit encoders use: record each clause.
        pos = 0
        while pos < len(flat):
            end = pos + 1 + flat[pos]
            self.events.append(("clause", tuple(flat[pos + 1:end])))
            pos = end
        return super().add_clauses(flat)

    def solve(self, assumptions=(), max_conflicts=None, time_limit=None):
        status = super().solve(
            assumptions, max_conflicts=max_conflicts, time_limit=time_limit
        )
        self.events.append(("solve", tuple(assumptions), status))
        return status


def _attack_event_log(technique, seed, key_width=4):
    """Drive the incremental DIP loop to completion, recording every
    clause addition and every assumption probe the warm solver served."""
    locked = build_locked_circuit(
        technique, seed=seed, n_inputs=5, n_gates=14, key_width=key_width
    )
    engine = DipEngine(
        locked.circuit, locked.key_inputs, solver_factory=_RecordingSolver
    )
    oracle = Oracle(locked.original)
    while True:
        status, x = engine.find_dip(canonical=True)
        if status is not True:
            break
        engine.add_io_constraint(x, oracle.query(x))
    engine.extract_key(canonical=True)
    return engine.solver.events


@pytest.mark.parametrize("technique", ["sarlock", "ttlock", "antisat"])
@pytest.mark.parametrize("seed", range(3))
def test_warm_assumption_probes_agree_with_fresh_solver(technique, seed):
    """Every probe the warm solver answered (learned clauses, branching
    heat, saved phases from all earlier probes intact) is re-asked to a
    brand-new cold solver holding only the problem clauses added so far
    — the statuses must match probe for probe."""
    events = _attack_event_log(technique, seed)
    assert sum(e[0] == "solve" for e in events) >= 3, (
        "attack produced too few probes to be a test"
    )
    clauses_so_far = []
    for event in events:
        if event[0] == "clause":
            clauses_so_far.append(list(event[1]))
            continue
        _, assumptions, warm_status = event
        cold = Solver()
        for clause in clauses_so_far:
            cold.add_clause(clause)
        cold_status = cold.solve(list(assumptions))
        assert cold_status == warm_status, (
            f"warm/fresh divergence on {technique} seed {seed}: "
            f"assumptions={assumptions} warm={warm_status} cold={cold_status}"
        )


@pytest.mark.parametrize("seed", range(2))
def test_warm_reuse_agrees_with_legacy_solver_on_attack_cnfs(seed):
    """The same attack-generated probes, answered per-probe by a cold
    *seed-revision* solver: cross-implementation status agreement on the
    miter CNFs the attack actually generates."""
    events = _attack_event_log("sarlock", seed)
    clauses_so_far = []
    for event in events:
        if event[0] == "clause":
            clauses_so_far.append(list(event[1]))
            continue
        _, assumptions, warm_status = event
        cold = legacy.Solver()
        for clause in clauses_so_far:
            cold.add_clause(clause)
        assert cold.solve(list(assumptions)) == warm_status


# ----------------------------------------------------------------------
# Native (C) propagation core vs the Python loop: *bit-identity*, not
# mere status agreement — the C loop mirrors the Python visit order, so
# the full trajectory (propagations, conflicts, decisions, learnt
# clauses, models) must match event for event (ISSUE-10).
# ----------------------------------------------------------------------

import multiprocessing  # noqa: E402

from repro import nativelib  # noqa: E402

needs_native_core = pytest.mark.skipif(
    not nativelib.native_available(),
    reason=nativelib.last_error() or "native solver core unavailable",
)


def _trace(native, clauses, probes=((), )):
    """Full observable trajectory of one warm solver across ``probes``."""
    solver = Solver(native=native)
    trace = []
    ok = True
    for clause in clauses:
        if not solver.add_clause(clause):
            ok = False
            break
    for assumptions in probes if ok else ():
        status = solver.solve(assumptions, max_conflicts=500_000)
        model = sorted(solver.model().items()) if status is True else None
        trace.append(
            (status, solver.propagations, solver.conflicts,
             solver.decisions, len(solver._learnts), model)
        )
    return ok, trace


@needs_native_core
class TestNativeVsPython:
    @pytest.mark.parametrize("seed", range(30))
    def test_trajectories_identical_on_random_3cnf(self, seed):
        cnf = _instance(seed)
        clauses = [list(c) for c in cnf.clauses]
        assert _trace(False, clauses) == _trace(True, clauses), (
            f"seed {seed}: native trajectory diverged from Python"
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_trajectories_identical_under_assumption_probes(self, seed):
        """One warm solver, a dozen assumption probes: phase saving,
        clause activities, and the learnt arena all persist across
        probes, so any drift compounds — and must not exist."""
        rng = random.Random(("native-probes", seed).__str__())
        cnf = random_3cnf(40, 170, seed=seed)
        clauses = [list(c) for c in cnf.clauses]
        probes = [
            tuple(
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, 41), 2)
            )
            for _ in range(12)
        ]
        assert _trace(False, clauses, probes) == _trace(True, clauses, probes)

    @pytest.mark.parametrize("technique", ["sarlock", "antisat"])
    @pytest.mark.parametrize("seed", range(2))
    def test_trajectories_identical_on_attack_miters(self, technique, seed):
        """Replay the exact clause/probe sequence the incremental DIP
        loop generated against both backends."""
        events = _attack_event_log(technique, seed)
        python = Solver(native=False)
        native = Solver(native=True)
        assert native.backend == "native", nativelib.last_error()
        for event in events:
            if event[0] == "clause":
                clause = list(event[1])
                assert python.add_clause(clause) == native.add_clause(clause)
                continue
            _, assumptions, _ = event
            assert python.solve(assumptions) == native.solve(assumptions)
            assert (
                python.propagations, python.conflicts, python.decisions
            ) == (
                native.propagations, native.conflicts, native.decisions
            )
            if python.last_result.status is True:
                assert python.model() == native.model()


def _child_trace(args):
    seed, start_method = args
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from factories import random_3cnf as make_cnf

    from repro import nativelib as nat
    from repro.sat.solver import Solver as S

    if not nat.native_available():
        return ("unavailable", nat.last_error())
    cnf = make_cnf(30, 128, seed=seed)
    solver = S(native=True)
    if solver.backend != "native":
        return ("fallback", nat.last_error())
    for clause in cnf.clauses:
        solver.add_clause(list(clause))
    status = solver.solve(max_conflicts=500_000)
    model = sorted(solver.model().items()) if status is True else None
    return ("ok", (status, solver.propagations, solver.conflicts,
                   solver.decisions, model))


@needs_native_core
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_native_trace_identical_across_process_start_methods(start_method):
    """A fork child inherits the parent's dlopened core and a spawn
    child re-loads it from the content-addressed cache; both must
    reproduce the parent's pure-Python trajectory exactly."""
    seed = 11
    cnf = random_3cnf(30, 128, seed=seed)
    reference = Solver(native=False)
    for clause in cnf.clauses:
        reference.add_clause(list(clause))
    status = reference.solve(max_conflicts=500_000)
    expected = (
        status, reference.propagations, reference.conflicts,
        reference.decisions,
        sorted(reference.model().items()) if status is True else None,
    )
    ctx = multiprocessing.get_context(start_method)
    with ctx.Pool(1) as pool:
        kind, payload = pool.map(_child_trace, [(seed, start_method)])[0]
    assert kind == "ok", payload
    assert payload == expected
