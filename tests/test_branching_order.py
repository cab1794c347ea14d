"""The VSIDS branching order is pinned: solve trajectories match digests.

``Solver`` keeps one live order-heap entry per variable, skips the heap
rebuild on most ``solve()`` calls and stops picking as soon as the trail
covers every variable.  None of that may move a single decision, so the
digests below were recorded before those changes and every trajectory —
per solve: status, cumulative conflict / decision / propagation counts
and the model, plus the learnt clauses at the end — must still hash to
them, on both backends.  The cases cover

* seeded random 3-CNFs at the phase transition;
* warm assumption-probe sequences on one solver, with clauses and fresh
  variables added between probes;
* one DIP attack loop (SARLock, so it needs many DIPs);
* a forced activity rescale mid-solve (``_var_inc`` near ``1e100``):
  the heap entries of every unassigned variable go stale, so branching
  falls back to the linear scan until the next backtrack or solve, and
  the next solve starts from a full rebuild.

The last test bounds the heap: stale entries never pile up past
``2 * num_vars + 64`` across hundreds of warm probes and rescales, and
dropping them leaves that trajectory pinned too.  On the Python backend
the rescale and heap-bound cases observe the search by wrapping
``_pick_branch_var`` and ``_backtrack``; the C search never calls those,
so on the native backend they read its counters instead
(``scan_picks``, ``heap_peak``).
"""

import hashlib
import random

import pytest

from factories import build_random_circuit, needs_native_core, random_3cnf
from repro.attacks import Oracle
from repro.attacks.dip import DipEngine
from repro.locking import lock_sarlock
from repro import nativelib
from repro.sat.solver import Solver

BACKENDS = [
    "python",
    pytest.param("native", marks=needs_native_core),
]


def _solver(backend):
    solver = Solver(native=backend == "native")
    # A silent fallback to the Python loops must not pass the native half.
    assert solver.backend == backend, nativelib.last_error()
    return solver


def _point(solver, status):
    model = (tuple(solver._model[:solver.num_vars + 1])
             if status is True else None)
    return (status, solver.conflicts, solver.decisions,
            solver.propagations, model)


def _learnts(solver):
    core = solver._native
    lits_of = core.clause_lits if core is not None else list
    return [list(lits_of(c)) for c in solver._learnts]


def _digest(trajectory):
    return hashlib.sha256(repr(trajectory).encode()).hexdigest()[:20]


def _random_3cnf_trajectory(backend):
    trajectory = []
    for seed in range(6):
        n = 60 + 8 * seed
        solver = _solver(backend)
        solver.add_cnf(random_3cnf(n, round(4.26 * n), seed=seed))
        trajectory.append(_point(solver, solver.solve()))
        trajectory.append(_learnts(solver))
    return trajectory


def _probe(rng, solver, n):
    picks = rng.sample(range(1, n + 1), rng.randint(2, 8))
    return [v if rng.random() < 0.5 else -v for v in picks]


def _warm_probe_trajectory(backend):
    rng = random.Random("warm-probes")
    n = 110
    solver = _solver(backend)
    solver.add_cnf(random_3cnf(n, round(3.9 * n), seed=11))
    trajectory = []
    for step in range(80):
        if step % 10 == 9:
            # Fresh variables (pushed at the next solve start) and a
            # few clauses tying them in.
            top = solver.num_vars + 3
            for _ in range(6):
                vs = rng.sample(range(1, top + 1), 3)
                solver.add_clause(
                    [v if rng.random() < 0.5 else -v for v in vs])
            n = top
        status = solver.solve(_probe(rng, solver, n), max_conflicts=400)
        trajectory.append(_point(solver, status))
    trajectory.append(_learnts(solver))
    return trajectory


class _Recording(Solver):
    """A solver that appends its trajectory point after every solve."""

    def __init__(self, native, trajectory):
        super().__init__(native=native)
        self._trajectory = trajectory

    def solve(self, *args, **kwargs):
        status = super().solve(*args, **kwargs)
        self._trajectory.append(_point(self, status))
        return status


def _dip_trajectory(backend):
    host = build_random_circuit(n_inputs=10, n_gates=70, n_outputs=4, seed=5)
    locked = lock_sarlock(host, 5, seed=3)
    oracle = Oracle(locked.original)
    trajectory = []
    engine = DipEngine(
        locked.circuit, locked.key_inputs,
        solver_factory=lambda: _Recording(backend == "native", trajectory),
    )
    assert engine.solver.backend == backend, nativelib.last_error()
    for _ in range(100):
        status, x = engine.find_dip()
        if status is not True:
            break
        engine.add_io_constraint(x, oracle.query(x))
    assert status is False
    key = engine.extract_key()
    trajectory.append(sorted(key.items()))
    trajectory.append(_learnts(engine.solver))
    return trajectory


def _valid_entries(solver):
    activity = solver._activity
    assign = solver._assign
    return sum(
        1 for neg_act, var in solver._order_heap
        if assign[var] == -1 and -neg_act == activity[var]
    )


def _rescale_trajectory(backend, scans=None):
    solver = _solver(backend)
    n = 150
    solver.add_cnf(random_3cnf(n, round(3.6 * n), seed=21))
    if scans is not None and solver._native is None:
        # Count the picks that meet no valid heap entry while a variable
        # is still unassigned: those run the linear-scan fallback.  The
        # C search counts them itself (read after the loop).
        pick = solver._pick_branch_var

        def counting_pick():
            assign = solver._assign
            if _valid_entries(solver) == 0 and any(
                assign[v] == -1 for v in range(1, solver.num_vars + 1)
            ):
                scans.append(1)
            return pick()

        solver._pick_branch_var = counting_pick
    rng = random.Random("rescale")
    trajectory = []
    for step in range(15):
        budget = 300
        if step % 3 == 0:
            solver._var_inc = 1e99  # a rescale within a few conflicts
        elif step % 3 == 1:
            # The first bump rescales and the solve stops right there,
            # so variables it never reached stay stale: the next solve
            # must start from the revived heap.
            solver._var_inc = 2e100
            budget = 1
        status = solver.solve(_probe(rng, solver, n), max_conflicts=budget)
        trajectory.append(_point(solver, status))
        trajectory.append(solver._var_inc < 1e90)
    trajectory.append(_learnts(solver))
    if scans is not None and solver._native is not None:
        scans.extend([1] * solver._native.scan_picks)
    return trajectory


#: Recorded with the per-``solve()`` heap rebuild and the full drain on a
#: complete assignment, before the one-live-entry heap replaced them.
PINNED = {
    "random_3cnf": "c673e441d6415310f161",
    "warm_probes": "f2748cce4daa4eff5484",
    "dip_attack": "47e92924fca251b6c1cc",
    "rescale": "5e8462631adc1dfdd6d8",
    "bounded_heap": "333d9dfd811bca4c8474",
}


@pytest.mark.parametrize("backend", BACKENDS)
def test_random_3cnf_order(backend):
    assert _digest(_random_3cnf_trajectory(backend)) == PINNED["random_3cnf"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_probe_order(backend):
    assert _digest(_warm_probe_trajectory(backend)) == PINNED["warm_probes"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_dip_attack_order(backend):
    assert _digest(_dip_trajectory(backend)) == PINNED["dip_attack"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_rescale_order(backend):
    scans = []
    trajectory = _rescale_trajectory(backend, scans)
    # The case must really rescale and really reach the fallback scan.
    assert trajectory.count(True) >= 8
    assert scans
    assert _digest(trajectory) == PINNED["rescale"]


def _bounded_trajectory(backend, peaks):
    """300 warm probes with a rescale every 50; ``peaks`` collects the
    heap size after every backtrack (the only place entries are pushed
    mid-solve)."""
    rng = random.Random("bounded-heap")
    n = 90
    solver = _solver(backend)
    solver.add_cnf(random_3cnf(n, round(4.1 * n), seed=33))
    core = solver._native
    if core is None:
        backtrack = solver._backtrack

        def measured_backtrack(level):
            backtrack(level)
            peaks.append(len(solver._order_heap))

        solver._backtrack = measured_backtrack
    trajectory = []
    for step in range(300):
        if step % 50 == 25:
            solver._var_inc = 1e99
        status = solver.solve(_probe(rng, solver, n), max_conflicts=200)
        trajectory.append(_point(solver, status))
        trajectory.append(solver._var_inc < 1e90)
        if core is not None:
            # The C search keeps the largest heap any backtrack left.
            peaks.append(core.heap_peak)
    return trajectory


@pytest.mark.parametrize("backend", BACKENDS)
def test_order_heap_stays_bounded(backend):
    peaks = []
    trajectory = _bounded_trajectory(backend, peaks)
    assert max(peaks) <= 2 * 90 + 64
    statuses = {point[0] for point in trajectory[::2]}
    assert {True, False} <= statuses
    assert trajectory.count(True) >= 2  # rescaled
    # Bounding the heap drops stale entries only: same branching order.
    assert _digest(trajectory) == PINNED["bounded_heap"]
