"""Budget semantics: the shared Deadline is the single time source.

Covers the ISSUE-3 acceptance bar: an expired budget returns immediately
at every layer (no grace slices), the CDCL solver honors ``time_limit``
even on conflict-free instances via the propagation-count probe, and the
attack entry points report ``timed_out``/``time_limit`` from the same
deadline they ran under.
"""

import pytest

from factories import build_random_circuit, random_3cnf
from repro.attacks import Oracle, ddip_attack, sat_attack, scope_attack
from repro.attacks.kratt import extract_unit, kratt_ol_attack, qbf_key_search
from repro.budget import Deadline
from repro.locking import TECHNIQUES, lock_sarlock, lock_ttlock, lock_xor
from repro.netlist import Circuit
from repro.qbf import solve_exists_forall_circuit
from repro import nativelib
from repro.sat.solver import Solver


class FakeClock:
    """Deterministic monotonic clock: advances ``step`` per reading."""

    def __init__(self, step=0.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t

    def advance(self, dt):
        self.t += dt


class TestDeadline:
    def test_unbounded_never_expires(self):
        d = Deadline.from_limit(None)
        assert not d.bounded
        assert d.remaining() is None
        assert not d.expired()
        assert not d.check()

    def test_zero_limit_is_born_expired(self):
        d = Deadline.from_limit(0)
        assert d.expired()
        assert d.remaining() == 0.0

    def test_negative_limit_clamps_to_expired(self):
        d = Deadline.from_limit(-5.0)
        assert d.limit == 0.0 and d.expired()

    def test_remaining_clamps_at_zero(self):
        clock = FakeClock()
        d = Deadline.from_limit(1.0, clock=clock)
        clock.advance(10.0)
        assert d.remaining() == 0.0 and d.expired()

    def test_of_coerces_and_passes_deadlines_through(self):
        d = Deadline.from_limit(5.0)
        assert Deadline.of(d) is d
        assert Deadline.of(None).bounded is False
        assert Deadline.of(2.0).limit == 2.0

    def test_elapsed_tracks_the_injected_clock(self):
        clock = FakeClock()
        d = Deadline.from_limit(10.0, clock=clock)
        clock.advance(3.0)
        assert d.elapsed() == pytest.approx(3.0)

    def test_check_amortizes_clock_reads(self):
        clock = FakeClock()
        d = Deadline.from_limit(1.0, clock=clock)
        clock.advance(10.0)  # already expired
        # The first 63 probes skip the clock entirely; the 64th sees it.
        assert [d.check(every_n=64) for _ in range(64)].count(True) == 1

    def test_sub_caps_child_by_parent(self):
        clock = FakeClock()
        parent = Deadline.from_limit(10.0, clock=clock)
        child = parent.sub(100.0)
        assert child.limit == pytest.approx(10.0)
        assert parent.sub(2.0).limit == pytest.approx(2.0)
        # sub(None) inherits the parent's expiry.
        inherited = parent.sub(None)
        clock.advance(11.0)
        assert inherited.expired()

    def test_sub_of_unbounded_parent(self):
        parent = Deadline.from_limit(None)
        assert parent.sub(None).bounded is False
        assert parent.sub(3.0).limit == 3.0


def _implication_chain(n):
    """A conflict-free instance: assuming var 1 implies vars 2..n."""
    solver = Solver()
    solver.ensure_vars(n)
    for i in range(1, n):
        solver.add_clause([-i, i + 1])
    return solver


class TestSolverBudget:
    def test_zero_budget_returns_none_with_zero_conflicts(self):
        solver = _implication_chain(50)
        assert solver.solve([1], time_limit=0) is None
        assert solver.conflicts == 0

    def test_propagation_probe_binds_on_conflict_free_instance(self):
        """The deadline fires mid-propagation — zero conflicts involved."""
        solver = _implication_chain(10_000)
        clock = FakeClock(step=0.2)
        deadline = Deadline.from_limit(0.55, clock=clock)
        assert solver.solve([1], time_limit=deadline) is None
        assert solver.conflicts == 0
        # The abort left the solver reusable: the same query now succeeds.
        assert solver.solve([1]) is True
        assert solver.model()[10_000] is True

    def test_deadline_object_accepted_like_float(self):
        solver = _implication_chain(20)
        assert solver.solve([1], time_limit=Deadline.from_limit(30.0)) is True
        assert solver.solve([1], time_limit=30.0) is True

    @pytest.mark.skipif(
        not nativelib.native_available(),
        reason=nativelib.last_error() or "native solver core unavailable",
    )
    def test_expiry_mid_search_keeps_native_on_python_trajectory(self):
        """A deadline that expires mid-search, conflicts deep: the C
        search gives up at the same conflict the Python loop does, and
        the solver it leaves behind solves on exactly as Python's does.

        The first injected clock reads the solver's conflict count, so it
        expires at the 128th conflict of the bounded solve whichever
        backend reads it and however often.  The later solves run on an
        injected clock that never expires: the C search pauses for it
        before every decision and every 64 conflicts (one pause lands on
        the restart at conflict 1,600) and must resume without a trace."""
        cnf = random_3cnf(150, 639, seed=2)
        points = []
        for native in (False, True):
            solver = Solver(native=native)
            assert solver.backend == ("native" if native else "python"), (
                nativelib.last_error())
            solver.add_cnf(cnf)
            assert solver.solve([3, -7], max_conflicts=40) is None
            deadline = Deadline.from_limit(
                128, clock=lambda: float(solver.conflicts))
            assert solver.solve([-2, 5], time_limit=deadline) is None
            assert solver.last_result.conflicts == 128
            never = Deadline.from_limit(1.0, clock=lambda: 0.0)
            trajectory = []
            for assumptions in ([-2, 5], [], [9]):
                status = solver.solve(assumptions, time_limit=never)
                model = solver.model() if status is True else None
                trajectory.append((status, solver.last_result.conflicts,
                                   solver.conflicts, solver.decisions,
                                   solver.propagations, model))
            lits_of = solver._native.clause_lits if native else list
            trajectory.append([list(lits_of(c)) for c in solver._learnts])
            points.append(trajectory)
        assert max(point[1] for point in points[0][:3]) > 1600
        assert points[0] == points[1]


def _or_unit():
    c = Circuit("unit")
    c.add_input("k")
    c.add_input("x")
    c.add_gate("out", "OR", ("k", "x"))
    c.add_output("out")
    return c.validate()


class TestQbfBudget:
    def test_expired_budget_returns_immediately(self):
        result = solve_exists_forall_circuit(
            _or_unit(), ["k"], ["x"], "out", 1, time_limit=0
        )
        assert result.status is None and result.witness is None
        assert result.iterations == 0

    def test_unbounded_solve_still_finds_witness(self):
        result = solve_exists_forall_circuit(
            _or_unit(), ["k"], ["x"], "out", 1, time_limit=None
        )
        assert result.status is True
        assert result.witness == {"k": True}

    def test_no_grace_slice_after_expiry(self):
        """A deadline spent mid-flight stops the CEGAR loop at once."""
        clock = FakeClock()
        deadline = Deadline.from_limit(1.0, clock=clock)
        clock.advance(5.0)
        result = solve_exists_forall_circuit(
            _or_unit(), ["k"], ["x"], "out", 1, time_limit=deadline
        )
        assert result.status is None


@pytest.fixture(scope="module")
def host():
    return build_random_circuit(n_inputs=8, n_gates=50, n_outputs=4, seed=31)


class TestAttackBudgets:
    def test_sat_attack_zero_budget_times_out_without_queries(self, host):
        locked = lock_xor(host, 4, seed=1)
        oracle = Oracle(locked.original)
        result = sat_attack(locked.circuit, locked.key_inputs, oracle,
                            time_limit=0)
        assert result.timed_out and not result.success
        assert result.time_limit == 0.0
        assert result.oracle_queries == 0

    def test_ddip_accepts_shared_deadline(self, host):
        locked = lock_sarlock(host, 8, seed=2)
        oracle = Oracle(locked.original)
        deadline = Deadline.from_limit(0.2)
        result = ddip_attack(locked.circuit, locked.key_inputs, oracle,
                             time_limit=deadline)
        assert result.timed_out
        assert result.time_limit == pytest.approx(0.2)

    def test_scope_zero_budget_leaves_keys_undeciphered(self, host):
        locked = lock_xor(host, 4, seed=3)
        result = scope_attack(locked.circuit, locked.key_inputs, time_limit=0)
        assert result.timed_out
        assert all(v is None for v in result.guesses.values())
        assert set(result.guesses) == set(locked.key_inputs)

    def test_kratt_ol_overall_limit_reaches_result_accounting(self, host):
        locked = lock_ttlock(host, 8, seed=2)
        result = kratt_ol_attack(
            locked.circuit, locked.key_inputs, qbf_time_limit=2,
            time_limit=60.0,
        )
        assert result.time_limit == pytest.approx(60.0)
        assert result.timed_out is False

    def test_kratt_ol_zero_budget_reports_timeout(self, host):
        locked = lock_ttlock(host, 8, seed=2)
        result = kratt_ol_attack(
            locked.circuit, locked.key_inputs, qbf_time_limit=2,
            time_limit=0,
        )
        assert result.timed_out is True
        assert result.time_limit == 0.0

    @pytest.mark.parametrize("technique,stage,method", [
        ("ttlock", "modified_dflt_subcircuit", "subcircuit-scope"),
        ("genantisat", "modified_locking_unit", "modified-unit-scope"),
    ])
    def test_kratt_ol_scope_limit_cannot_extend_overall_budget(
            self, host, monkeypatch, technique, stage, method):
        """A caller's SCOPE limit caps the SCOPE stage inside the overall
        deadline; it never replaces it."""
        from repro.attacks.kratt import flow

        clock = FakeClock()
        build = getattr(flow, stage)

        def slow_build(*args, **kwargs):
            clock.advance(10.0)  # the overall budget ends before SCOPE
            return build(*args, **kwargs)

        monkeypatch.setattr(flow, stage, slow_build)
        locked = TECHNIQUES[technique](host, 8, seed=2)
        result = kratt_ol_attack(
            locked.circuit, locked.key_inputs, qbf_time_limit=2,
            scope_kwargs={"time_limit": 60.0},
            time_limit=Deadline.from_limit(5.0, clock=clock),
        )
        assert result.details["method"] == method
        assert result.timed_out is True
        assert all(v is None for v in result.key.values())

    @pytest.mark.parametrize("technique,method", [
        ("ttlock", "subcircuit-scope"),
        ("genantisat", "modified-unit-scope"),
    ])
    def test_kratt_ol_scope_limit_caps_scope_stage(self, host, technique,
                                                   method):
        locked = TECHNIQUES[technique](host, 8, seed=2)
        result = kratt_ol_attack(
            locked.circuit, locked.key_inputs, qbf_time_limit=2,
            scope_kwargs={"time_limit": 0},
            time_limit=60.0,
        )
        assert result.details["method"] == method
        assert result.details["scope_timed_out"] is True
        assert all(v is None for v in result.key.values())

    def test_qbf_cap_starts_after_removal(self, host, monkeypatch):
        """A slow removal is charged to the overall budget, not to the QBF
        stage cap: the QBF step still receives its full cap."""
        from repro.attacks.kratt import flow

        clock = FakeClock()
        seen = []

        def slow_removal(*args, **kwargs):
            clock.advance(0.6)
            return extract_unit(*args, **kwargs)

        def spy_qbf(extraction, time_limit):
            seen.append(time_limit.remaining())
            return qbf_key_search(extraction, time_limit=time_limit)

        monkeypatch.setattr(flow, "extract_unit", slow_removal)
        monkeypatch.setattr(flow, "qbf_key_search", spy_qbf)
        locked = lock_sarlock(host, 8, seed=2)
        result = kratt_ol_attack(
            locked.circuit, locked.key_inputs, qbf_time_limit=1.0,
            time_limit=Deadline.from_limit(100.0, clock=clock),
        )
        assert seen == [pytest.approx(1.0)]
        assert result.details["method"] == "qbf"
