"""Tests for the CDCL SAT solver, including brute-force cross-checks."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import CNF, Solver, luby, solve_cnf


def brute_force(n, clauses, forced=()):
    for bits in itertools.product([False, True], repeat=n):
        if any((lit > 0) != bits[abs(lit) - 1] for lit in forced):
            continue
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in cl) for cl in clauses):
            return True
    return False


clause_strategy = st.lists(
    st.lists(
        st.integers(1, 8).flatmap(lambda v: st.sampled_from([v, -v])),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=40,
)


class TestBasics:
    def test_empty_formula_sat(self):
        assert Solver().solve() is True

    def test_unit_conflict(self):
        s = Solver()
        s.add_clause([1])
        assert s.add_clause([-1]) is False
        assert s.solve() is False

    def test_simple_sat_model(self):
        s = Solver()
        s.add_clause([1, 2])
        s.add_clause([-1])
        assert s.solve() is True
        assert s.model()[2] is True

    def test_tautology_ignored(self):
        s = Solver()
        s.add_clause([1, -1])
        assert s.solve() is True

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            Solver().add_clause([0])

    def test_model_unavailable_after_unsat(self):
        s = Solver()
        s.add_clause([1])
        s.add_clause([-1])
        s.solve()
        with pytest.raises(RuntimeError):
            s.model()


class TestAssumptions:
    def test_assumption_forces_value(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve([-1]) is True
        assert s.model()[2] is True

    def test_conflicting_assumptions(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve([-1, -2]) is False
        # Formula itself still satisfiable.
        assert s.solve() is True

    def test_incremental_after_assumptions(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve([-1]) is True
        s.add_clause([-2])
        assert s.solve([-1]) is False
        assert s.solve() is True


class TestBudget:
    def test_conflict_budget_returns_none(self):
        # Pigeonhole PHP(5,4): hard enough to exhaust a tiny budget.
        s = Solver()
        holes, pigeons = 4, 5
        var = lambda p, h: p * holes + h + 1
        for p in range(pigeons):
            s.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([-var(p1, h), -var(p2, h)])
        assert s.solve(max_conflicts=5) is None

    def test_pigeonhole_unsat(self):
        s = Solver()
        holes, pigeons = 3, 4
        var = lambda p, h: p * holes + h + 1
        for p in range(pigeons):
            s.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([-var(p1, h), -var(p2, h)])
        assert s.solve() is False


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            luby(0)


class TestAgainstBruteForce:
    @settings(max_examples=120, deadline=None)
    @given(clauses=clause_strategy)
    def test_random_formulas(self, clauses):
        s = Solver()
        ok = True
        for cl in clauses:
            if not s.add_clause(cl):
                ok = False
                break
        result = s.solve() if ok else False
        expected = brute_force(8, clauses)
        assert result == expected
        if result:
            model = s.model()
            assign = [model.get(v, False) for v in range(9)]
            assert all(
                any((lit > 0) == assign[abs(lit)] for lit in cl) for cl in clauses
            )

    @settings(max_examples=60, deadline=None)
    @given(clauses=clause_strategy, assumption=st.integers(1, 8),
           sign=st.sampled_from([1, -1]))
    def test_random_with_assumptions(self, clauses, assumption, sign):
        lit = sign * assumption
        s = Solver()
        ok = True
        for cl in clauses:
            if not s.add_clause(cl):
                ok = False
                break
        result = s.solve([lit]) if ok else False
        expected = brute_force(8, clauses, forced=[lit])
        assert result == expected


class TestSolveResult:
    @pytest.mark.parametrize("native", [False, True])
    def test_counts_are_per_call_on_a_warm_solver(self, native):
        """``last_result`` counts one call's work: conflicts, decisions
        and propagations alike, never the solver's running totals."""
        import random

        rng = random.Random("solve-result")
        s = Solver(native=native)
        for _ in range(150):
            chosen = rng.sample(range(1, 41), 3)
            s.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
        for assumptions in ((), (1, -2, 3)):
            before = s.stats_snapshot()
            s.solve(assumptions)
            after = s.stats_snapshot()
            result = s.last_result
            assert result.decisions > 0
            assert (result.conflicts, result.decisions, result.propagations) == (
                after["conflicts"] - before["conflicts"],
                after["decisions"] - before["decisions"],
                after["propagations"] - before["propagations"],
            )
        assert result.decisions < s.decisions
        assert result.propagations < s.propagations


class TestSolveCnf:
    def test_one_shot(self):
        cnf = CNF()
        a = cnf.new_var("a")
        b = cnf.new_var("b")
        cnf.add_clause([a, b])
        cnf.add_clause([-a])
        status, model = solve_cnf(cnf)
        assert status is True
        assert model[b] is True


class TestAllocationReuse:
    """The hot-loop reuse work must never change solver *answers*."""

    def _random_instance(self, seed, n_vars=30, n_clauses=120):
        import random

        rng = random.Random(("alloc-reuse", seed).__str__())
        clauses = []
        for _ in range(n_clauses):
            chosen = rng.sample(range(1, n_vars + 1), 3)
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
        return n_vars, clauses

    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_assumption_probes_match_fresh_solvers(self, seed):
        """One warm solver across N probes == N cold solvers."""
        import random

        n_vars, clauses = self._random_instance(seed)
        rng = random.Random(seed)
        probes = [
            (rng.randrange(1, n_vars + 1), rng.randrange(1, n_vars + 1))
            for _ in range(12)
        ]

        warm = Solver()
        warm.ensure_vars(n_vars)
        for clause in clauses:
            warm.add_clause(clause)
        warm_statuses = [warm.solve((a, -b)) for a, b in probes]

        cold_statuses = []
        for a, b in probes:
            cold = Solver()
            cold.ensure_vars(n_vars)
            for clause in clauses:
                cold.add_clause(clause)
            cold_statuses.append(cold.solve((a, -b)))
        assert warm_statuses == cold_statuses

    @pytest.mark.parametrize("seed", range(3))
    def test_seen_array_is_clean_after_solving(self, seed):
        """_analyze must fully clear its persistent mark array."""
        n_vars, clauses = self._random_instance(seed)
        solver = Solver()
        solver.ensure_vars(n_vars)
        for clause in clauses:
            solver.add_clause(clause)
        for assumption in (3, -5, 7):
            solver.solve((assumption,))
            assert not any(solver._seen), "stale conflict-analysis marks"

    def test_seen_array_tracks_new_vars(self):
        # Pinned to the Python backend: native mode sizes _assign to the
        # C capacity, not num_vars + 1.
        solver = Solver(native=False)
        solver.ensure_vars(17)
        assert len(solver._seen) == len(solver._assign) == 18

    def test_clause_activity_entries_die_with_their_clauses(self):
        """reduce_db must drop activity entries for removed clauses (a
        recycled id() must never inherit a ghost's activity)."""
        n_vars, clauses = self._random_instance(0, n_vars=60, n_clauses=255)
        solver = Solver(native=False)  # _clause_act keys are id(clause)
        solver.ensure_vars(n_vars)
        for clause in clauses:
            solver.add_clause(clause)
        solver.solve(max_conflicts=5000)
        learnt_ids = {id(c) for c in solver._learnts}
        assert set(solver._clause_act) <= learnt_ids

    def test_watch_entries_are_reused_objects(self):
        """Propagation migrates entry objects instead of reallocating."""
        solver = Solver(native=False)  # inspects Python watch lists
        solver.ensure_vars(4)
        solver.add_clause([1, 2, 3])
        before = {
            id(entry)
            for watch_list in solver._watches
            for entry in watch_list
        }
        assert solver.solve((-1, -2)) is True
        after = {
            id(entry)
            for watch_list in solver._watches
            for entry in watch_list
        }
        assert after == before

    def test_learned_db_limit_persists_across_solves(self):
        n_vars, clauses = self._random_instance(1, n_vars=60, n_clauses=255)
        solver = Solver()
        solver.ensure_vars(n_vars)
        for clause in clauses:
            solver.add_clause(clause)
        solver.solve(max_conflicts=4000)
        grown = solver._max_learnts
        assert grown >= 1000
        solver.solve(max_conflicts=10)
        assert solver._max_learnts >= grown
