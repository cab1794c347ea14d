"""Tests for the QBF formula representation and 2QBF solvers."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.netlist import Circuit
from repro.qbf import (
    EXISTS,
    FORALL,
    QBF,
    circuit_to_qbf,
    solve_2qbf,
    solve_exists_forall_circuit,
)
from repro.sat import CNF


def brute_2qbf(exist_vars, forall_vars, clauses, n):
    """Brute-force EXISTS e FORALL u (free vars inner-existential)."""
    others = [v for v in range(1, n + 1) if v not in exist_vars and v not in forall_vars]
    for e_bits in itertools.product([False, True], repeat=len(exist_vars)):
        e = dict(zip(exist_vars, e_bits))
        holds = True
        for u_bits in itertools.product([False, True], repeat=len(forall_vars)):
            u = dict(zip(forall_vars, u_bits))
            inner_sat = False
            for t_bits in itertools.product([False, True], repeat=len(others)):
                t = dict(zip(others, t_bits))
                assign = {**e, **u, **t}
                if all(
                    any((l > 0) == assign[abs(l)] for l in cl) for cl in clauses
                ):
                    inner_sat = True
                    break
            if not inner_sat:
                holds = False
                break
        if holds:
            return True
    return False


class TestFormula:
    def test_block_merging(self):
        q = QBF()
        q.add_block(EXISTS, [1, 2])
        q.add_block(EXISTS, [3])
        q.add_block(FORALL, [4])
        assert q.prefix == [(EXISTS, [1, 2, 3]), (FORALL, [4])]

    def test_qdimacs_roundtrip(self):
        q = QBF()
        q.matrix.add_clause([1, -3])
        q.matrix.add_clause([2])
        q.add_block(EXISTS, [1])
        q.add_block(FORALL, [2])
        q.close()
        text = q.to_qdimacs()
        back = QBF.from_qdimacs(text)
        assert back.prefix == q.prefix
        assert back.matrix.clauses == q.matrix.clauses

    def test_free_vars(self):
        q = QBF()
        q.matrix.add_clause([1, 2, 3])
        q.add_block(EXISTS, [1])
        assert q.free_vars() == {2, 3}
        q.close()
        assert q.free_vars() == set()


class TestSolve2QBF:
    @settings(max_examples=40, deadline=None)
    @given(
        clauses=st.lists(
            st.lists(
                st.integers(1, 5).flatmap(lambda v: st.sampled_from([v, -v])),
                min_size=1, max_size=3,
            ),
            min_size=1, max_size=12,
        ),
        n_exist=st.integers(0, 2),
        n_forall=st.integers(0, 2),
    )
    def test_against_brute_force(self, clauses, n_exist, n_forall):
        exist = list(range(1, n_exist + 1))
        forall = list(range(n_exist + 1, n_exist + n_forall + 1))
        q = QBF()
        for cl in clauses:
            q.matrix.add_clause(cl)
        q.add_block(EXISTS, exist)
        q.add_block(FORALL, forall)
        q.close()
        result = solve_2qbf(q)
        expected = brute_2qbf(exist, forall, [tuple(c) for c in clauses], 5)
        assert result.status == expected

    def test_expansion_limit(self):
        q = QBF()
        q.matrix.add_clause([1, 2])
        q.add_block(EXISTS, [1])
        q.add_block(FORALL, list(range(2, 40)))
        import pytest

        with pytest.raises(ValueError):
            solve_2qbf(q, max_universals=8)


class TestCircuitCegar:
    def test_or_gate(self):
        c = Circuit("q")
        c.add_input("k")
        c.add_input("x")
        c.add_gate("o", "OR", ("k", "x"))
        c.add_output("o")
        res = solve_exists_forall_circuit(c, ["k"], ["x"], "o", 1)
        assert res.status is True and res.witness == {"k": True}
        assert solve_exists_forall_circuit(c, ["k"], ["x"], "o", 0).status is False

    def test_xnor_unsat_both(self):
        c = Circuit("q")
        c.add_input("k")
        c.add_input("x")
        c.add_gate("o", "XNOR", ("k", "x"))
        c.add_output("o")
        assert solve_exists_forall_circuit(c, ["k"], ["x"], "o", 0).status is False
        assert solve_exists_forall_circuit(c, ["k"], ["x"], "o", 1).status is False

    def test_lifted_counterexample_refutes_in_one_round(self):
        c = Circuit("q")
        c.add_input("k")
        c.add_input("x")
        c.add_gate("o", "XNOR", ("k", "x"))
        c.add_output("o")
        for target in (0, 1):
            res = solve_exists_forall_circuit(
                c, ["k"], ["x"], "o", target, strategy_hints=[{"x": "k"}]
            )
            assert res.status is False and res.iterations == 1
            # x := k forces o = 1; x := NOT k forces o = 0.
            assert res.strategy == {"x": ("k", bool(target))}

    def test_lift_never_refutes_a_true_formula(self):
        c = Circuit("q")
        c.add_input("k")
        c.add_input("x")
        c.add_gate("o", "OR", ("k", "x"))
        c.add_output("o")
        res = solve_exists_forall_circuit(
            c, ["k"], ["x"], "o", 1, strategy_hints=[{"x": "k"}]
        )
        assert res.status is True and res.strategy is None

    def test_mismatched_hint_falls_back_to_cegar(self):
        # (x1 == k1) AND (x2 == k2), hinted crosswise: the lifted strategy
        # is beaten, so plain CEGAR must still refute constant 0.
        c = Circuit("q")
        for n in ("k1", "k2", "x1", "x2"):
            c.add_input(n)
        c.add_gate("e1", "XNOR", ("k1", "x1"))
        c.add_gate("e2", "XNOR", ("k2", "x2"))
        c.add_gate("o", "AND", ("e1", "e2"))
        c.add_output("o")
        res = solve_exists_forall_circuit(
            c, ["k1", "k2"], ["x1", "x2"], "o", 0,
            strategy_hints=[{"x1": "k2", "x2": "k1"}],
        )
        assert res.status is False and res.strategy is None

    def test_second_hint_refutes_when_the_first_is_crosswise(self):
        # The crosswise hint's strategy is beaten; the aligned one is
        # proved in the same round and is the certificate returned.
        c = Circuit("q")
        for n in ("k1", "k2", "x1", "x2"):
            c.add_input(n)
        c.add_gate("e1", "XNOR", ("k1", "x1"))
        c.add_gate("e2", "XNOR", ("k2", "x2"))
        c.add_gate("o", "AND", ("e1", "e2"))
        c.add_output("o")
        res = solve_exists_forall_circuit(
            c, ["k1", "k2"], ["x1", "x2"], "o", 0,
            strategy_hints=[{"x1": "k2", "x2": "k1"},
                            {"x1": "k1", "x2": "k2"}],
        )
        assert res.status is False and res.iterations == 1
        assert res.strategy == {"x1": ("k1", False), "x2": ("k2", False)}

    def test_two_keys(self):
        # o = (k1 XOR k2) OR x : constant 1 iff k1 != k2
        c = Circuit("q")
        for n in ("k1", "k2", "x"):
            c.add_input(n)
        c.add_gate("kx", "XOR", ("k1", "k2"))
        c.add_gate("o", "OR", ("kx", "x"))
        c.add_output("o")
        res = solve_exists_forall_circuit(c, ["k1", "k2"], ["x"], "o", 1)
        assert res.status is True
        assert res.witness["k1"] != res.witness["k2"]

    def test_bad_partition_rejected(self):
        import pytest

        c = Circuit("q")
        c.add_input("k")
        c.add_input("x")
        c.add_gate("o", "OR", ("k", "x"))
        c.add_output("o")
        with pytest.raises(ValueError):
            solve_exists_forall_circuit(c, ["k"], [], "o", 1)

    def test_agrees_with_expansion(self):
        # cross-check CEGAR against QDIMACS expansion on a small unit
        c = Circuit("q")
        for n in ("k1", "k2", "x1", "x2"):
            c.add_input(n)
        c.add_gate("e1", "XNOR", ("k1", "x1"))
        c.add_gate("e2", "XNOR", ("k2", "x2"))
        c.add_gate("cmp", "AND", ("e1", "e2"))
        c.add_output("cmp")
        for target in (0, 1):
            cegar = solve_exists_forall_circuit(
                c, ["k1", "k2"], ["x1", "x2"], "cmp", target, max_iterations=100
            )
            q, _ = circuit_to_qbf(c, ["k1", "k2"], ["x1", "x2"], "cmp", target)
            expansion = solve_2qbf(q)
            if cegar.status is not None:
                assert cegar.status == expansion.status


class TestBudgetReporting:
    def test_expired_budget_reports_real_elapsed(self):
        """solve_2qbf's early return must not claim elapsed=0.0 when the
        (shared) deadline arrived already spent."""
        from repro.budget import Deadline
        from repro.sat.cnf import CNF
        from repro.qbf.formula import QBF

        class SteppingClock:
            def __init__(self):
                self.t = 0.0

            def __call__(self):
                self.t += 0.25
                return self.t

        cnf = CNF()
        v = cnf.new_var("v")
        cnf.add_clause([v])
        qbf = QBF(cnf)
        qbf.add_block(EXISTS, [v])
        qbf.close()

        deadline = Deadline(0.1, clock=SteppingClock())
        assert deadline.expired()
        result = solve_2qbf(qbf, time_limit=deadline)
        assert result.status is None
        assert result.elapsed > 0.0


class TestDominatorRootCap:
    def _wide_unit(self, n_keys=6):
        """Many independent key-only roots, each feeding a mixed gate.

        Each ``r_i = NOT(k_i)`` fans out into ``AND(r_i, x)`` (impure),
        so every ``r_i`` is a probe root.  With all keys 1 the output is
        constant 0, so ``EXISTS k FORALL x . out == 0`` holds.
        """
        circuit = Circuit("caps")
        keys = [circuit.add_input(f"k{i}") for i in range(n_keys)]
        x = circuit.add_input("x")
        mixed = []
        for i, k in enumerate(keys):
            root = circuit.add_gate(f"r{i}", "NOT", (k,))
            mixed.append(circuit.add_gate(f"m{i}", "AND", (root, x)))
        acc = mixed[0]
        for i, m in enumerate(mixed[1:], 1):
            acc = circuit.add_gate(f"o{i}", "OR", (acc, m))
        circuit.add_gate("out", "BUFF", (acc,))
        circuit.add_output("out")
        circuit.validate()
        return circuit, keys

    def test_env_knob_caps_roots_and_logs(self, monkeypatch, caplog):
        import logging

        from repro.qbf import solver as qbf_solver

        circuit, keys = self._wide_unit()
        monkeypatch.setattr(qbf_solver, "DOMINATOR_ROOT_CAP", 2)
        with caplog.at_level(logging.INFO, logger="repro.qbf.solver"):
            result = solve_exists_forall_circuit(
                circuit, keys, ["x"], "out", 0
            )
        assert result.status is True
        dropped = [r for r in caplog.records
                   if "key-only roots" in r.getMessage()]
        assert dropped, "dropping roots must be logged, never silent"
