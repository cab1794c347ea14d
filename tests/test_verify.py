"""Tests for SAT-miter equivalence checking."""

import pytest

from factories import build_random_circuit
from repro.locking import lock_genantisat
from repro.netlist import Circuit, build_miter, check_equivalent, prove_signal_constant
from repro.netlist.cone import transitive_fanin
from repro.netlist.gate import GateType


class TestMiter:
    def test_miter_structure(self, majority_circuit):
        miter = build_miter(majority_circuit, majority_circuit.copy())
        assert miter.outputs == ("miter_out",)
        assert set(majority_circuit.inputs).issubset(set(miter.inputs))

    def test_interface_mismatch_rejected(self, majority_circuit):
        other = build_random_circuit(n_inputs=3, n_gates=5, n_outputs=1, seed=9)
        with pytest.raises(ValueError):
            build_miter(majority_circuit, other)


def _diff_gates(miter):
    return {g.name for g in miter.gates() if g.name.startswith("diff$")}


class TestMiterReduction:
    """Shared outputs are not compared; only differing cones are encoded."""

    @pytest.fixture
    def host(self):
        return build_random_circuit(n_inputs=8, n_gates=40, n_outputs=4, seed=11)

    def test_identical_circuits_compare_nothing(self, host):
        miter = build_miter(host, host.copy())
        assert not _diff_gates(miter)
        assert miter.gate("miter_out").gtype is GateType.CONST0
        assert miter.num_gates == 1
        assert set(miter.inputs) == set(host.inputs)
        assert check_equivalent(host, host.copy()) == (True, None)
        # The reference miter still compares every output pair.
        full = build_miter(host, host.copy(), share_common=False)
        assert _diff_gates(full) == {f"diff${o}" for o in host.outputs}

    def test_alternative_key_compares_only_the_locked_outputs(self, host):
        locked = lock_genantisat(host, 8, seed=3)
        keyed = locked.with_key({k: not v for k, v in locked.correct_key.items()})
        keys = set(locked.key_inputs)
        driven = [o for o in host.outputs
                  if keys & transitive_fanin(locked.circuit, [o])]
        assert 0 < len(driven) < len(host.outputs)
        miter = build_miter(host, keyed)
        diffs = _diff_gates(miter)
        assert diffs == {f"diff${o}" for o in driven}
        cones = transitive_fanin(host, driven) | transitive_fanin(keyed, driven)
        for gate in miter.gates():
            if gate.name in diffs or gate.name == "miter_out":
                continue
            name = gate.name[2:] if gate.name[:2] in ("A$", "B$") else gate.name
            assert name in cones, gate.name
        assert check_equivalent(host, keyed) == (True, None)

    def test_assumption_outside_the_compared_cones(self):
        circ = Circuit("two_cones")
        for name in ("x0", "x1", "x2", "x3"):
            circ.add_input(name)
        circ.add_gate("o1", "AND", ("x0", "x1"))
        circ.add_gate("o2", "XOR", ("x2", "x3"))
        circ.set_outputs(["o1", "o2"])
        other = circ.copy("other")
        other.replace_gate("o2", "OR", ("x2", "x3"))
        miter = build_miter(circ, other)
        assert not any("x0" in g.fanins for g in miter.gates())
        free, _ = check_equivalent(circ, other)
        pinned, cex = check_equivalent(circ, other, assumptions={"x0": True})
        assert free is pinned is False
        assert cex["x0"] is True
        pattern = {k: int(v) for k, v in cex.items()}
        assert circ.output_vector(pattern) != other.output_vector(pattern)
        assert check_equivalent(
            circ, circ.copy(), assumptions={"x0": False}
        ) == (True, None)


class TestEquivalence:
    def test_equal_circuits(self, majority_circuit):
        verdict, cex = check_equivalent(majority_circuit, majority_circuit.copy())
        assert verdict is True and cex is None

    def test_different_circuits(self, majority_circuit):
        broken = majority_circuit.copy("broken")
        broken.replace_gate("f", "AND", ("ab", "ac", "bc"))
        verdict, cex = check_equivalent(majority_circuit, broken)
        assert verdict is False
        a = majority_circuit.output_vector({k: int(v) for k, v in cex.items()})
        b = broken.output_vector({k: int(v) for k, v in cex.items()})
        assert a != b

    def test_assumption_restricted(self, majority_circuit):
        # maj(a,b,c) == OR(b,c) under the assumption a=1
        flat = majority_circuit.copy("flat")
        flat.replace_gate("f", "OR", ("b", "c"))
        flat.remove_gate("ab")
        flat.remove_gate("ac")
        flat.remove_gate("bc")
        flat.add_gate("ab", "AND", ("a", "b"))
        flat.add_gate("ac", "AND", ("a", "c"))
        flat.add_gate("bc", "AND", ("b", "c"))
        verdict, _ = check_equivalent(majority_circuit, flat, assumptions={"a": True})
        assert verdict is True
        verdict, _ = check_equivalent(majority_circuit, flat)
        assert verdict is False


class TestSignalConstant:
    def test_constant_signal(self, majority_circuit):
        c = majority_circuit.copy()
        c.add_gate("never", "AND", ("a", "na"))
        c.add_gate("na", "NOT", ("a",))
        verdict, _ = prove_signal_constant(c, "never", 0)
        assert verdict is True

    def test_non_constant_signal(self, majority_circuit):
        verdict, cex = prove_signal_constant(majority_circuit, "f", 0)
        assert verdict is False and cex is not None

    def test_fixed_inputs(self, majority_circuit):
        verdict, _ = prove_signal_constant(
            majority_circuit, "f", 1, fixed_inputs={"a": True, "b": True}
        )
        assert verdict is True
