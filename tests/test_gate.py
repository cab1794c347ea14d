"""Unit tests for gate types and their Boolean semantics."""

import pytest

from repro.netlist.gate import (
    COMPLEMENT_OF,
    Gate,
    GateType,
    arity_check,
    eval_gate,
)


class TestEvalGate:
    def test_and(self):
        assert eval_gate(GateType.AND, [0b1100, 0b1010], 0b1111) == 0b1000

    def test_or(self):
        assert eval_gate(GateType.OR, [0b1100, 0b1010], 0b1111) == 0b1110

    def test_nand(self):
        assert eval_gate(GateType.NAND, [0b1100, 0b1010], 0b1111) == 0b0111

    def test_nor(self):
        assert eval_gate(GateType.NOR, [0b1100, 0b1010], 0b1111) == 0b0001

    def test_xor(self):
        assert eval_gate(GateType.XOR, [0b1100, 0b1010], 0b1111) == 0b0110

    def test_xnor(self):
        assert eval_gate(GateType.XNOR, [0b1100, 0b1010], 0b1111) == 0b1001

    def test_not(self):
        assert eval_gate(GateType.NOT, [0b1100], 0b1111) == 0b0011

    def test_buf(self):
        assert eval_gate(GateType.BUF, [0b1100], 0b1111) == 0b1100

    def test_const(self):
        assert eval_gate(GateType.CONST0, [], 0b1111) == 0
        assert eval_gate(GateType.CONST1, [], 0b1111) == 0b1111

    def test_wide_gates(self):
        assert eval_gate(GateType.AND, [0b111, 0b110, 0b101], 0b111) == 0b100
        assert eval_gate(GateType.XOR, [0b111, 0b110, 0b101], 0b111) == 0b100

    def test_input_cannot_evaluate(self):
        with pytest.raises(ValueError):
            eval_gate(GateType.INPUT, [], 1)


class TestArity:
    def test_unary_rejects_two(self):
        with pytest.raises(ValueError):
            Gate("n", GateType.NOT, ("a", "b"))

    def test_variadic_rejects_one(self):
        with pytest.raises(ValueError):
            Gate("n", GateType.AND, ("a",))

    def test_input_rejects_fanin(self):
        with pytest.raises(ValueError):
            Gate("n", GateType.INPUT, ("a",))

    def test_valid_wide(self):
        gate = Gate("n", GateType.NOR, ("a", "b", "c"))
        assert gate.fanins == ("a", "b", "c")

    def test_arity_check_passes(self):
        arity_check(GateType.XOR, 5)
        arity_check(GateType.BUF, 1)
        arity_check(GateType.CONST1, 0)


class TestGateObject:
    def test_immutability(self):
        gate = Gate("g", GateType.AND, ("a", "b"))
        with pytest.raises(Exception):
            gate.name = "other"

    def test_with_fanins(self):
        gate = Gate("g", GateType.AND, ("a", "b"))
        other = gate.with_fanins(("c", "d"))
        assert other.fanins == ("c", "d")
        assert other.gtype is GateType.AND

    def test_with_type(self):
        gate = Gate("g", GateType.AND, ("a", "b"))
        assert gate.with_type(GateType.OR).gtype is GateType.OR

    def test_complement_map_is_involution(self):
        for gtype, comp in COMPLEMENT_OF.items():
            assert COMPLEMENT_OF[comp] is gtype
