"""Property tests for arithmetic building blocks."""

from hypothesis import given, settings, strategies as st

from repro.netlist import Circuit
from repro.netlist.blocks import (
    add_equals_const,
    add_full_adder,
    add_popcount,
    add_ripple_adder,
)


def _eval(circuit, assignment, signals):
    values = circuit.evaluate(assignment, 1)
    return [values[s] & 1 for s in signals]


class TestAdders:
    @given(a=st.integers(0, 1), b=st.integers(0, 1), cin=st.integers(0, 1))
    def test_full_adder(self, a, b, cin):
        c = Circuit("fa")
        for n in ("a", "b", "ci"):
            c.add_input(n)
        s, carry = add_full_adder(c, "fa0", "a", "b", "ci")
        bits = _eval(c, {"a": a, "b": b, "ci": cin}, [s, carry])
        assert bits[0] + 2 * bits[1] == a + b + cin

    @settings(max_examples=40, deadline=None)
    @given(x=st.integers(0, 255), y=st.integers(0, 255))
    def test_ripple_adder(self, x, y):
        c = Circuit("add")
        xs = [c.add_input(f"x{i}") for i in range(8)]
        ys = [c.add_input(f"y{i}") for i in range(8)]
        sums = add_ripple_adder(c, "r", xs, ys)
        assignment = {f"x{i}": (x >> i) & 1 for i in range(8)}
        assignment.update({f"y{i}": (y >> i) & 1 for i in range(8)})
        bits = _eval(c, assignment, sums)
        assert sum(b << i for i, b in enumerate(bits)) == x + y

    def test_uneven_widths(self):
        c = Circuit("add")
        xs = [c.add_input(f"x{i}") for i in range(4)]
        ys = [c.add_input("y0")]
        sums = add_ripple_adder(c, "r", xs, ys)
        assignment = {f"x{i}": 1 for i in range(4)}
        assignment["y0"] = 1
        bits = _eval(c, assignment, sums)
        assert sum(b << i for i, b in enumerate(bits)) == 15 + 1


class TestPopcount:
    @settings(max_examples=40, deadline=None)
    @given(value=st.integers(0, (1 << 9) - 1))
    def test_popcount(self, value):
        c = Circuit("pc")
        bits = [c.add_input(f"b{i}") for i in range(9)]
        out = add_popcount(c, "pc", bits)
        assignment = {f"b{i}": (value >> i) & 1 for i in range(9)}
        got = _eval(c, assignment, out)
        assert sum(b << i for i, b in enumerate(got)) == bin(value).count("1")


class TestEqualsConst:
    @settings(max_examples=30, deadline=None)
    @given(value=st.integers(0, 15), target=st.integers(0, 15))
    def test_equality(self, value, target):
        c = Circuit("eq")
        bits = [c.add_input(f"b{i}") for i in range(4)]
        root = add_equals_const(c, "eq", bits, target)
        assignment = {f"b{i}": (value >> i) & 1 for i in range(4)}
        got = _eval(c, assignment, [root])[0]
        assert got == int(value == target)

    def test_unrepresentable_constant(self):
        c = Circuit("eq")
        bits = [c.add_input("b0")]
        root = add_equals_const(c, "eq", bits, 7)
        assert _eval(c, {"b0": 1}, [root])[0] == 0
