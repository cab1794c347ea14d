"""Reusable gate-level arithmetic blocks.

Used by the SFLL-HD restore unit (population count + equality) and by the
benchmark generators (the c6288-style array multiplier is rows of these
adders).  All builders append gates to an existing circuit under a unique
prefix and return output signal names.
"""

from __future__ import annotations

from .gate import GateType

__all__ = [
    "add_half_adder",
    "add_full_adder",
    "add_ripple_adder",
    "add_popcount",
    "add_equals_const",
]


def add_half_adder(circuit, prefix, a, b):
    """Half adder; returns ``(sum, carry)`` signal names."""
    s = f"{prefix}_s"
    c = f"{prefix}_c"
    circuit.add_gate(s, GateType.XOR, (a, b))
    circuit.add_gate(c, GateType.AND, (a, b))
    return s, c


def add_full_adder(circuit, prefix, a, b, cin):
    """Full adder; returns ``(sum, carry)`` signal names."""
    x1 = f"{prefix}_x1"
    s = f"{prefix}_s"
    a1 = f"{prefix}_a1"
    a2 = f"{prefix}_a2"
    c = f"{prefix}_c"
    circuit.add_gate(x1, GateType.XOR, (a, b))
    circuit.add_gate(s, GateType.XOR, (x1, cin))
    circuit.add_gate(a1, GateType.AND, (a, b))
    circuit.add_gate(a2, GateType.AND, (x1, cin))
    circuit.add_gate(c, GateType.OR, (a1, a2))
    return s, c


def add_ripple_adder(circuit, prefix, xs, ys, cin=None):
    """Ripple-carry adder over two little-endian vectors.

    Vectors may have different lengths (the shorter is zero-extended
    logically by switching to half adders).  Returns the little-endian
    sum vector including the final carry bit.
    """
    n = max(len(xs), len(ys))
    sums = []
    carry = cin
    for i in range(n):
        a = xs[i] if i < len(xs) else None
        b = ys[i] if i < len(ys) else None
        tag = f"{prefix}_fa{i}"
        if a is None:
            a = b
            b = None
        if b is None and carry is None:
            sums.append(a)
            continue
        if b is None:
            s, carry = add_half_adder(circuit, tag, a, carry)
        elif carry is None:
            s, carry = add_half_adder(circuit, tag, a, b)
        else:
            s, carry = add_full_adder(circuit, tag, a, b, carry)
        sums.append(s)
    if carry is not None:
        sums.append(carry)
    return sums


def add_popcount(circuit, prefix, bits):
    """Population count of ``bits``; returns a little-endian sum vector.

    Built as a balanced tree of ripple adders — the natural synthesis of
    an RTL ``$countones``.
    """
    if not bits:
        raise ValueError("popcount needs at least one bit")
    groups = [[b] for b in bits]
    level = 0
    while len(groups) > 1:
        merged = []
        for i in range(0, len(groups) - 1, 2):
            tag = f"{prefix}_l{level}_{i // 2}"
            merged.append(add_ripple_adder(circuit, tag, groups[i], groups[i + 1]))
        if len(groups) % 2:
            merged.append(groups[-1])
        groups = merged
        level += 1
    return groups[0]


def add_equals_const(circuit, prefix, bits, value):
    """Equality of a little-endian bit vector with a constant integer.

    Returns the root signal (1 iff ``bits == value``).
    """
    from ..locking.base import build_tree

    leaves = []
    for i, bit in enumerate(bits):
        want = (value >> i) & 1
        name = f"{prefix}_b{i}"
        circuit.add_gate(name, GateType.BUF if want else GateType.NOT, (bit,))
        leaves.append(name)
    if value >> len(bits):
        # The constant cannot be represented: comparison is constant 0.
        name = f"{prefix}_never"
        circuit.add_gate(name, GateType.CONST0, ())
        return name
    if len(leaves) == 1:
        return leaves[0]
    return build_tree(circuit, f"{prefix}_and", GateType.AND, leaves)
