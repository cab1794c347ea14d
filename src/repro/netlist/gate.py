"""Gate types and their Boolean semantics.

The netlist model is a combinational gate-level DAG in the spirit of the
ISCAS ``.bench`` format: every signal is produced either by a primary input
or by exactly one gate.  Gates are n-ary where the function allows it
(AND/OR/NAND/NOR/XOR/XNOR), unary for NOT/BUF, and nullary for constants.

Evaluation is *bit-parallel*: signal values are arbitrary-precision Python
integers in which bit ``j`` holds the signal's value under input pattern
``j``.  A 64-pattern simulation therefore costs one pass over the gates.
The complement operation needs the pattern-width mask, which is why every
evaluation helper takes ``mask``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce


class GateType(Enum):
    """Supported gate functions (BENCH-compatible plus constants)."""

    INPUT = "INPUT"
    AND = "AND"
    OR = "OR"
    NAND = "NAND"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUFF"
    CONST0 = "CONST0"
    CONST1 = "CONST1"

    def __repr__(self):
        return f"GateType.{self.name}"

    @classmethod
    def from_string(cls, text):
        """Resolve a gate type from its enum name or BENCH spelling.

        Accepts both ``"BUF"`` (enum name) and ``"BUFF"`` (BENCH value),
        case-insensitively.
        """
        text = text.upper()
        try:
            return cls(text)
        except ValueError:
            try:
                return cls[text]
            except KeyError:
                raise ValueError(f"unknown gate type {text!r}") from None


#: Gate types that accept two or more fan-ins.
VARIADIC_TYPES = frozenset(
    {GateType.AND, GateType.OR, GateType.NAND, GateType.NOR, GateType.XOR, GateType.XNOR}
)

#: Gate types with exactly one fan-in.
UNARY_TYPES = frozenset({GateType.NOT, GateType.BUF})

#: Gate types with no fan-ins (sources).
NULLARY_TYPES = frozenset({GateType.INPUT, GateType.CONST0, GateType.CONST1})

#: Gate types whose output is the complement of the corresponding base type.
INVERTING_TYPES = frozenset({GateType.NAND, GateType.NOR, GateType.XNOR, GateType.NOT})

#: Map from an inverting type to the base function it complements.
COMPLEMENT_OF = {
    GateType.AND: GateType.NAND,
    GateType.NAND: GateType.AND,
    GateType.OR: GateType.NOR,
    GateType.NOR: GateType.OR,
    GateType.XOR: GateType.XNOR,
    GateType.XNOR: GateType.XOR,
    GateType.NOT: GateType.BUF,
    GateType.BUF: GateType.NOT,
}


@dataclass(frozen=True)
class Gate:
    """A single gate: an output signal name, a function, and fan-in names.

    Gates are immutable; circuit edits replace gates wholesale.  This keeps
    the fanout index of :class:`~repro.netlist.circuit.Circuit` trustworthy.
    """

    name: str
    gtype: GateType
    fanins: tuple

    def __post_init__(self):
        if not isinstance(self.fanins, tuple):
            object.__setattr__(self, "fanins", tuple(self.fanins))
        arity_check(self.gtype, len(self.fanins), self.name)

    @property
    def is_input(self):
        return self.gtype is GateType.INPUT

    @property
    def is_constant(self):
        return self.gtype in (GateType.CONST0, GateType.CONST1)

    def with_fanins(self, fanins):
        """Return a copy of this gate with a new fan-in tuple."""
        return Gate(self.name, self.gtype, tuple(fanins))

    def with_type(self, gtype):
        """Return a copy of this gate with a new gate type."""
        return Gate(self.name, gtype, self.fanins)


def arity_check(gtype, n_fanins, name="<gate>"):
    """Validate that ``n_fanins`` is legal for ``gtype``; raise ValueError."""
    if gtype in NULLARY_TYPES:
        if n_fanins != 0:
            raise ValueError(f"{name}: {gtype.value} takes no fanins, got {n_fanins}")
    elif gtype in UNARY_TYPES:
        if n_fanins != 1:
            raise ValueError(f"{name}: {gtype.value} takes 1 fanin, got {n_fanins}")
    else:
        if n_fanins < 2:
            raise ValueError(f"{name}: {gtype.value} needs >=2 fanins, got {n_fanins}")


def eval_gate(gtype, operands, mask):
    """Evaluate a gate function over bit-parallel operand words.

    ``operands`` is a sequence of ints, ``mask`` the all-ones word of the
    simulation width.  Returns the output word.
    """
    if gtype is GateType.AND:
        return reduce(lambda a, b: a & b, operands)
    if gtype is GateType.OR:
        return reduce(lambda a, b: a | b, operands)
    if gtype is GateType.NAND:
        return mask ^ reduce(lambda a, b: a & b, operands)
    if gtype is GateType.NOR:
        return mask ^ reduce(lambda a, b: a | b, operands)
    if gtype is GateType.XOR:
        return reduce(lambda a, b: a ^ b, operands)
    if gtype is GateType.XNOR:
        return mask ^ reduce(lambda a, b: a ^ b, operands)
    if gtype is GateType.NOT:
        return mask ^ operands[0]
    if gtype is GateType.BUF:
        return operands[0]
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return mask
    raise ValueError(f"cannot evaluate gate type {gtype}")
