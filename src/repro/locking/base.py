"""Shared infrastructure for logic locking techniques.

Every technique returns a :class:`LockedCircuit`: the locked netlist, the
key interface, the designated secret key, and bookkeeping (protected
primary inputs, the technique name, the nominal critical signal before
resynthesis).  The original circuit rides along solely to build oracles
and to *score* attacks — attack code must never inspect it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netlist.circuit import Circuit
from ..netlist.gate import GateType

__all__ = [
    "LockedCircuit",
    "LockingError",
    "insert_output_flip",
    "build_tree",
    "choose_protected_inputs",
    "KEY_PREFIX",
]

#: Conventional key-input prefix used by locking benchmark releases.
KEY_PREFIX = "keyinput"


class LockingError(Exception):
    """Raised when a technique cannot be applied to a host circuit."""


@dataclass
class LockedCircuit:
    """A locked netlist plus the ground truth needed for evaluation.

    Attributes
    ----------
    circuit:
        The locked netlist.  Its inputs are the original primary inputs
        plus ``key_inputs``.
    key_inputs:
        Ordered key-input names.
    correct_key:
        The designated secret key (name -> bool).  For techniques with a
        *family* of functionally correct keys this is one designated
        member; functional scoring lives in ``repro.attacks.metrics``.
    original:
        The unlocked host circuit (oracle source only).
    technique:
        Technique identifier, e.g. ``"sarlock"``.
    protected_inputs:
        The protected primary inputs (PPIs) the locking unit observes.
    key_of_ppi:
        Mapping ppi name -> tuple of associated key input names (one key
        for SARLock/DFLTs, two for the Anti-SAT family).
    critical_signal:
        Name of the nominal flip/restore signal (pre-resynthesis).
    metadata:
        Free-form extras (tree inversion masks, Hamming distance h, ...).
    """

    circuit: Circuit
    key_inputs: tuple
    correct_key: dict
    original: Circuit
    technique: str
    protected_inputs: tuple = ()
    key_of_ppi: dict = field(default_factory=dict)
    critical_signal: str = ""
    metadata: dict = field(default_factory=dict)

    @property
    def key_width(self):
        return len(self.key_inputs)

    def with_key(self, key):
        """Locked circuit specialized to a key assignment.

        Key inputs become constant gates; no other simplification is
        applied (use ``repro.synth.constprop`` for folding).  The result
        has the original input interface.
        """
        fixed = Circuit(f"{self.circuit.name}_keyed")
        for name in self.circuit.inputs:
            if name in self.correct_key or name in set(self.key_inputs):
                continue
            fixed.add_input(name)
        key_set = set(self.key_inputs)
        for name in self.circuit.inputs:
            if name in key_set:
                value = key[name]
                gtype = GateType.CONST1 if value else GateType.CONST0
                fixed._gates[name] = type(self.circuit.gate(name))(name, gtype, ())
        for gate in self.circuit.gates():
            fixed._gates[gate.name] = gate
        fixed._invalidate()
        fixed.set_outputs(list(self.circuit.outputs))
        fixed.validate()
        return fixed

    def __repr__(self):
        return (
            f"LockedCircuit({self.circuit.name!r}, technique={self.technique!r}, "
            f"keys={self.key_width}, ppis={len(self.protected_inputs)})"
        )


def choose_protected_inputs(circuit, count, rng):
    """Pick ``count`` protected primary inputs from a host circuit.

    Prefers inputs in the support of the flip output so the locking
    interacts with real logic, then fills from the remaining inputs.
    Deterministic given the rng state.
    """
    if count > len(circuit.inputs):
        raise LockingError(
            f"cannot protect {count} inputs; host has {len(circuit.inputs)}"
        )
    inputs = list(circuit.inputs)
    rng.shuffle(inputs)
    return tuple(sorted(inputs[:count]))


def insert_output_flip(circuit, output, flip_signal, xor_name=None):
    """Replace ``output`` with ``output XOR flip_signal`` in place.

    The original driver is renamed to ``<output>$pre``; the output keeps
    its name so the interface is unchanged.
    """
    if output not in circuit.outputs:
        raise LockingError(f"{output!r} is not a primary output")
    pre = f"{output}$pre"
    while pre in circuit:
        pre += "_"
    gate = circuit.gate(output)
    if gate.is_input:
        raise LockingError(f"cannot flip primary input {output!r}")
    circuit._gates.pop(output)
    circuit._gates[pre] = type(gate)(pre, gate.gtype, gate.fanins)
    # Patch any internal fanout of the old output signal.
    replaced = []
    for other in list(circuit._gates.values()):
        if other.name == pre or output not in other.fanins:
            continue
        new_fanins = tuple(pre if s == output else s for s in other.fanins)
        circuit._gates[other.name] = type(other)(other.name, other.gtype, new_fanins)
        replaced.append(other.name)
    circuit._invalidate()
    circuit.add_gate(output, GateType.XOR, (pre, flip_signal))
    circuit.validate()
    return pre


def build_tree(circuit, prefix, gtypes, leaves, rng=None):
    """Build a reduction tree over ``leaves`` and return its root signal.

    ``gtypes`` is either a single :class:`GateType` (balanced tree of that
    gate) or a sequence to cycle through level by level (CAS-Lock style
    mixed trees).  A seeded ``rng`` shuffles pairing order for structural
    diversity; ``None`` keeps declaration order.
    """
    if not leaves:
        raise LockingError("cannot build a tree with no leaves")
    if isinstance(gtypes, GateType):
        gtypes = [gtypes]
    level = list(leaves)
    if rng is not None:
        rng.shuffle(level)
    counter = 0
    depth = 0
    while len(level) > 1:
        gtype = gtypes[depth % len(gtypes)]
        nxt = []
        for i in range(0, len(level) - 1, 2):
            name = f"{prefix}_t{depth}_{counter}"
            counter += 1
            circuit.add_gate(name, gtype, (level[i], level[i + 1]))
            nxt.append(name)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
        depth += 1
    return level[0]
