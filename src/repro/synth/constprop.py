"""Constant propagation, folding, and dead-code elimination.

This is the engine behind the SCOPE attack (which compares how much a
netlist's area shrinks when a key bit is pinned to 0 versus 1) and a
helper pass for the resynthesizer.  Folding is frontier-based: a
worklist walks only the fanout of the pinned signals and stops wherever
a gate no longer changes, so the fold itself costs time proportional to
the affected region.  :func:`propagate_constants` then materializes the
pinned netlist (a copy of every gate, linear in the netlist), while
:func:`pinned_area` computes the area of the pinned, dead-code
eliminated netlist without building it: only its liveness walk is
linear.
"""

from __future__ import annotations

from ..netlist.circuit import Circuit
from ..netlist.gate import Gate, GateType

__all__ = [
    "propagate_constants",
    "dead_code_eliminate",
    "circuit_area",
    "pinned_area",
]

_IDENTITY = {
    GateType.AND: 1,
    GateType.NAND: 1,
    GateType.OR: 0,
    GateType.NOR: 0,
    GateType.XOR: 0,
    GateType.XNOR: 0,
}

_ABSORBING = {
    GateType.AND: (0, GateType.CONST0),
    GateType.NAND: (0, GateType.CONST1),
    GateType.OR: (1, GateType.CONST1),
    GateType.NOR: (1, GateType.CONST0),
}

_BASE_IS_INVERTING = {
    GateType.AND: False,
    GateType.NAND: True,
    GateType.OR: False,
    GateType.NOR: True,
    GateType.XOR: False,
    GateType.XNOR: True,
}


_CONST_VALUE = {GateType.CONST0: 0, GateType.CONST1: 1}

#: Gate types the area does not count (free after mapping).
_FREE_TYPES = (GateType.INPUT, GateType.BUF, GateType.CONST0, GateType.CONST1)


def _fold(gtype, fanins, const_in):
    """Fold one gate given its fanins' known constants.

    ``const_in`` holds, per fanin, its constant value (0/1) or ``None``.
    Returns ``("const", 0/1)``, ``("gate", gtype, fanins)`` (possibly
    simplified), or ``None`` when nothing changed.
    """
    if all(v is None for v in const_in):
        return None

    if gtype in (GateType.NOT, GateType.BUF):
        v = const_in[0]
        if v is None:
            return None
        return ("const", v ^ 1 if gtype is GateType.NOT else v)

    if gtype in _ABSORBING:
        absorb, _ = _ABSORBING[gtype]
        if any(v == absorb for v in const_in):
            return ("const", 1 - absorb if _BASE_IS_INVERTING[gtype] else absorb)

    if gtype in (GateType.XOR, GateType.XNOR):
        parity = 1 if gtype is GateType.XNOR else 0
        rest = []
        for sig, v in zip(fanins, const_in):
            if v is None:
                rest.append(sig)
            else:
                parity ^= v
        if not rest:
            return ("const", parity)
        if len(rest) == 1:
            return ("gate", GateType.NOT if parity else GateType.BUF, tuple(rest))
        gt = GateType.XNOR if parity else GateType.XOR
        if gt is gtype and len(rest) == len(fanins):
            return None
        return ("gate", gt, tuple(rest))

    if gtype in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR):
        identity = _IDENTITY[gtype]
        rest = [s for s, v in zip(fanins, const_in) if v is None]
        if not rest:
            # All-constant, none absorbing: result is the identity value
            # through the gate polarity.
            value = identity ^ (1 if _BASE_IS_INVERTING[gtype] else 0)
            return ("const", value)
        if len(rest) == len(fanins):
            return None
        if len(rest) == 1:
            gt = GateType.NOT if _BASE_IS_INVERTING[gtype] else GateType.BUF
            return ("gate", gt, tuple(rest))
        return ("gate", gtype, tuple(rest))

    return None


def _normalize_pins(circuit, fixed):
    """``fixed`` as input-name -> 0/1; reject pins on non-input signals.

    Pinning a gate-driven signal would fold its fanout as if it were
    constant while the gate itself kept computing its old function, so
    it is refused.  Pins naming absent signals are kept (and are no-ops).
    """
    pins = {}
    for sig, value in fixed.items():
        if sig in circuit and not circuit.gate(sig).is_input:
            raise ValueError(
                f"cannot pin {sig!r}: it is driven by a gate, not a primary input"
            )
        pins[sig] = int(bool(value))
    return pins


def _fold_frontier(circuit, pins):
    """Fold the fanout frontier of the pinned inputs ``pins``.

    The one worklist behind :func:`propagate_constants` and
    :func:`pinned_area`.  Returns ``(overrides, folded)``: the
    replacement gate of every non-input gate the fold changed, and the
    number of gates that became constants or simplified.
    """
    gates = circuit._gates
    fanout = circuit.fanout_map()
    values = dict(pins)
    overrides = {}
    worklist = list(pins)
    folded = 0
    seen_const = set(pins)
    while worklist:
        sig = worklist.pop()
        for succ in fanout.get(sig, ()):
            gate = overrides.get(succ)
            if gate is None:
                gate = gates[succ]
            if gate.is_constant:
                continue
            const_in = []
            for src in gate.fanins:
                value = values.get(src)
                if value is None and src in gates:
                    value = _CONST_VALUE.get(gates[src].gtype)
                const_in.append(value)
            result = _fold(gate.gtype, gate.fanins, const_in)
            if result is None:
                continue
            if result[0] == "const":
                value = result[1]
                overrides[succ] = Gate(
                    succ, GateType.CONST1 if value else GateType.CONST0, ()
                )
                values[succ] = value
                folded += 1
                if succ not in seen_const:
                    seen_const.add(succ)
                    worklist.append(succ)
            else:
                _, gt, fanins = result
                if gt is not gate.gtype or fanins != gate.fanins:
                    folded += 1
                overrides[succ] = Gate(succ, gt, fanins)
    return overrides, folded


def propagate_constants(circuit, fixed, name=None):
    """Pin inputs to constants and fold the consequences.

    Parameters
    ----------
    fixed:
        Mapping input-name -> bool.  Pinned inputs are removed from the
        input list and become constant gates (names preserved).  A name
        absent from the circuit is ignored; a name driven by a gate
        raises ``ValueError``.

    Returns ``(new_circuit, folded_count)`` where ``folded_count`` is the
    number of gates that became constants or simplified.
    """
    fixed = _normalize_pins(circuit, fixed)
    overrides, folded = _fold_frontier(circuit, fixed)
    out = Circuit(name or f"{circuit.name}_cp")
    for sig in circuit.inputs:
        if sig in fixed:
            out._gates[sig] = Gate(
                sig, GateType.CONST1 if fixed[sig] else GateType.CONST0, ()
            )
        else:
            out.add_input(sig)
    for gate in circuit.gates():
        out._gates[gate.name] = overrides.get(gate.name, gate)
    out._invalidate()
    out.set_outputs(list(circuit.outputs))
    return out, folded


def dead_code_eliminate(circuit, keep_inputs=True):
    """Remove gates with no path to any primary output.

    Returns ``(new_circuit, removed_count)``.  Primary inputs are kept by
    default to preserve the interface.
    """
    from ..netlist.cone import transitive_fanin

    live = transitive_fanin(circuit, list(circuit.outputs)) if circuit.outputs else set()
    out = Circuit(circuit.name)
    removed = 0
    for sig in circuit.inputs:
        if keep_inputs or sig in live:
            out.add_input(sig)
    for gate in circuit.gates():
        if gate.name in live:
            out._gates[gate.name] = gate
        else:
            removed += 1
    out._invalidate()
    out.set_outputs(list(circuit.outputs))
    return out, removed


def circuit_area(circuit):
    """SCOPE's area feature: the logic gates of ``circuit``.

    Buffers and constants are free after technology mapping, so they do
    not count.
    """
    return sum(1 for g in circuit.gates() if g.gtype not in _FREE_TYPES)


def pinned_area(circuit, fixed):
    """Area of ``circuit`` with the inputs in ``fixed`` pinned.

    Returns exactly ``circuit_area(dead_code_eliminate(
    propagate_constants(circuit, fixed)[0])[0])`` without building that
    netlist: the fold runs over the pinned inputs' frontier only, the
    changed gates are kept as overrides of ``circuit``'s gates, and
    liveness is a walk from the outputs over the overridden gates that
    counts the live logic gates.
    """
    pins = {s: v for s, v in _normalize_pins(circuit, fixed).items() if s in circuit}
    overrides, _ = _fold_frontier(circuit, pins)
    for sig, value in pins.items():
        overrides[sig] = Gate(sig, GateType.CONST1 if value else GateType.CONST0, ())
    gates = circuit._gates
    live = set()
    area = 0
    stack = list(circuit.outputs)
    while stack:
        sig = stack.pop()
        if sig not in live:
            live.add(sig)
            gate = overrides.get(sig) or gates[sig]
            if gate.gtype not in _FREE_TYPES:
                area += 1
            stack.extend(gate.fanins)
    return area
