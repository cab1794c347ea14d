"""Cone and reachability analysis over netlists.

KRATT's removal step is built on three structural primitives provided
here:

* **transitive fan-in / fan-out** of a signal set;
* **cone extraction** — carve the fan-in cone of a signal out into a
  standalone :class:`Circuit` whose inputs are the cone's support;
* **cone removal** — the complementary operation producing the paper's
  *unit stripped circuit* (USC), where the removed cone's root becomes a
  fresh primary input and logic shared with the rest of the netlist is
  preserved on both sides.
"""

from __future__ import annotations

from .circuit import Circuit
from .errors import CircuitStructureError

__all__ = [
    "transitive_fanin",
    "transitive_fanout",
    "support",
    "extract_cone",
    "remove_cone",
    "reachable_outputs",
    "cones_with_support_within",
]


def transitive_fanin(circuit, roots, include_roots=True):
    """All signals in the fan-in cone(s) of ``roots`` (inputs included),
    as a ``frozenset``."""
    roots = tuple(roots)
    seen = set()
    stack = list(roots)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        stack.extend(circuit.gate(name).fanins)
    if not include_roots:
        seen -= set(roots)
    return frozenset(seen)


def transitive_fanout(circuit, sources, include_sources=True):
    """All signals reachable from ``sources`` following fanout edges, as a
    ``frozenset``."""
    sources = tuple(sources)
    fanout = circuit.fanout_map()
    seen = set()
    stack = list(sources)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        stack.extend(fanout.get(name, ()))
    if not include_sources:
        seen -= set(sources)
    return frozenset(seen)


def support(circuit, signal):
    """Primary inputs in the transitive fan-in of ``signal``, as a
    ``frozenset``."""
    cone = transitive_fanin(circuit, [signal])
    return frozenset(s for s in cone if circuit.gate(s).is_input)


def extract_cone(circuit, root, name=None, extra_inputs=()):
    """Extract the fan-in cone of ``root`` as a standalone circuit.

    The new circuit's primary inputs are the primary inputs of the parent
    circuit that appear in the cone, plus any cone signals listed in
    ``extra_inputs`` (those are cut: their driving logic is not copied).
    The single output is ``root``.
    """
    if root not in circuit:
        raise CircuitStructureError(f"no signal {root!r} to extract")
    cut = set(extra_inputs)
    cone = Circuit(name or f"{circuit.name}_cone_{root}")

    # ConeEncoder (sat/tseitin.py) repeats this DFS and input order.
    needed = []
    seen = set()
    stack = [root]
    while stack:
        sig = stack.pop()
        if sig in seen:
            continue
        seen.add(sig)
        needed.append(sig)
        if sig in cut:
            continue
        stack.extend(circuit.gate(sig).fanins)

    # Keep parent input ordering stable for reproducibility.
    parent_inputs = [s for s in circuit.inputs if s in seen and s not in cut]
    for sig in parent_inputs:
        cone.add_input(sig)
    for sig in sorted(cut & seen):
        cone.add_input(sig)
    for sig in needed:
        gate = circuit.gate(sig)
        if gate.is_input or sig in cut:
            continue
        cone._gates[sig] = gate
    cone._invalidate()
    cone.set_outputs([root])
    cone.validate()
    return cone


def remove_cone(circuit, root, name=None):
    """Remove the fan-in cone of ``root``; return the stripped circuit.

    This is the paper's USC construction: every gate used *only* by the
    cone disappears, logic shared with the remaining netlist is kept, and
    ``root`` itself becomes a new primary input of the result.  Primary
    inputs that end up unused are retained as inputs (interface-preserving)
    so locked/original interfaces stay comparable.
    """
    if root not in circuit:
        raise CircuitStructureError(f"no signal {root!r} to remove")
    if circuit.gate(root).is_input:
        raise CircuitStructureError(f"cannot remove cone of primary input {root!r}")

    stripped = Circuit(name or f"{circuit.name}_usc")
    for sig in circuit.inputs:
        stripped.add_input(sig)
    stripped.add_input(root)

    # Signals still needed: fan-in cones of all outputs, computed in the
    # graph where `root` is an input (its fanins are severed).
    needed = set()
    stack = [o for o in circuit.outputs]
    while stack:
        sig = stack.pop()
        if sig in needed:
            continue
        needed.add(sig)
        if sig == root:
            continue
        stack.extend(circuit.gate(sig).fanins)

    for sig in needed:
        gate = circuit.gate(sig)
        if gate.is_input or sig == root:
            continue
        stripped._gates[sig] = gate
    stripped._invalidate()
    stripped.set_outputs(list(circuit.outputs))
    stripped.validate()
    return stripped


def reachable_outputs(circuit, source):
    """Primary outputs reachable from ``source`` (in output order)."""
    reach = transitive_fanout(circuit, [source])
    return [o for o in circuit.outputs if o in reach]


def cones_with_support_within(circuit, allowed_inputs, min_support=1,
                              maximal_only=True):
    """Find internal signals whose support is within a set of inputs.

    Used by KRATT's structural analysis: inside the locked subcircuit it
    looks for logic cones fed only by protected primary inputs.  With
    ``maximal_only`` (default) it returns roots all of whose fanouts leave
    the allowed-support region; with ``maximal_only=False`` every interior
    cone qualifies too — the paper's Fig. 5(c) shows such nested cones
    (``lco2`` inside ``lco1``), and interior cones matter when the host
    logic around the perturb unit is itself PPI-supported.

    Parameters
    ----------
    allowed_inputs:
        Set of primary-input names the cone support must stay within.
    min_support:
        Ignore cones touching fewer than this many of the allowed inputs.
    """
    return [root for root, _ in _cones_with_supports(
        circuit, allowed_inputs, min_support, maximal_only)]


def _cones_with_supports(circuit, allowed_inputs, min_support, maximal_only):
    """:func:`cones_with_support_within` as ``(root, support)`` pairs;
    each ``support`` is the root's :func:`support`, computed in the same
    pass."""
    allowed = set(allowed_inputs)
    outputs = set(circuit.outputs)
    order = circuit.topological_order()
    inside = {}
    for name in order:
        gate = circuit.gate(name)
        if gate.is_input:
            inside[name] = name in allowed
        elif gate.is_constant:
            inside[name] = False
        else:
            inside[name] = all(inside[s] for s in gate.fanins)
    # Exact supports only for inside signals (usually a small region).
    supports = {}
    cones = []
    fanout = circuit.fanout_map()
    for name in order:
        if not inside[name]:
            continue
        gate = circuit.gate(name)
        if gate.is_input:
            supports[name] = frozenset([name])
            continue
        acc = set()
        for s in gate.fanins:
            acc |= supports[s]
        supports[name] = frozenset(acc)
        sinks = fanout.get(name, ())
        is_maximal = (not sinks) or any(not inside[t] for t in sinks)
        if name in outputs:
            is_maximal = True
        if (is_maximal or not maximal_only) and len(acc) >= min_support:
            cones.append((name, supports[name]))
    return cones
