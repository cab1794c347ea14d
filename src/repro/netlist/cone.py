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

Every primitive is **memoized per circuit**: results land in the
circuit's :meth:`~repro.netlist.circuit.Circuit.analysis_cache`, which is
invalidated by the same mutation epoch as the compiled-engine cache, so
re-walking the same netlist — KRATT's removal, extraction and
structural-analysis stages revisiting one locked netlist or USC —
reuses the structural work.  Set-valued results are cached and returned
as ``frozenset`` (callers treat them read-only); circuit-valued results
are cached once and returned as cheap :meth:`Circuit.copy` clones so a
caller mutating its cone can never corrupt the cache.  ``REPRO_CONE_MEMO=0``
in the environment (or :func:`set_cone_memo`) disables the layer, which
is how ``perfbench/run.py --ablate`` measures its end-to-end share.
"""

from __future__ import annotations

import os

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
    "cone_memo_enabled",
    "set_cone_memo",
    "memoize_analysis",
]

#: Per-circuit memo entry cap; one oversized circuit cannot hoard memory.
#: The table is simply dropped when full (entries are cheap to rebuild).
_MEMO_CAP = 4096

_MEMO_ENABLED = os.environ.get("REPRO_CONE_MEMO", "1") != "0"


def cone_memo_enabled():
    """Whether structural memoization is active in this process."""
    return _MEMO_ENABLED


def set_cone_memo(enabled):
    """Enable/disable structural memoization; returns the previous state."""
    global _MEMO_ENABLED
    previous = _MEMO_ENABLED
    _MEMO_ENABLED = bool(enabled)
    return previous


def memoize_analysis(circuit, key, compute):
    """``compute()`` memoized in ``circuit``'s epoch-tied analysis cache.

    The shared entry point for every structural memo in the tree.
    Values must be immutable or copied before hand-out by the caller.
    """
    if not _MEMO_ENABLED:
        return compute()
    cache = circuit.analysis_cache()
    try:
        return cache[key]
    except KeyError:
        pass
    value = compute()
    if len(cache) >= _MEMO_CAP:
        cache.clear()
    cache[key] = value
    return value


def transitive_fanin(circuit, roots, include_roots=True):
    """All signals in the fan-in cone(s) of ``roots`` (inputs included).

    Returns a ``frozenset`` (memoized per circuit; treat as read-only).
    """
    roots = tuple(roots)

    def compute():
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

    key = ("fanin", frozenset(roots), bool(include_roots))
    return memoize_analysis(circuit, key, compute)


def transitive_fanout(circuit, sources, include_sources=True):
    """All signals reachable from ``sources`` following fanout edges.

    Returns a ``frozenset`` (memoized per circuit; treat as read-only).
    """
    sources = tuple(sources)

    def compute():
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

    key = ("fanout", frozenset(sources), bool(include_sources))
    return memoize_analysis(circuit, key, compute)


def support(circuit, signal):
    """Primary inputs in the transitive fan-in of ``signal``.

    Returns a ``frozenset`` (memoized per circuit; treat as read-only).
    """

    def compute():
        cone = transitive_fanin(circuit, [signal])
        return frozenset(s for s in cone if circuit.gate(s).is_input)

    return memoize_analysis(circuit, ("support", signal), compute)


def extract_cone(circuit, root, name=None, extra_inputs=()):
    """Extract the fan-in cone of ``root`` as a standalone circuit.

    The new circuit's primary inputs are the primary inputs of the parent
    circuit that appear in the cone, plus any cone signals listed in
    ``extra_inputs`` (those are cut: their driving logic is not copied).
    The single output is ``root``.  The walk is memoized per circuit;
    each call returns a fresh :meth:`Circuit.copy` of the cached cone.
    """
    key = ("cone", root, frozenset(extra_inputs))
    cached = memoize_analysis(
        circuit, key, lambda: _extract_cone(circuit, root, extra_inputs)
    )
    return cached.copy(name or f"{circuit.name}_cone_{root}")


def _extract_cone(circuit, root, extra_inputs):
    if root not in circuit:
        raise CircuitStructureError(f"no signal {root!r} to extract")
    cut = set(extra_inputs)
    cone = Circuit(f"{circuit.name}_cone_{root}")

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
    so locked/original interfaces stay comparable.  Memoized per circuit
    (``find_critical_signal`` probes many candidate roots and the winning
    USC is re-derived by ``extract_unit``); each call returns a fresh
    :meth:`Circuit.copy` of the cached construction.
    """
    cached = memoize_analysis(
        circuit, ("usc", root), lambda: _remove_cone(circuit, root)
    )
    return cached.copy(name or f"{circuit.name}_usc")


def _remove_cone(circuit, root):
    if root not in circuit:
        raise CircuitStructureError(f"no signal {root!r} to remove")
    if circuit.gate(root).is_input:
        raise CircuitStructureError(f"cannot remove cone of primary input {root!r}")

    stripped = Circuit(f"{circuit.name}_usc")
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

    def compute():
        reach = transitive_fanout(circuit, [source])
        return tuple(o for o in circuit.outputs if o in reach)

    return list(memoize_analysis(circuit, ("reachout", source), compute))


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
    allowed = set(allowed_inputs)
    inside = {}
    for name in circuit.topological_order():
        gate = circuit.gate(name)
        if gate.is_input:
            inside[name] = name in allowed
        elif gate.is_constant:
            inside[name] = False
        else:
            inside[name] = all(inside[s] for s in gate.fanins)
    # Exact supports only for inside signals (usually a small region).
    supports = {}
    roots = []
    fanout = circuit.fanout_map()
    for name in circuit.topological_order():
        if not inside[name]:
            continue
        gate = circuit.gate(name)
        if gate.is_input:
            supports[name] = frozenset([name])
        else:
            acc = set()
            for s in gate.fanins:
                acc |= supports[s]
            supports[name] = frozenset(acc)
        if gate.is_input:
            continue
        sinks = fanout.get(name, ())
        is_maximal = (not sinks) or any(not inside[t] for t in sinks)
        if name in circuit.outputs:
            is_maximal = True
        if (is_maximal or not maximal_only) and len(supports[name]) >= min_support:
            roots.append(name)
    return roots
