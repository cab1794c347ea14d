"""KRATT step 1: logic removal — locate and extract the locking/restore unit.

Following Section III-A of the paper:

1. The *critical signal* ``cs1`` is the output of the first gate in the
   paths from key inputs to primary outputs through which **all** key
   inputs pass.  With a virtual source feeding every key input and a
   virtual sink fed by every primary output, that is a dominator of the
   sink: the one nearest the source that every key input reaches.  One
   dominator pass over the topological order finds it.
2. The fan-in cone of ``cs1`` is the locking/restore *unit*; removing it
   and promoting ``cs1`` to a primary input yields the *unit stripped
   circuit* (USC).  Logic shared between the two is duplicated, exactly
   as the paper prescribes.
3. Each protected primary input is paired with its associated key
   input(s) by walking the unit's gates (two keys per PPI in the
   Anti-SAT family, one per stored cube in SFLL-Flex, one otherwise).
   The keys that belong together -- one cube's comparator -- are grouped
   into *cube columns* by their shared key support.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...netlist.cone import extract_cone, remove_cone
from ...netlist.gate import GateType
from ...netlist.simulate import random_patterns

__all__ = [
    "UnitExtraction",
    "find_critical_signal",
    "extract_unit",
    "associate_ppi_keys",
    "cube_columns",
    "unit_off_value",
]


@dataclass
class UnitExtraction:
    """Everything the removal step produces.

    Attributes
    ----------
    critical_signal: name of ``cs1``.
    unit: the locking/restore unit as a standalone circuit
        (inputs: PPIs + key inputs; single output ``cs1``).
    usc: the unit stripped circuit (``cs1`` promoted to an input).
    protected_inputs: PPI names (unit inputs that are not keys).
    key_inputs: key inputs found in the unit.
    key_of_ppi: association map ppi -> tuple of key inputs.
    """

    critical_signal: str
    unit: object
    usc: object
    protected_inputs: tuple
    key_inputs: tuple
    key_of_ppi: dict = field(default_factory=dict)

    @property
    def keys_per_ppi(self):
        """Median number of keys associated per PPI (2 in the Anti-SAT
        family, one per stored cube in SFLL-Flex, 1 otherwise)."""
        counts = sorted(len(v) for v in self.key_of_ppi.values())
        return counts[len(counts) // 2] if counts else 0


def find_critical_signal(circuit, key_inputs):
    """Locate ``cs1``: the earliest gate all key inputs pass through.

    Add a virtual source feeding every key input and a virtual sink fed
    by every primary output.  ``cs1`` is the dominator of the sink (on
    paths from the source) nearest the source that is not a key input and
    that every key input reaches.  Immediate dominators come from one
    pass over the topological order, intersecting predecessors by
    dominator-tree depth (Cooper, Harvey and Kennedy); on a DAG every
    predecessor is final when its successor is visited, so one pass
    suffices.

    Returns the signal name, or ``None`` when no key input reaches a
    primary output or no single gate channels all keys (not a
    single-unit locked netlist).
    """
    bit = {}
    for key in key_inputs:
        if key in circuit and key not in bit:
            bit[key] = 1 << len(bit)
    if not bit:
        return None
    everyone = (1 << len(bit)) - 1

    # Only signals the source reaches get entries; the source is ``None``.
    idom, depth, mask = {None: None}, {None: 0}, {}

    def intersect(a, b):
        while a != b:
            while depth[a] > depth[b]:
                a = idom[a]
            while depth[b] > depth[a]:
                b = idom[b]
            if a != b:
                a, b = idom[a], idom[b]
        return a

    def dominator_of(preds):
        dom = preds[0]
        for p in preds[1:]:
            dom = intersect(dom, p)
        return dom

    for name in circuit.topological_order():
        if name in bit:
            idom[name], depth[name], mask[name] = None, 1, bit[name]
            continue
        preds = [s for s in circuit.gate(name).fanins if s in mask]
        if not preds:
            continue
        dom = dominator_of(preds)
        idom[name], depth[name] = dom, depth[dom] + 1
        reached = 0
        for p in preds:
            reached |= mask[p]
        mask[name] = reached

    sinks = [o for o in circuit.outputs if o in mask]
    if not sinks:
        return None
    chain = []
    dom = dominator_of(sinks)
    while dom is not None:
        chain.append(dom)
        dom = idom[dom]
    for dom in reversed(chain):
        if dom not in bit and mask[dom] == everyone:
            return dom
    return None


def extract_unit(circuit, key_inputs, critical_signal=None):
    """Run the full removal step; returns a :class:`UnitExtraction`.

    Raises ``ValueError`` when no critical signal can be identified.
    """
    cs1 = critical_signal or find_critical_signal(circuit, key_inputs)
    if cs1 is None:
        raise ValueError("no critical signal: not a single-unit locked netlist")
    unit = extract_cone(circuit, cs1, name=f"{circuit.name}_unit")
    usc = remove_cone(circuit, cs1)
    key_set = set(key_inputs)
    unit_keys = tuple(s for s in unit.inputs if s in key_set)
    ppis = tuple(s for s in unit.inputs if s not in key_set)
    association = associate_ppi_keys(unit, ppis, unit_keys)
    return UnitExtraction(
        critical_signal=cs1,
        unit=unit,
        usc=usc,
        protected_inputs=ppis,
        key_inputs=unit_keys,
        key_of_ppi=association,
    )


def _resolve_source(circuit, signal, sources, limit=8):
    """Follow NOT/BUF chains from ``signal`` down to a source in ``sources``."""
    current = signal
    for _ in range(limit):
        if current in sources:
            return current
        gate = circuit.gate(current)
        if gate.gtype in (GateType.NOT, GateType.BUF) and gate.fanins:
            current = gate.fanins[0]
            continue
        return None
    return None


def associate_ppi_keys(unit, ppis, keys):
    """Pair each protected primary input with its associated key input(s).

    Implements the paper's rule — "for each protected primary input, find
    a logic gate whose inputs are ``ppi_j``, its associated key input, or
    their complements" — robustly against resynthesis by resolving each
    gate fanin through inverter/buffer chains and voting over all gates
    that mix exactly one PPI with one key.  Every voted key is kept, most
    votes first (ties by name), so each stored cube of an SFLL-Flex unit
    contributes its key.
    """
    ppi_set = set(ppis)
    key_set = set(keys)
    votes = {ppi: {} for ppi in ppis}
    for gate in unit.gates():
        if len(gate.fanins) != 2:
            continue
        a = _resolve_source(unit, gate.fanins[0], ppi_set | key_set)
        b = _resolve_source(unit, gate.fanins[1], ppi_set | key_set)
        if a is None or b is None:
            continue
        pair = None
        if a in ppi_set and b in key_set:
            pair = (a, b)
        elif b in ppi_set and a in key_set:
            pair = (b, a)
        if pair is None:
            continue
        ppi, key = pair
        votes[ppi][key] = votes[ppi].get(key, 0) + 1

    association = {}
    claimed = set()
    for ppi in ppis:
        ranked = sorted(votes[ppi].items(), key=lambda kv: (-kv[1], kv[0]))
        chosen = tuple(k for k, _ in ranked)
        association[ppi] = chosen
        claimed.update(chosen)

    # Keys never claimed: pair them round-robin so downstream steps always
    # have a total map (accuracy of extras only affects guess ordering).
    unclaimed = [k for k in keys if k not in claimed]
    if unclaimed and ppis:
        for i, key in enumerate(unclaimed):
            ppi = ppis[i % len(ppis)]
            association[ppi] = tuple(association[ppi]) + (key,)
    return association


def cube_columns(unit, key_of_ppi):
    """Group each PPI's associated keys into cube columns.

    A column is a PPI -> key map that takes every key from one cube's
    comparator.  One topological pass gives every gate its key support as
    a bitmask.  A gate whose support holds at most one of each PPI's keys
    lies inside one comparator, so its keys are unioned; each resulting
    component is one column, mapping each PPI to its first associated key
    in the component (PPIs with none are left out).  Components merge
    only where a gate ties them, so the cube-combining OR tree, whose
    support holds every cube, joins nothing.

    Returns the columns ordered by their earliest key in ``key_of_ppi``
    order.  A unit with one key per PPI yields exactly one column, the
    first-key map.
    """
    index = {}
    for ks in key_of_ppi.values():
        for key in ks:
            index.setdefault(key, len(index))
    ppi_masks = []
    for ks in key_of_ppi.values():
        mask = 0
        for key in ks:
            mask |= 1 << index[key]
        if mask & (mask - 1):
            ppi_masks.append(mask)

    parent = list(range(len(index)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    support = {}
    for name in unit.topological_order():
        if name in index:
            support[name] = 1 << index[name]
            continue
        mask = 0
        for s in unit.gate(name).fanins:
            mask |= support.get(s, 0)
        if not mask:
            continue
        support[name] = mask
        if any(m & mask & ((m & mask) - 1) for m in ppi_masks):
            continue  # two keys of one PPI: the gate spans two cubes
        low = mask & -mask
        root = find(low.bit_length() - 1)
        mask ^= low
        while mask:
            low = mask & -mask
            parent[find(low.bit_length() - 1)] = root
            mask ^= low

    columns = {}
    for ppi, ks in key_of_ppi.items():
        for key in ks:
            column = columns.setdefault(find(index[key]), {})
            column.setdefault(ppi, key)
    return list(columns.values())


def unit_off_value(unit, output=None, patterns=64, rng=None):
    """The unit's resting value: its output on random (PPI, key) inputs.

    Point-function units fire on a vanishing fraction of the input space,
    so the majority value over random patterns identifies the polarity of
    ``cs1`` even after resynthesis inverted it.
    """
    output = output or unit.outputs[0]
    engine = unit.compiled()
    if not unit.inputs:
        # Full-dict evaluation: ``output`` may be an internal signal.
        word = engine.evaluate({}, 1)[output]
        return word & 1
    words, mask = random_patterns(list(unit.inputs), patterns, rng)
    if output in engine.output_names:
        word = engine.output_words(words, mask)[engine.output_names.index(output)]
    else:
        word = engine.evaluate(words, mask)[output]
    ones = bin(word).count("1")
    return 1 if ones * 2 > patterns else 0
