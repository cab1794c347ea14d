"""The :class:`Circuit` container: a combinational gate-level netlist.

A circuit is a DAG of :class:`~repro.netlist.gate.Gate` objects keyed by
signal name, plus ordered primary-input and primary-output name lists.
Mutation happens through the ``add_*`` / ``replace_gate`` / ``remove_gate``
methods, which keep the derived indices (topological order, fanout map)
lazily invalidated.

The class is deliberately free of any locking- or attack-specific logic:
it is the substrate every other subsystem builds on.
"""

from __future__ import annotations

from collections import deque

from .errors import CircuitStructureError, EvaluationError
from .gate import Gate, GateType, eval_gate

__all__ = ["Circuit"]


class Circuit:
    """A combinational netlist with named signals.

    Parameters
    ----------
    name:
        Human-readable circuit name (appears in ``.bench`` headers).
    """

    def __init__(self, name="circuit"):
        self.name = name
        self._gates = {}
        self._inputs = []
        self._outputs = []
        self._topo_cache = None
        self._fanout_cache = None
        self._compiled_cache = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name):
        """Declare a primary input signal and return its name."""
        if name in self._gates:
            raise CircuitStructureError(f"signal {name!r} already defined")
        self._gates[name] = Gate(name, GateType.INPUT, ())
        self._inputs.append(name)
        self._invalidate()
        return name

    def add_gate(self, name, gtype, fanins=()):
        """Add a gate driving signal ``name`` and return the name.

        ``gtype`` may be a :class:`GateType` or its string value.  Fan-in
        signals do not need to exist yet; :meth:`validate` checks them.
        """
        if isinstance(gtype, str):
            gtype = GateType.from_string(gtype)
        if name in self._gates:
            raise CircuitStructureError(f"signal {name!r} already defined")
        self._gates[name] = Gate(name, gtype, tuple(fanins))
        self._invalidate()
        return name

    def add_output(self, name):
        """Mark an existing (or future) signal as a primary output."""
        self._outputs.append(name)
        # Topological order and fanout are output-independent, but the
        # compiled engine snapshots the output list at build time.
        self._invalidate_outputs()
        return name

    def set_outputs(self, names):
        """Replace the primary output list."""
        self._outputs = list(names)
        self._invalidate_outputs()

    def replace_gate(self, name, gtype, fanins):
        """Re-define the function of an existing non-input signal."""
        old = self._gates.get(name)
        if old is None:
            raise CircuitStructureError(f"signal {name!r} not defined")
        if old.is_input:
            raise CircuitStructureError(f"cannot replace primary input {name!r}")
        if isinstance(gtype, str):
            gtype = GateType.from_string(gtype)
        self._gates[name] = Gate(name, gtype, tuple(fanins))
        self._invalidate()

    def remove_gate(self, name):
        """Delete a gate (or input) definition.  Fanout is not patched."""
        if name not in self._gates:
            raise CircuitStructureError(f"signal {name!r} not defined")
        gate = self._gates.pop(name)
        if gate.is_input:
            self._inputs.remove(name)
        self._invalidate()

    def remove_output(self, name):
        """Remove one occurrence of ``name`` from the output list."""
        self._outputs.remove(name)
        self._invalidate_outputs()

    def _invalidate(self):
        self._topo_cache = None
        self._fanout_cache = None
        self._invalidate_outputs()

    def _invalidate_outputs(self):
        """Invalidate state that depends on the output list (a subset of
        full structural invalidation: topo/fanout survive)."""
        self._compiled_cache = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def inputs(self):
        """Ordered tuple of primary input names."""
        return tuple(self._inputs)

    @property
    def outputs(self):
        """Ordered tuple of primary output names."""
        return tuple(self._outputs)

    @property
    def signals(self):
        """View of every defined signal name (inputs and gates)."""
        return self._gates.keys()

    def gate(self, name):
        """Return the :class:`Gate` driving ``name``; KeyError if undefined."""
        return self._gates[name]

    def has_signal(self, name):
        return name in self._gates

    def gates(self):
        """Iterate over all non-input gates (no particular order)."""
        return (g for g in self._gates.values() if not g.is_input)

    @property
    def num_gates(self):
        """Number of logic gates (primary inputs excluded)."""
        return len(self._gates) - len(self._inputs)

    @property
    def num_signals(self):
        return len(self._gates)

    def __contains__(self, name):
        return name in self._gates

    def __repr__(self):
        return (
            f"Circuit({self.name!r}, inputs={len(self._inputs)}, "
            f"outputs={len(self._outputs)}, gates={self.num_gates})"
        )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def fanout_map(self):
        """Map from signal name to the tuple of gate names it feeds."""
        if self._fanout_cache is None:
            fanout = {name: [] for name in self._gates}
            for gate in self._gates.values():
                for src in gate.fanins:
                    if src in fanout:
                        fanout[src].append(gate.name)
            self._fanout_cache = {k: tuple(v) for k, v in fanout.items()}
        return self._fanout_cache

    def topological_order(self):
        """Return all signal names in topological (fanin-before-use) order.

        Raises :class:`CircuitStructureError` on combinational cycles or
        references to undefined signals.
        """
        if self._topo_cache is not None:
            return self._topo_cache

        indeg = {}
        for gate in self._gates.values():
            n = 0
            for src in gate.fanins:
                if src not in self._gates:
                    raise CircuitStructureError(
                        f"gate {gate.name!r} references undefined signal {src!r}"
                    )
                n += 1
            indeg[gate.name] = n

        # ConeEncoder (sat/tseitin.py) repeats this FIFO order.
        fanout = self.fanout_map()
        ready = deque(name for name, n in indeg.items() if n == 0)
        order = []
        while ready:
            name = ready.popleft()
            order.append(name)
            for succ in fanout[name]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._gates):
            cyclic = sorted(n for n, d in indeg.items() if d > 0)
            raise CircuitStructureError(
                f"combinational cycle involving signals: {cyclic[:10]}"
            )
        self._topo_cache = order
        return order

    def validate(self):
        """Check structural invariants; raise on violation, return self."""
        self.topological_order()
        for out in self._outputs:
            if out not in self._gates:
                raise CircuitStructureError(f"output {out!r} is not a defined signal")
        return self

    def depth(self):
        """Logic depth: longest input-to-output path length in gates."""
        level = self.levels()
        if not self._outputs:
            return max(level.values(), default=0)
        return max(level.get(o, 0) for o in self._outputs)

    def levels(self):
        """Map each signal to its logic level (inputs/constants are 0)."""
        level = {}
        for name in self.topological_order():
            gate = self._gates[name]
            level[name] = 0 if not gate.fanins else 1 + max(level[s] for s in gate.fanins)
        return level

    def gate_type_histogram(self):
        """Count gates per :class:`GateType` (inputs excluded)."""
        hist = {}
        for gate in self.gates():
            hist[gate.gtype] = hist.get(gate.gtype, 0) + 1
        return hist

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def compiled(self):
        """The cached :class:`~repro.netlist.engine.CompiledCircuit`.

        Built on first use and invalidated by every structural mutation,
        so a mutated circuit gets fresh instructions and a fresh
        input-slot map.  This is the fast path behind :meth:`evaluate`
        and the entry point for the batch/sweep interfaces hot callers
        use directly.
        """
        if self._compiled_cache is None:
            from .engine import CompiledCircuit

            self._compiled_cache = CompiledCircuit(self)
        return self._compiled_cache

    def evaluate(self, assignment, mask=1, outputs_only=False):
        """Bit-parallel evaluation (compiled-engine fast path).

        Parameters
        ----------
        assignment:
            Mapping from (at least) every primary input name to an int word.
            Bit ``j`` of each word is the value under pattern ``j``.
        mask:
            All-ones word of the simulation width (``(1 << n) - 1``).
        outputs_only:
            If true, return only the primary-output values.

        Returns
        -------
        dict mapping signal name to value word.
        """
        return self.compiled().evaluate(assignment, mask, outputs_only)

    def evaluate_interpreted(self, assignment, mask=1, outputs_only=False):
        """Reference dict-keyed interpreter (pre-engine semantics).

        Kept as the baseline the compiled engine is benchmarked and
        regression-tested against; same contract as :meth:`evaluate`.
        """
        values = {}
        for name in self._inputs:
            try:
                values[name] = assignment[name] & mask
            except KeyError:
                raise EvaluationError(f"no value supplied for input {name!r}") from None
        gates = self._gates
        for name in self.topological_order():
            gate = gates[name]
            if gate.is_input:
                continue
            if gate.gtype is GateType.CONST0:
                values[name] = 0
            elif gate.gtype is GateType.CONST1:
                values[name] = mask
            else:
                values[name] = eval_gate(
                    gate.gtype, [values[s] for s in gate.fanins], mask
                )
        if outputs_only:
            return {o: values[o] for o in self._outputs}
        return values

    def output_vector(self, assignment, mask=1):
        """Evaluate and return output values as a tuple in output order."""
        values = self.evaluate(assignment, mask, outputs_only=True)
        return tuple(values[o] for o in self._outputs)

    # ------------------------------------------------------------------
    # copies and renaming
    # ------------------------------------------------------------------
    def copy(self, name=None):
        """Deep-enough copy (gates are immutable; containers are fresh)."""
        dup = Circuit(name or self.name)
        dup._gates = dict(self._gates)
        dup._inputs = list(self._inputs)
        dup._outputs = list(self._outputs)
        return dup

    def renamed(self, rename, name=None):
        """Return a copy with signals renamed through the ``rename`` map.

        Signals absent from the map keep their names.  Useful for building
        miters and multi-copy constructions without collisions.
        """
        dup = Circuit(name or self.name)
        for sig in self._inputs:
            dup.add_input(rename.get(sig, sig))
        for gate in self._gates.values():
            if gate.is_input:
                continue
            dup._gates[rename.get(gate.name, gate.name)] = Gate(
                rename.get(gate.name, gate.name),
                gate.gtype,
                tuple(rename.get(s, s) for s in gate.fanins),
            )
        dup._outputs = [rename.get(o, o) for o in self._outputs]
        dup._invalidate()
        return dup

    def with_prefix(self, prefix, keep=()):
        """Return a copy with every signal prefixed, except those in ``keep``."""
        keep = set(keep)
        rename = {s: prefix + s for s in self._gates if s not in keep}
        return self.renamed(rename, name=prefix + self.name)
