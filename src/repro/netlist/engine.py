"""Compiled circuit evaluation engine.

:meth:`Circuit.evaluate` is the hottest loop in the reproduction: SCOPE's
constant sweeps, the CEGAR 2QBF refinement, DIP mining, and the KRATT
exhaustive search all bottom out in it.  The dict-keyed interpreter pays
a per-gate tax — name hashing, ``Gate`` attribute access, enum dispatch,
a ``reduce``/lambda call — that dwarfs the actual bitwise work.

:class:`CompiledCircuit` removes that tax.  On construction it flattens
the netlist into integer-indexed instruction tuples
``(opcode, out_index, fanin_a, fanin_b)`` in topological order, with
specialized opcodes for the 2-input forms of AND/OR/XOR/NAND/NOR/XNOR
and for NOT/BUF/constants.  Evaluation interprets the instructions over
a preallocated value list — no dict, no ``Gate``, no enum in the loop,
and no per-circuit compile step, so a throwaway circuit evaluated once
costs no more than the flattening.

Wide-word sweeps are chunked: a ``2**n`` exhaustive sweep is split into
fixed-width chunks so Python bigints stay cache-sized instead of growing
to ``2**n`` bits.  The chunk width defaults to
:data:`DEFAULT_CHUNK_BITS`.

Instances are cached on the owning :class:`Circuit` via
:meth:`Circuit.compiled` and invalidated together with the topological
order whenever the netlist mutates.
"""

from __future__ import annotations

from .errors import EvaluationError
from .gate import GateType

__all__ = ["CompiledCircuit", "DEFAULT_CHUNK_BITS", "MAX_EXHAUSTIVE_INPUTS"]

# Opcodes: specialized 2-input fast paths first, then unary/constant,
# then the variadic (>=3 fanin) fallbacks.
OP_AND2 = 0
OP_OR2 = 1
OP_XOR2 = 2
OP_NAND2 = 3
OP_NOR2 = 4
OP_XNOR2 = 5
OP_NOT = 6
OP_BUF = 7
OP_CONST0 = 8
OP_CONST1 = 9
OP_ANDN = 10
OP_ORN = 11
OP_XORN = 12
OP_NANDN = 13
OP_NORN = 14
OP_XNORN = 15

_BASE_OP = {
    GateType.AND: (OP_AND2, OP_ANDN),
    GateType.OR: (OP_OR2, OP_ORN),
    GateType.XOR: (OP_XOR2, OP_XORN),
    GateType.NAND: (OP_NAND2, OP_NANDN),
    GateType.NOR: (OP_NOR2, OP_NORN),
    GateType.XNOR: (OP_XNOR2, OP_XNORN),
}

#: Sweep chunk width when ``chunk_bits`` is not given:
#: 2**13 patterns = 1 KiB per signal word.
DEFAULT_CHUNK_BITS = 13

#: Hard cap on exhaustive sweep width: 2**24 patterns is a 2 MiB word
#: per signal — beyond it, bigint arithmetic dominates and exhaustion
#: is the wrong tool anyway.
MAX_EXHAUSTIVE_INPUTS = 24


class CompiledCircuit:
    """A :class:`Circuit` flattened to integer-indexed instructions.

    Parameters
    ----------
    circuit:
        The netlist to compile.  The compiled form snapshots the current
        structure; obtain instances through :meth:`Circuit.compiled` so
        mutation invalidates them automatically.
    """

    def __init__(self, circuit):
        order = circuit.topological_order()
        index = {}
        for i, name in enumerate(order):
            index[name] = i
        self.signal_names = tuple(order)
        self.signal_index = index
        self.input_names = tuple(circuit.inputs)
        self.output_names = tuple(circuit.outputs)
        self.input_indices = tuple(index[s] for s in self.input_names)
        self.output_indices = tuple(index[s] for s in self.output_names)
        #: Input name -> position in :attr:`input_names` (the slot of its
        #: word in :meth:`output_words_from_list`'s input list).
        self.input_slot = {name: i for i, name in enumerate(self.input_names)}

        instructions = []
        for pos, name in enumerate(order):
            gate = circuit.gate(name)
            gtype = gate.gtype
            if gtype is GateType.INPUT:
                continue
            if gtype is GateType.CONST0:
                instructions.append((OP_CONST0, pos, -1, -1))
            elif gtype is GateType.CONST1:
                instructions.append((OP_CONST1, pos, -1, -1))
            elif gtype is GateType.NOT:
                instructions.append((OP_NOT, pos, index[gate.fanins[0]], -1))
            elif gtype is GateType.BUF:
                instructions.append((OP_BUF, pos, index[gate.fanins[0]], -1))
            else:
                op2, opn = _BASE_OP[gtype]
                fanins = gate.fanins
                if len(fanins) == 2:
                    instructions.append(
                        (op2, pos, index[fanins[0]], index[fanins[1]])
                    )
                else:
                    instructions.append(
                        (opn, pos, tuple(index[s] for s in fanins), -1)
                    )
        self.instructions = tuple(instructions)
        self.num_signals = len(order)
        self.num_gates = len(instructions)
        self._template = [0] * self.num_signals
        self._stimulus_cache = {}

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, v, m):
        """Run all instructions over a preallocated value list in place.

        ``v`` must have length :attr:`num_signals` with the input slots
        (see :attr:`input_indices`) already filled; ``m`` is the
        all-ones word of the simulation width.  Returns ``v``.
        """
        for op, out, a, b in self.instructions:
            if op == OP_AND2:
                v[out] = v[a] & v[b]
            elif op == OP_OR2:
                v[out] = v[a] | v[b]
            elif op == OP_XOR2:
                v[out] = v[a] ^ v[b]
            elif op == OP_NAND2:
                v[out] = m ^ (v[a] & v[b])
            elif op == OP_NOR2:
                v[out] = m ^ (v[a] | v[b])
            elif op == OP_XNOR2:
                v[out] = m ^ (v[a] ^ v[b])
            elif op == OP_NOT:
                v[out] = m ^ v[a]
            elif op == OP_BUF:
                v[out] = v[a]
            elif op == OP_CONST0:
                v[out] = 0
            elif op == OP_CONST1:
                v[out] = m
            else:
                acc = v[a[0]]
                if op == OP_ANDN or op == OP_NANDN:
                    for i in a[1:]:
                        acc &= v[i]
                    if op == OP_NANDN:
                        acc ^= m
                elif op == OP_ORN or op == OP_NORN:
                    for i in a[1:]:
                        acc |= v[i]
                    if op == OP_NORN:
                        acc ^= m
                else:
                    for i in a[1:]:
                        acc ^= v[i]
                    if op == OP_XNORN:
                        acc ^= m
                v[out] = acc
        return v

    def ensure_native(self, force=False):
        """No-op: there is no native simulation backend.  Always returns
        ``False``; ``force`` is ignored.  Kept so callers written against
        the old C kernel (``perfbench``'s ``load_native``) still run."""
        return False

    # ------------------------------------------------------------------
    # evaluation interfaces
    # ------------------------------------------------------------------
    def _fill_inputs(self, assignment, mask):
        values = self._template[:]
        for name, pos in zip(self.input_names, self.input_indices):
            try:
                values[pos] = assignment[name] & mask
            except KeyError:
                raise EvaluationError(
                    f"no value supplied for input {name!r}"
                ) from None
        return values

    def evaluate(self, assignment, mask=1, outputs_only=False):
        """Dict-in/dict-out evaluation, same contract as ``Circuit.evaluate``."""
        values = self.run(self._fill_inputs(assignment, mask), mask)
        if outputs_only:
            return {
                name: values[pos]
                for name, pos in zip(self.output_names, self.output_indices)
            }
        return dict(zip(self.signal_names, values))

    def output_words(self, assignment, mask):
        """Output value words as a tuple in output order (no dict churn)."""
        values = self.run(self._fill_inputs(assignment, mask), mask)
        return tuple(values[pos] for pos in self.output_indices)

    def pack_input_words(self, patterns, fixed=None, default=0):
        """Pack per-pattern scalar dicts into ``(input_words, mask)``.

        ``patterns`` is a sequence of dicts mapping input names to 0/1;
        absent names take ``default``.  ``fixed`` pins inputs to one
        scalar across every pattern (constant 0/all-ones words) — the
        shape every batched attack loop needs (candidate keys, driven
        data inputs).  The word list aligns with :attr:`input_names`,
        ready for :meth:`output_words_from_list`.
        """
        width = len(patterns)
        if width == 0:
            raise ValueError("pack_input_words needs at least one pattern")
        mask = (1 << width) - 1
        slot = self.input_slot
        # One pass over the entries the patterns hold, not one lookup
        # per (input, pattern) pair: mark the bits that differ from
        # ``default``.  Sparse patterns pack in O(entries) instead of
        # O(inputs x patterns).
        default = bool(default)
        flips = [0] * len(slot)
        for j, pattern in enumerate(patterns):
            for name, value in pattern.items():
                if (not value) == default:
                    i = slot.get(name)
                    if i is not None:
                        flips[i] |= 1 << j
        words = [mask ^ f for f in flips] if default else flips
        if fixed is not None:
            for name, value in fixed.items():
                i = slot.get(name)
                if i is not None:
                    words[i] = mask if value else 0
        return words, mask

    def output_words_from_list(self, input_words, mask):
        """Like :meth:`output_words` but inputs come as a list aligned
        with :attr:`input_names` — the cheapest batch entry point."""
        values = self._template[:]
        for pos, word in zip(self.input_indices, input_words):
            values[pos] = word & mask
        self.run(values, mask)
        return tuple(values[pos] for pos in self.output_indices)

    # ------------------------------------------------------------------
    # chunked wide-word sweeps
    # ------------------------------------------------------------------
    def _periodic_word(self, bit, width):
        """Word of ``width`` patterns where bit ``bit`` of the pattern
        index selects the value (the exhaustive-sweep input stimulus).

        Built by span doubling (O(log width) bigint ops) and cached:
        chunked sweeps request the same stimulus words every chunk.
        """
        key = (bit, width)
        cached = self._stimulus_cache.get(key)
        if cached is not None:
            return cached
        period = 1 << bit
        word = ((1 << period) - 1) << period
        span = period * 2
        while span < width:
            word |= word << span
            span *= 2
        word &= (1 << width) - 1
        self._stimulus_cache[key] = word
        return word

    def sweep_exhaustive(self, names=None, fixed=None, chunk_bits=None):
        """Exhaustively sweep ``names`` in fixed-width chunks.

        Pattern ``j`` assigns bit ``i`` of ``j`` to ``names[i]`` (the
        :func:`~repro.netlist.simulate.exhaustive_patterns` convention).
        Yields ``(offset, width, mask, out_words)`` per chunk, where
        ``offset`` is the pattern index of the chunk's bit 0 and
        ``out_words`` is a tuple aligned with :attr:`output_names`.

        Splitting the ``2**n`` sweep into ``2**chunk_bits``-pattern
        chunks caps bigint size, so a 20-input sweep works in 1 KiB
        words instead of 128 KiB ones.  ``chunk_bits=None`` (default)
        resolves to :data:`DEFAULT_CHUNK_BITS`; the chunking is pure
        partitioning, so every width yields bit-identical results.

        ``fixed`` supplies scalar 0/1 values for inputs not swept
        (default 0, matching KRATT's drive-to-zero convention).
        """
        names = list(self.input_names if names is None else names)
        n = len(names)
        if n > MAX_EXHAUSTIVE_INPUTS:
            raise ValueError(
                f"exhaustive sweep over {n} inputs is impractical "
                f"(cap: {MAX_EXHAUSTIVE_INPUTS})"
            )
        if chunk_bits is None:
            chunk_bits = DEFAULT_CHUNK_BITS
        chunk_bits = min(chunk_bits, n)
        width = 1 << chunk_bits
        mask = (1 << width) - 1
        fixed = fixed or {}

        input_pos = self.signal_index
        unknown = [s for s in names if s not in self.input_slot]
        if unknown:
            raise EvaluationError(f"unknown sweep inputs: {unknown[:5]}")

        out_indices = self.output_indices
        # Everything constant across chunks — the non-swept input values
        # and the periodic stimulus of the low (intra-chunk) sweep bits —
        # lives in one preset template; each chunk is then a single list
        # copy plus a write per high sweep bit.
        name_set = set(names)
        chunk_template = self._template[:]
        for name, pos in zip(self.input_names, self.input_indices):
            if name not in name_set and fixed.get(name):
                chunk_template[pos] = mask
        for bit, name in enumerate(names[:chunk_bits]):
            chunk_template[input_pos[name]] = self._periodic_word(bit, width)
        high = [
            (input_pos[name], bit) for bit, name in enumerate(names[chunk_bits:])
        ]

        for chunk in range(1 << (n - chunk_bits)):
            values = chunk_template[:]
            for pos, bit in high:
                if (chunk >> bit) & 1:
                    values[pos] = mask
            self.run(values, mask)
            yield (
                chunk << chunk_bits,
                width,
                mask,
                tuple(values[pos] for pos in out_indices),
            )

    def exhaustive_outputs(self, names=None, fixed=None, chunk_bits=None):
        """Full-width exhaustive output words, assembled from chunks.

        Returns ``(out_words, mask)`` with ``out_words`` a dict keyed by
        output name; bit ``j`` of each word is the output under pattern
        ``j``.  Only for small ``len(names)`` — the result words are
        ``2**n`` bits wide by construction.
        """
        names = list(self.input_names if names is None else names)
        total_width = 1 << len(names)
        merged = [0] * len(self.output_names)
        for offset, _width, _mask, out_words in self.sweep_exhaustive(
            names, fixed=fixed, chunk_bits=chunk_bits
        ):
            for i, word in enumerate(out_words):
                merged[i] |= word << offset
        return dict(zip(self.output_names, merged)), (1 << total_width) - 1

    def __repr__(self):
        return (
            f"CompiledCircuit(signals={self.num_signals}, "
            f"gates={self.num_gates})"
        )
