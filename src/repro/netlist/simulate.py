"""Bit-parallel simulation helpers.

Signal words pack one bit per input pattern, so a single pass over the
netlist evaluates up to thousands of patterns.  These helpers build the
packed input words for common sweeps (exhaustive, random, explicit pattern
lists) and unpack results.  Everything that touches a circuit routes
through the compiled engine (:meth:`Circuit.compiled`); exhaustive sweeps
run chunked so bigint words stay cache-sized.
"""

from __future__ import annotations

import random

from .engine import MAX_EXHAUSTIVE_INPUTS

__all__ = [
    "exhaustive_patterns",
    "pack_patterns",
    "unpack_word",
    "simulate_patterns",
    "random_patterns",
    "simulate_exhaustive",
    "outputs_differ",
]



def exhaustive_patterns(names):
    """Packed words enumerating all ``2**len(names)`` assignments.

    Pattern ``j`` assigns to ``names[i]`` the ``i``-th bit of ``j``; the
    return value is ``(assignment, mask)`` ready for ``Circuit.evaluate``.
    Comfortable up to ~16 names; hard-capped at
    :data:`MAX_EXHAUSTIVE_INPUTS` (= 24) names, where the packed words
    reach 2 MiB per signal.  Prefer
    :meth:`CompiledCircuit.sweep_exhaustive` for wide sweeps — it chunks
    the pattern space instead of materializing one giant word.
    """
    n = len(names)
    if n > MAX_EXHAUSTIVE_INPUTS:
        raise ValueError(
            f"exhaustive simulation over {n} inputs is impractical "
            f"(cap: {MAX_EXHAUSTIVE_INPUTS})"
        )
    width = 1 << n
    mask = (1 << width) - 1
    assignment = {}
    for i, name in enumerate(names):
        period = 1 << i
        block = (1 << period) - 1
        word = 0
        for start in range(period, width, 2 * period):
            word |= block << start
        assignment[name] = word & mask
    return assignment, mask


def pack_patterns(names, patterns):
    """Pack an explicit list of assignments into bit-parallel words.

    ``patterns`` is a sequence of dicts (or of tuples aligned with
    ``names``) giving scalar 0/1 values.  Returns ``(assignment, mask)``.
    Raises ``ValueError`` on an empty pattern list — a zero-width word
    has an all-zero mask that silently turns every downstream evaluation
    into garbage.
    """
    width = len(patterns)
    if width == 0:
        raise ValueError(
            "pack_patterns needs at least one pattern (a zero-width "
            "simulation word would mask every signal to 0)"
        )
    mask = (1 << width) - 1
    words = {name: 0 for name in names}
    for j, pattern in enumerate(patterns):
        if isinstance(pattern, dict):
            for name in names:
                if pattern[name]:
                    words[name] |= 1 << j
        else:
            for name, bit in zip(names, pattern):
                if bit:
                    words[name] |= 1 << j
    return words, mask


def unpack_word(word, width):
    """Expand a packed word into a list of ``width`` scalar bits."""
    return [(word >> j) & 1 for j in range(width)]


def random_patterns(names, count, rng=None):
    """Packed words of ``count`` uniformly random assignments."""
    rng = rng or random.Random(0)
    mask = (1 << count) - 1
    return {name: rng.getrandbits(count) & mask for name in names}, mask


def simulate_patterns(circuit, patterns, defaults=None):
    """Simulate an explicit pattern list; returns list of output dicts.

    ``patterns`` may assign only a subset of inputs; remaining inputs take
    values from ``defaults`` (scalar per input, default 0).
    """
    if not patterns:
        return []
    names = list(circuit.inputs)
    width = len(patterns)
    defaults = defaults or {}
    filled = []
    for pattern in patterns:
        full = {name: defaults.get(name, 0) for name in names}
        full.update(pattern)
        filled.append(full)
    words, mask = pack_patterns(names, filled)
    engine = circuit.compiled()
    out_words = engine.output_words(words, mask)
    outputs = engine.output_names
    return [
        {o: (word >> j) & 1 for o, word in zip(outputs, out_words)}
        for j in range(width)
    ]


def simulate_exhaustive(circuit, chunk_bits=None):
    """Truth table of the circuit: list of output tuples, input-index order.

    Entry ``j`` is the output tuple when input ``i`` carries bit ``i`` of
    ``j`` (inputs in declaration order).  Only for small input counts.
    The sweep runs through the compiled engine in ``2**chunk_bits``-
    pattern chunks (default:
    :data:`~repro.netlist.engine.DEFAULT_CHUNK_BITS`), so wide sweeps
    never materialize a ``2**n``-bit word.
    """
    n = len(circuit.inputs)
    # Checked before the 2**n-entry table allocation below — the engine's
    # own cap inside sweep_exhaustive would fire too late.
    if n > MAX_EXHAUSTIVE_INPUTS:
        raise ValueError(
            f"exhaustive simulation over {n} inputs is impractical "
            f"(cap: {MAX_EXHAUSTIVE_INPUTS})"
        )
    engine = circuit.compiled()
    table = [None] * (1 << n)
    for offset, width, _mask, out_words in engine.sweep_exhaustive(
        chunk_bits=chunk_bits
    ):
        for j in range(width):
            table[offset + j] = tuple((w >> j) & 1 for w in out_words)
    return table


def outputs_differ(circ_a, circ_b, count=256, rng=None):
    """Random-simulation check that two same-interface circuits differ.

    Returns a witness input assignment (scalar dict) where some output
    differs, or ``None`` if no difference was observed in ``count``
    patterns.  A ``None`` is *not* a proof of equivalence.
    """
    if set(circ_a.inputs) != set(circ_b.inputs):
        raise ValueError("circuits have different input interfaces")
    if tuple(circ_a.outputs) != tuple(circ_b.outputs):
        raise ValueError("circuits have different output interfaces")
    rng = rng or random.Random(1234)
    words, mask = random_patterns(list(circ_a.inputs), count, rng)
    outs_a = circ_a.evaluate(words, mask, outputs_only=True)
    outs_b = circ_b.evaluate(words, mask, outputs_only=True)
    for name in circ_a.outputs:
        diff = outs_a[name] ^ outs_b[name]
        if diff:
            j = (diff & -diff).bit_length() - 1
            return {inp: (words[inp] >> j) & 1 for inp in circ_a.inputs}
    return None
