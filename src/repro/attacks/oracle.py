"""The oracle: a functional IC the adversary can query.

Under the oracle-guided (OG) threat model the attacker owns an unlocked
chip bought on the open market: inputs can be applied and outputs
observed, but nothing internal is visible.  :class:`Oracle` enforces that
discipline — attack code receives only this object, never the original
netlist — and counts queries so experiments can report query budgets.
"""

from __future__ import annotations

__all__ = ["Oracle"]


class Oracle:
    """Query interface over the original circuit.

    Parameters
    ----------
    circuit:
        The original (unlocked) netlist.  Held privately.
    """

    def __init__(self, circuit):
        self._circuit = circuit
        self.query_count = 0

    @property
    def input_names(self):
        """Input pins of the functional IC (no key inputs, of course)."""
        return self._circuit.inputs

    @property
    def output_names(self):
        return self._circuit.outputs

    def query(self, assignment, defaults=0):
        """Apply one input pattern; returns dict output -> 0/1.

        ``assignment`` may be partial; unassigned pins take ``defaults``
        (KRATT drives non-protected inputs to logic 0, matching the
        paper's exhaustive-search step).
        """
        engine = self._circuit.compiled()
        slot = engine.input_slot
        base = 1 if defaults else 0
        words = [base] * len(slot)
        for name, value in assignment.items():
            i = slot.get(name)
            if i is not None:
                words[i] = int(bool(value))
        self.query_count += 1
        out_words = engine.output_words_from_list(words, 1)
        return {
            name: word & 1 for name, word in zip(engine.output_names, out_words)
        }

    def query_batch(self, patterns, defaults=0, words=False):
        """Apply many patterns in one bit-parallel pass.

        ``patterns`` is a sequence of (possibly partial) assignments;
        returns a list of output dicts, one per pattern — or, with
        ``words``, one dict of output name -> word whose bit ``j`` is
        that output under ``patterns[j]``.  Counts as ``len(patterns)``
        queries.
        """
        if not patterns:
            return {} if words else []
        engine = self._circuit.compiled()
        in_words, mask = engine.pack_input_words(patterns, default=defaults)
        self.query_count += len(patterns)
        out_words = engine.output_words_from_list(in_words, mask)
        outputs = engine.output_names
        if words:
            return dict(zip(outputs, out_words))
        return [
            {o: (word >> j) & 1 for o, word in zip(outputs, out_words)}
            for j in range(len(patterns))
        ]

    def reset_count(self):
        self.query_count = 0

    def __repr__(self):
        return f"Oracle(inputs={len(self.input_names)}, queries={self.query_count})"
