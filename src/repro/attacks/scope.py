"""SCOPE: synthesis-based constant propagation attack (Alaql, Rahman,
Bhunia — TVLSI 2021).

Paper reference [18], the prominent oracle-less baseline KRATT builds on.
For every key input, SCOPE synthesizes the netlist twice — key bit pinned
to 0 and to 1 — and compares the two results.  The decision reads the
area alone: unequal areas *decipher* the bit, equal areas leave it
unresolved.  The two areas land in :attr:`ScopeResult.areas`.

Two decision rules are provided, because the meaning of "more
simplification" depends on what is being analyzed:

* ``rule="preserve"`` (SCOPE standalone, whole locked netlist): guess the
  value that *preserves* more logic.  Rationale: guard/mask logic exists
  to protect the secret; pinning a bit to the wrong value makes that
  logic redundant (e.g. a wrong SARLock key bit lets the comparator imply
  the mask away), so the wrong value synthesizes smaller.
* ``rule="collapse"`` (KRATT's usage on the *modified locking unit*):
  guess the value that simplifies more.  For an extracted unit the
  correct key makes the critical signal constant — maximal constant
  propagation is the signature of correctness (paper Section III-B).

The synthesis step is constant propagation + dead-code elimination.  No
pinned netlist is built and nothing is compiled or simulated:
:func:`~repro.synth.constprop.pinned_area` computes each pin's area from
the folded fanout region and one liveness walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..budget import Deadline
from ..synth.constprop import pinned_area

__all__ = ["ScopeResult", "scope_attack"]


@dataclass
class ScopeResult:
    """Per-key guesses plus the areas that drove each decision.

    ``areas`` maps each decided-on key to ``(area_pinned_0,
    area_pinned_1)``.  ``timed_out`` marks a run whose deadline expired
    mid-sweep: the keys not reached by then are reported undeciphered
    (``None``), never guessed from a partial pair.
    """

    guesses: dict
    areas: dict = field(default_factory=dict)
    elapsed: float = 0.0
    rule: str = "preserve"
    timed_out: bool = False

    @property
    def deciphered(self):
        return {k: v for k, v in self.guesses.items() if v is not None}

    def __repr__(self):
        return (
            f"ScopeResult(deciphered={len(self.deciphered)}/"
            f"{len(self.guesses)}, rule={self.rule!r})"
        )


def scope_attack(circuit, key_inputs, rule="preserve", time_limit=None):
    """Run SCOPE over a locked netlist (or extracted unit).

    Parameters
    ----------
    circuit:
        Netlist to analyze; key inputs must be primary inputs of it.
    key_inputs:
        Names of the key inputs to decipher.
    rule:
        ``"preserve"`` or ``"collapse"`` — see module docstring.
    time_limit:
        Wall-clock budget (float seconds or a shared
        :class:`repro.budget.Deadline`).  The per-key sweep stops once it
        expires; unreached keys stay undeciphered and ``timed_out`` is
        set on the result.

    Each key's guess reads only its two pinned areas: equal areas leave
    the bit undeciphered.  Returns a :class:`ScopeResult`; undeciphered
    bits map to ``None``.
    """
    if rule not in ("preserve", "collapse"):
        raise ValueError(f"unknown SCOPE rule {rule!r}")
    deadline = Deadline.of(time_limit)
    start = deadline.now()
    guesses = {}
    areas = {}
    timed_out = False
    inputs = set(circuit.inputs)
    for key in key_inputs:
        if not timed_out and deadline.expired():
            timed_out = True
        if timed_out or key not in inputs:
            # Unreached, absent, or gate-driven (pinning a gate's output
            # is not a key-bit pin): undeciphered.
            guesses[key] = None
            continue
        pair = tuple(pinned_area(circuit, {key: value}) for value in (False, True))
        if deadline.expired():
            # The deadline landed inside this key's 0-vs-1 pair: count
            # the key as unreached, like every key after it, so no guess
            # rests on work done past the budget.
            timed_out = True
            guesses[key] = None
            continue
        areas[key] = pair
        if pair[0] == pair[1]:
            guesses[key] = None
            continue
        smaller = pair[1] < pair[0]  # the value whose pin shrinks more
        guesses[key] = smaller if rule == "collapse" else not smaller
    return ScopeResult(
        guesses=guesses,
        areas=areas,
        elapsed=deadline.now() - start,
        rule=rule,
        timed_out=timed_out,
    )
