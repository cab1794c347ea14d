"""SCOPE: synthesis-based constant propagation attack (Alaql, Rahman,
Bhunia — TVLSI 2021).

Paper reference [18], the prominent oracle-less baseline KRATT builds on.
For every key input, SCOPE synthesizes the netlist twice — key bit pinned
to 0 and to 1 — and compares the two results.  The decision rests on the
area delta alone: a difference of at least ``area_threshold`` gates
*deciphers* the bit, a smaller one leaves it unresolved.  Logic depth and
a switching-activity power proxy are computed too, but they only land in
:attr:`ScopeResult.features` for inspection; they never move a guess.

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
pinned netlist is built: :func:`~repro.synth.constprop.pinned_features`
computes each pin's features from the folded fanout region, sharing one
compiled engine per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..budget import Deadline
from ..netlist.engine import CompiledCircuit
from ..synth.constprop import pinned_features

__all__ = ["ScopeResult", "scope_attack"]


@dataclass
class ScopeResult:
    """Per-key guesses plus the features that drove each decision.

    ``timed_out`` marks a run whose deadline expired mid-sweep: the keys
    not reached by then are reported undeciphered (``None``), never
    guessed from partial features.
    """

    guesses: dict
    features: dict = field(default_factory=dict)
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


def scope_attack(
    circuit,
    key_inputs,
    rule="preserve",
    area_threshold=1,
    power_patterns=32,
    time_limit=None,
):
    """Run SCOPE over a locked netlist (or extracted unit).

    Parameters
    ----------
    circuit:
        Netlist to analyze; key inputs must be primary inputs of it.
    key_inputs:
        Names of the key inputs to decipher.
    rule:
        ``"preserve"`` or ``"collapse"`` — see module docstring.
    area_threshold:
        Minimum area asymmetry (in gates) required to commit to a guess;
        smaller differences leave the bit undeciphered.  Area is the only
        feature the decision reads.
    power_patterns:
        Random patterns behind the power proxy recorded in
        :attr:`ScopeResult.features`; it does not affect the guesses.
    time_limit:
        Wall-clock budget (float seconds or a shared
        :class:`repro.budget.Deadline`).  The per-key sweep stops once it
        expires; unreached keys stay undeciphered and ``timed_out`` is
        set on the result.

    Returns a :class:`ScopeResult`; undeciphered bits map to ``None``.
    """
    if rule not in ("preserve", "collapse"):
        raise ValueError(f"unknown SCOPE rule {rule!r}")
    deadline = Deadline.of(time_limit)
    start = deadline.now()
    guesses = {}
    features = {}
    timed_out = False
    inputs = set(circuit.inputs)
    # Each pin evaluates the unpinned netlist once: one interpreter
    # engine serves the whole sweep and is dropped with it (kernel
    # codegen or a native bind would not pay off over a few hundred
    # evaluations, and caching it on a long-lived netlist would keep it
    # alive after the sweep).
    engine = CompiledCircuit(circuit, codegen=False, native=False)
    for key in key_inputs:
        if not timed_out and deadline.expired():
            timed_out = True
        if timed_out or key not in inputs:
            # Unreached, absent, or gate-driven (pinning a gate's output
            # is not a key-bit pin): undeciphered.
            guesses[key] = None
            continue
        feats = {
            value: pinned_features(
                circuit, {key: bool(value)}, power_patterns, engine
            )
            for value in (0, 1)
        }
        if deadline.expired():
            # The deadline landed inside this key's 0-vs-1 pair: count
            # the key as unreached, like every key after it, so no guess
            # rests on work done past the budget.
            timed_out = True
            guesses[key] = None
            continue
        features[key] = feats
        area_delta = feats[0].area - feats[1].area
        if abs(area_delta) < area_threshold:
            guesses[key] = None
            continue
        smaller = 0 if feats[0].area < feats[1].area else 1
        if rule == "preserve":
            guesses[key] = bool(1 - smaller)
        else:
            guesses[key] = bool(smaller)
    return ScopeResult(
        guesses=guesses,
        features=features,
        elapsed=deadline.now() - start,
        rule=rule,
        timed_out=timed_out,
    )
