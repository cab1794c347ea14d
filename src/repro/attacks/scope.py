"""SCOPE: synthesis-based constant propagation attack (Alaql, Rahman,
Bhunia — TVLSI 2021).

Paper reference [18], the prominent oracle-less baseline KRATT builds on.
For every key input, SCOPE synthesizes the netlist twice — key bit pinned
to 0 and to 1 — and compares synthesis features (area, logic depth, a
switching-activity power proxy).  A significant asymmetry *deciphers* the
bit; symmetric features leave it unresolved.

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

The synthesis step here is constant propagation + dead-code elimination +
a windowed SAT implication sweep, mirroring what a commercial tool's
constant-propagation and redundancy-removal stages do.  Without the
implication sweep (``use_implications=False``) no pinned netlist is
built: :func:`~repro.synth.constprop.pinned_features` computes each
pin's features from the folded fanout region, sharing one compiled
engine per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..budget import Deadline
from ..netlist.cone import transitive_fanout
from ..netlist.engine import CompiledCircuit
from ..synth.constprop import (
    circuit_features,
    dead_code_eliminate,
    pinned_features,
    propagate_constants,
)
from ..synth.sweep import implication_simplify, simulation_observations

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


def _swept_features(
    circuit, key, value, window, max_conflicts, max_checks, power_patterns,
    deadline, region,
):
    """Features of the pinned netlist after the SAT implication sweep."""
    pinned, _ = propagate_constants(circuit, {key: bool(value)})
    pinned, _ = dead_code_eliminate(pinned)
    # The pinned copy is evaluated once or twice (observation screen +
    # power proxy) and discarded: mark it ephemeral so its engine never
    # spends kernel codegen or a native-backend bind on it.
    pinned.mark_ephemeral()
    # Top-down over the affected region: locking-unit merge points sit
    # near the outputs and collapse first.
    ordered = [s for s in pinned.topological_order() if s in region]
    ordered.reverse()
    if ordered:
        observations = simulation_observations(pinned, patterns=96)
        pinned, _ = implication_simplify(
            pinned,
            region=ordered,
            window=window,
            max_conflicts=max_conflicts,
            max_checks=max_checks,
            observations=observations,
            time_limit=deadline,
        )
        pinned.mark_ephemeral()  # simplified copy is throwaway too
    return circuit_features(pinned, power_patterns=power_patterns)


def scope_attack(
    circuit,
    key_inputs,
    rule="preserve",
    area_threshold=1,
    use_implications=True,
    window=700,
    max_conflicts=4000,
    max_checks=24,
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
        smaller differences leave the bit undeciphered.
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
    # The fast path evaluates the unpinned netlist once per pin: one
    # interpreter engine serves the whole sweep and is dropped with it
    # (kernel codegen or a native bind would not pay off over a few
    # hundred evaluations, and caching it on a long-lived netlist would
    # keep it alive after the sweep).
    engine = (
        None if use_implications
        else CompiledCircuit(circuit, codegen=False, native=False)
    )
    for key in key_inputs:
        if not timed_out and deadline.expired():
            timed_out = True
        if timed_out or key not in inputs:
            # Unreached, absent, or gate-driven (pinning a gate's output
            # is not a key-bit pin): undeciphered.
            guesses[key] = None
            continue
        if use_implications:
            region = transitive_fanout(circuit, [key], include_sources=False)
            feats = {
                value: _swept_features(
                    circuit, key, value, window, max_conflicts, max_checks,
                    power_patterns, deadline, region,
                )
                for value in (0, 1)
            }
        else:
            feats = {
                value: pinned_features(
                    circuit, {key: bool(value)}, power_patterns, engine
                )
                for value in (0, 1)
            }
        if deadline.expired():
            # The deadline landed inside this key's 0-vs-1 sweep pair:
            # the two sides got unequal probing effort, so an area
            # comparison would be skewed — leave the bit undeciphered.
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
