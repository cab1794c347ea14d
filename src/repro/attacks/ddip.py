"""Double DIP (Shen & Zhou, GLSVLSI 2017).

Paper reference [13]: a SAT-attack variant that insists every iteration
eliminate at least *two* wrong keys, by solving for two distinct key
pairs that disagree on the same distinguishing input.  Against one-point
corruption schemes (SARLock et al.) this halves the iteration count —
still exponential, hence the OoT entries of Table III.

The attack is :func:`repro.attacks.dip.dip_loop` with two DIPs per
round, over the same persistent :class:`~repro.attacks.dip.DipEngine`
as :func:`repro.attacks.sat_attack.sat_attack`.
"""

from __future__ import annotations

from ..budget import Deadline
from .dip import DipEngine, dip_loop

__all__ = ["ddip_attack"]


def ddip_attack(
    circuit,
    key_inputs,
    oracle,
    time_limit=60.0,
    max_iterations=None,
    technique="?",
    canonical=False,
    record_dips=False,
):
    """Run the Double-DIP attack.

    Each round finds a DIP, queries the oracle, and then — while the
    budget allows — immediately finds and resolves a *second* DIP before
    the next satisfiability check, eliminating at least two wrong keys
    per round on point-function locks.  ``iterations`` counts the rounds
    started, and ``max_iterations`` caps them.  ``time_limit`` /
    ``canonical`` / ``record_dips`` behave exactly as in
    :func:`~repro.attacks.sat_attack.sat_attack`.
    """
    deadline = Deadline.of(time_limit)
    started = deadline.now()
    result, rounds = dip_loop(
        DipEngine(circuit, key_inputs), oracle, "ddip", dips_per_round=2,
        time_limit=deadline, max_rounds=max_iterations, started=started,
        technique=technique, canonical=canonical, record_dips=record_dips,
    )
    result.iterations = rounds
    return result
