"""The oracle-guided SAT attack (Subramanyan, Ray, Malik — HOST 2015).

Paper reference [3]: the milestone attack that broke every pre-2015
locking scheme.  It repeatedly finds distinguishing input patterns
(DIPs), queries the oracle, and constrains the key space until no DIP
remains; any surviving key is then functionally correct.

Against the SAT-resilient schemes KRATT targets, every DIP eliminates a
constant number of keys, so the loop needs exponentially many iterations
— the attack times out (the ``OoT`` entries of Table III).

The attack is :func:`repro.attacks.dip.dip_loop` with one DIP per round
over a :class:`~repro.attacks.dip.DipEngine`: one persistent solver
carries the growing miter across iterations; DIP constraints land as
permanent clauses and the find-DIP / termination / key-extraction
queries are assumption probes against that instance.
"""

from __future__ import annotations

from ..budget import Deadline
from .dip import DipEngine, dip_loop

__all__ = ["sat_attack"]


def sat_attack(
    circuit,
    key_inputs,
    oracle,
    time_limit=60.0,
    max_iterations=None,
    technique="?",
    canonical=False,
    record_dips=False,
):
    """Run the SAT attack.

    Parameters
    ----------
    circuit:
        Locked netlist (with key inputs).
    key_inputs:
        Key-input names.
    oracle:
        :class:`~repro.attacks.oracle.Oracle` over the functional IC.
    time_limit:
        Wall-clock budget — float seconds or a shared
        :class:`repro.budget.Deadline`; exceeding it reports a time-out,
        reproducing the paper's OoT entries at laptop scale.  The same
        deadline bounds every solver call, so ``timed_out`` and
        ``elapsed`` come from one clock.
    max_iterations:
        Stop with a time-out after this many DIPs.
    canonical:
        Extract lexicographically-smallest DIPs and key via assumption
        probes — solver-state-independent answers, so the persistent
        engine and the from-scratch reference are comparable
        bit-for-bit (used by the differential suite; costs one probe
        per input bit per iteration).
    record_dips:
        Keep the visited DIP sequence in ``result.details["dips"]`` as
        ``(x_bits, y_bits)`` tuples in ``data_inputs`` / output order.

    Returns an :class:`AttackResult` whose ``iterations`` counts the
    DIPs resolved; ``result.key`` is complete on success.
    """
    deadline = Deadline.of(time_limit)
    started = deadline.now()
    result, _ = dip_loop(
        DipEngine(circuit, key_inputs), oracle, "sat",
        time_limit=deadline, max_rounds=max_iterations, started=started,
        technique=technique, canonical=canonical, record_dips=record_dips,
    )
    return result
