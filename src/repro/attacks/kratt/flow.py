"""The complete KRATT flow (paper Fig. 4).

Oracle-less (OL) entry point — steps 1-5::

    1 logic removal  ->  2 QBF  ->  (key found? done)
    3 logic extraction -> 4 circuit modification -> 5 SCOPE

Oracle-guided (OG) entry point — steps 1-3, 6-7::

    1 logic removal  ->  2 QBF  ->  (key found? done)
    3 logic extraction -> 6 structural analysis -> 7 exhaustive search

Both functions take only what the threat model allows: the locked netlist
and the key-input names (plus the oracle in the OG case).  Ground truth
(`LockedCircuit`) is used exclusively by the scoring layer.

Budget semantics: each entry point accepts an overall ``time_limit``
(float seconds or a shared :class:`repro.budget.Deadline`) that governs
the *whole* attack from one monotonic clock; ``qbf_time_limit`` is the
paper's per-stage cap on the QBF step (Section III-A caps DepQBF at one
minute) and is applied as a sub-deadline of the overall budget, taken
when removal finishes, so the QBF stage can never spend more than either
bound and removal never eats into the QBF cap.
"""

from __future__ import annotations

from ...budget import Deadline
from ..metrics import AttackResult
from ..scope import scope_attack
from .extraction import classify_restore_unit, locked_subcircuit
from .exhaustive import og_exhaustive_search
from .modification import modified_dflt_subcircuit, modified_locking_unit
from .qbf_attack import qbf_key_search
from .removal import extract_unit, unit_off_value
from .structural import candidate_pattern_sets

__all__ = ["kratt_ol_attack", "kratt_og_attack"]


def _removal_and_qbf(circuit, key_inputs, deadline, qbf_time_limit):
    extraction = extract_unit(circuit, key_inputs)
    # The stage cap starts once removal is done: removal time is charged
    # to the overall budget only.
    outcome = qbf_key_search(
        extraction, time_limit=deadline.sub(qbf_time_limit)
    )
    return extraction, outcome


def _qbf_success_result(attack, circuit, technique, extraction, outcome,
                        deadline, start):
    key = dict(outcome.key)
    # Key inputs that never entered the unit (should not happen for
    # single-unit locks) default to 0.
    return AttackResult(
        attack=attack,
        technique=technique,
        circuit=circuit.name,
        key=key,
        success=True,
        elapsed=deadline.now() - start,
        time_limit=deadline.limit,
        iterations=outcome.iterations,
        details={
            "method": "qbf",
            "constant_value": outcome.constant_value,
            "complementary": outcome.complementary,
            "critical_signal": extraction.critical_signal,
        },
    )


def kratt_ol_attack(
    circuit,
    key_inputs,
    qbf_time_limit=5.0,
    scope_kwargs=None,
    technique="?",
    time_limit=None,
):
    """KRATT under the oracle-less threat model (paper steps 1-5).

    ``time_limit`` bounds the whole attack (QBF *and* the SCOPE stages,
    which can dominate runtime on the ambiguous/DFLT paths); every
    returned :class:`AttackResult` carries ``time_limit``/``timed_out``
    computed from that one deadline.  ``scope_kwargs`` go to
    :func:`~repro.attacks.scope.scope_attack`; a ``time_limit`` among
    them (float seconds) caps the SCOPE stage like ``qbf_time_limit``
    caps QBF, and never extends the overall deadline.

    Returns an :class:`AttackResult`; ``result.key`` maps every key input
    to True/False/None (None = undeciphered).  ``details["method"]`` is
    ``"qbf"`` when the removal+QBF stage already produced the key.
    """
    deadline = Deadline.of(time_limit)
    start = deadline.now()
    scope_kwargs = dict(scope_kwargs or {})
    # A caller's SCOPE limit caps the stage inside the overall deadline,
    # taken when SCOPE starts, like the QBF cap.
    scope_limit = scope_kwargs.pop("time_limit", None)

    try:
        extraction, outcome = _removal_and_qbf(
            circuit, key_inputs, deadline, qbf_time_limit
        )
    except ValueError as exc:
        return AttackResult(
            attack="kratt-ol",
            technique=technique,
            circuit=circuit.name,
            success=False,
            timed_out=deadline.expired(),
            elapsed=deadline.now() - start,
            time_limit=deadline.limit,
            details={"error": str(exc)},
        )

    if outcome.status == "key":
        return _qbf_success_result(
            "kratt-ol", circuit, technique, extraction, outcome, deadline, start
        )

    if outcome.status == "ambiguous":
        # Non-complementary SFLT (Gen-Anti-SAT): pin the PPIs away and let
        # SCOPE read the inversion masks off the key-only unit.
        unit = modified_locking_unit(extraction)
        scope = scope_attack(
            unit,
            [k for k in extraction.key_inputs if k in unit],
            rule="collapse",
            time_limit=deadline.sub(scope_limit),
            **scope_kwargs,
        )
        key = {k: scope.guesses.get(k) for k in key_inputs}
        deciphered = sum(1 for v in key.values() if v is not None)
        return AttackResult(
            attack="kratt-ol",
            technique=technique,
            circuit=circuit.name,
            key=key,
            success=deciphered == len(key),
            timed_out=scope.timed_out or deadline.expired(),
            elapsed=deadline.now() - start,
            time_limit=deadline.limit,
            details={
                "method": "modified-unit-scope",
                "complementary": False,
                "scope_elapsed": scope.elapsed,
                "scope_timed_out": scope.timed_out,
                "critical_signal": extraction.critical_signal,
            },
        )

    # DFLT path: classify the restore unit, substitute PPIs with keys in
    # the locked subcircuit, and run SCOPE in preserve mode.
    classification = classify_restore_unit(extraction)
    modified, present_keys = modified_dflt_subcircuit(
        extraction, off_value=classification.off_value
    )
    scope = scope_attack(
        modified,
        list(present_keys),
        rule="preserve",
        time_limit=deadline.sub(scope_limit),
        **scope_kwargs,
    )
    key = {k: scope.guesses.get(k) for k in key_inputs}
    deciphered = sum(1 for v in key.values() if v is not None)
    return AttackResult(
        attack="kratt-ol",
        technique=technique,
        circuit=circuit.name,
        key=key,
        success=deciphered > 0,
        timed_out=scope.timed_out or deadline.expired(),
        elapsed=deadline.now() - start,
        time_limit=deadline.limit,
        details={
            "method": "subcircuit-scope",
            "classification": classification.kind,
            "h": classification.h,
            "scope_elapsed": scope.elapsed,
            "scope_timed_out": scope.timed_out,
            "qbf_out_of_time": outcome.out_of_time,
            "critical_signal": extraction.critical_signal,
        },
    )


def kratt_og_attack(
    circuit,
    key_inputs,
    oracle,
    qbf_time_limit=5.0,
    pattern_budget=1 << 14,
    time_limit=None,
    technique="?",
):
    """KRATT under the oracle-guided threat model (paper steps 1-3, 6-7).

    ``time_limit`` is the overall attack budget (float seconds or a
    shared :class:`repro.budget.Deadline`): the QBF step runs under
    ``min(time_limit, qbf_time_limit)`` and the exhaustive search under
    whatever remains.
    """
    deadline = Deadline.of(time_limit)
    start = deadline.now()
    queries_before = oracle.query_count

    try:
        extraction, outcome = _removal_and_qbf(
            circuit, key_inputs, deadline, qbf_time_limit
        )
    except ValueError as exc:
        return AttackResult(
            attack="kratt-og",
            technique=technique,
            circuit=circuit.name,
            success=False,
            timed_out=deadline.expired(),
            elapsed=deadline.now() - start,
            time_limit=deadline.limit,
            details={"error": str(exc)},
        )

    if outcome.status == "key":
        return _qbf_success_result(
            "kratt-og", circuit, technique, extraction, outcome, deadline, start
        )

    # With an oracle even an ambiguous QBF witness can be validated, but
    # the paper's flow proceeds to structural analysis for everything the
    # QBF step could not certify; we follow it.
    classification = classify_restore_unit(extraction)
    off = classification.off_value
    sub = locked_subcircuit(extraction.usc, extraction.critical_signal)
    if extraction.critical_signal in sub.inputs:
        from ...synth.constprop import dead_code_eliminate, propagate_constants

        fsc_view, _ = propagate_constants(
            sub, {extraction.critical_signal: bool(off)}
        )
        fsc_view, _ = dead_code_eliminate(fsc_view)
    else:
        fsc_view = sub

    candidates = candidate_pattern_sets(fsc_view, extraction.protected_inputs)
    search = og_exhaustive_search(
        oracle=oracle,
        candidates=candidates,
        ppis=extraction.protected_inputs,
        key_of_ppi=extraction.key_of_ppi,
        locked=circuit,
        key_inputs=key_inputs,
        h=classification.h or 0,
        pattern_budget=pattern_budget,
        time_limit=deadline,
    )
    return AttackResult(
        attack="kratt-og",
        technique=technique,
        circuit=circuit.name,
        key=search.key or {},
        success=search.success,
        timed_out=(search.exhausted_budget or deadline.expired())
        and not search.success,
        elapsed=deadline.now() - start,
        time_limit=deadline.limit,
        oracle_queries=oracle.query_count - queries_before,
        details={
            "method": "og-structural",
            "classification": classification.kind,
            "h": classification.h,
            "patterns_tested": search.patterns_tested,
            "protected_patterns": len(search.protected_patterns),
            "candidate_sets": len(candidates),
            "qbf_out_of_time": outcome.out_of_time,
            "critical_signal": extraction.critical_signal,
        },
    )
