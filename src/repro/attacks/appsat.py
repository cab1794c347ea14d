"""AppSAT: approximate deobfuscation (Shamsi et al., HOST 2017).

Paper reference [14]: interleaves the SAT-attack DIP loop with rounds of
random oracle queries.  When the current candidate key survives a full
random round without an error, AppSAT declares the key *approximately*
correct and stops early.

On point-function locks the candidate almost always survives random
sampling (corruption lives on a vanishing fraction of inputs), so AppSAT
terminates quickly with a key that is approximately-but-not-exactly
correct.  The KRATT paper ran it repeatedly under different settings and
reports OoT/failure (Table III); our harness reports the returned key's
functional verdict explicitly.

The DIP steps run on one persistent :class:`~repro.attacks.dip.DipEngine`
(the same incremental miter as the SAT attack); every erroneous random
pattern is added to it as one more I/O constraint.
"""

from __future__ import annotations

import random

from ..budget import Deadline
from .dip import DipEngine
from .metrics import AttackResult

__all__ = ["appsat_attack"]


def appsat_attack(
    circuit,
    key_inputs,
    oracle,
    time_limit=60.0,
    max_iterations=None,
    reinforce_every=8,
    random_queries=32,
    settle_rounds=2,
    seed=0,
    technique="?",
):
    """Run AppSAT.

    Parameters
    ----------
    reinforce_every:
        Number of DIP iterations between random-query rounds.
    random_queries:
        Random patterns per reinforcement round.
    settle_rounds:
        Consecutive error-free random rounds needed to declare the
        candidate key settled (approximate termination).

    ``time_limit`` is float seconds or a shared
    :class:`repro.budget.Deadline` bounding every solver call.
    """
    deadline = Deadline.of(time_limit)
    start = deadline.now()
    rng = random.Random(("appsat", seed, circuit.name).__str__())
    engine = DipEngine(circuit, key_inputs)
    iterations = 0
    clean_rounds = 0
    queries_before = oracle.query_count

    def result(key, success, timed_out, approximate):
        return AttackResult(
            attack="appsat",
            technique=technique,
            circuit=circuit.name,
            key=key or {},
            success=success,
            timed_out=timed_out,
            iterations=iterations,
            elapsed=deadline.now() - start,
            time_limit=deadline.limit,
            oracle_queries=oracle.query_count - queries_before,
            details={"approximate": approximate},
        )

    key_set = set(key_inputs)
    data_inputs = [s for s in circuit.inputs if s not in key_set]

    while True:
        if deadline.expired():
            return result(None, False, True, False)
        if max_iterations is not None and iterations >= max_iterations:
            return result(None, False, True, False)

        status, x = engine.find_dip(time_limit=deadline)
        if status is None:
            return result(None, False, True, False)
        if status is False:
            key = engine.extract_key(time_limit=deadline)
            return result(key, key is not None, key is None, False)
        iterations += 1
        y = oracle.query(x)
        engine.add_io_constraint(x, y)

        if iterations % reinforce_every:
            continue

        # Reinforcement: random queries against the current candidate,
        # evaluated as a single wide-word pass through the compiled engine;
        # bit j of ``differ`` is set iff pattern j exposes an error.
        candidate = engine.key_candidate()
        if candidate is None:
            return result(None, False, True, False)
        errors = 0
        patterns = [
            {s: bool(rng.getrandbits(1)) for s in data_inputs}
            for _ in range(random_queries)
        ]
        if patterns:
            observed = oracle.query_batch(patterns, words=True)
            compiled = circuit.compiled()
            words, mask = compiled.pack_input_words(patterns, fixed=candidate)
            cand_words = compiled.output_words_from_list(words, mask)
            differ = 0
            for o, word in zip(compiled.output_names, cand_words):
                differ |= word ^ observed[o]
            differ &= mask
            while differ:  # erroneous patterns, in batch order
                low = differ & -differ
                differ ^= low
                j = low.bit_length() - 1
                errors += 1
                y = {o: (word >> j) & 1 for o, word in observed.items()}
                engine.add_io_constraint(patterns[j], y)
        if errors == 0:
            clean_rounds += 1
            if clean_rounds >= settle_rounds:
                return result(candidate, False, False, True)
        else:
            clean_rounds = 0
