"""Incremental vs from-scratch DIP solving (ISSUE-7 differential layer).

The persistent-solver attack loop (:class:`repro.attacks.dip.DipEngine`)
and the classic re-encode-every-iteration reference
(:class:`repro.attacks.dip.ScratchDipEngine`) must be observationally
identical: under canonical (lexicographically-smallest, assumption-probe)
extraction both engines are pure functions of the formula, so
the shared DIP loop (:func:`repro.attacks.dip.dip_loop`) must recover
the same key, visit the same DIP sequence, and report the same status
over either engine, at one DIP per round (SAT attack) and two
(Double-DIP), across all five locking techniques — and the recovered key
must actually unlock the circuit.

Deadline expiry mid-iteration is driven by the fake clock from
``tests/test_budget.py``: both engines must classify the run as a
timeout off the same shared Deadline discipline.
"""

import random

import pytest

from factories import build_locked_circuit
from repro.attacks import (
    DipEngine,
    Oracle,
    ScratchDipEngine,
    dip_loop,
)
from repro.budget import Deadline
from repro.corpus import resolve_circuit
from repro.locking import lock_xor
from repro.netlist.simulate import random_patterns

#: The five techniques of the QBF-vs-exhaustive layer (SFLTs + DFLTs).
TECHNIQUES = ["antisat", "caslock", "sarlock", "ttlock", "cac"]

#: DIPs per round of each attack the loop runs.
ATTACKS = {"sat": 1, "ddip": 2}
ENGINES = {"incremental": DipEngine, "scratch": ScratchDipEngine}


class FakeClock:
    """Deterministic monotonic clock: advances ``step`` per reading."""

    def __init__(self, step=0.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


def _locked(technique, seed=1):
    return build_locked_circuit(
        technique, seed=seed, n_inputs=5, n_gates=14, key_width=4
    )


def _run(attack_name, locked, mode, technique="?", **kwargs):
    """The shared loop over a fresh ``mode`` engine: ``(result, rounds)``."""
    engine = ENGINES[mode](locked.circuit, locked.key_inputs)
    return dip_loop(
        engine,
        Oracle(locked.original),
        attack_name,
        dips_per_round=ATTACKS[attack_name],
        technique=technique,
        **kwargs,
    )


def _assert_key_unlocks(locked, key):
    """Exhaustive equivalence: locked circuit under ``key`` == original."""
    data_inputs = [
        s for s in locked.circuit.inputs if s not in set(locked.key_inputs)
    ]
    got, mask = locked.circuit.compiled().exhaustive_outputs(
        data_inputs, fixed={k: bool(v) for k, v in key.items()}
    )
    want, want_mask = locked.original.compiled().exhaustive_outputs(data_inputs)
    assert mask == want_mask
    assert got == want, "recovered key does not unlock the circuit"


@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("attack_name", sorted(ATTACKS))
def test_incremental_matches_scratch_canonical(technique, attack_name):
    locked = _locked(technique)
    results = {
        mode: _run(
            attack_name, locked, mode, technique,
            time_limit=None, canonical=True, record_dips=True,
        )
        for mode in ENGINES
    }
    (inc, inc_rounds), (scr, scr_rounds) = (
        results["incremental"], results["scratch"]
    )
    # Identical status, key, DIP sequence, and iteration counts.
    assert (inc.success, inc.timed_out) == (scr.success, scr.timed_out)
    assert inc.success, f"{attack_name} failed on {technique}"
    assert inc.key == scr.key
    assert inc.details["dips"] == scr.details["dips"]
    assert inc.iterations == scr.iterations
    assert inc_rounds == scr_rounds
    assert inc.oracle_queries == scr.oracle_queries
    _assert_key_unlocks(locked, inc.key)


@pytest.mark.parametrize("technique", ["sarlock", "ttlock"])
def test_noncanonical_modes_agree_on_status_and_unlock(technique):
    """Without canonical extraction DIPs may differ between a warm and a
    cold solver, but the verdict and the key's correctness may not."""
    locked = _locked(technique, seed=3)
    inc, _ = _run("sat", locked, "incremental", technique, time_limit=None)
    scr, _ = _run("sat", locked, "scratch", technique, time_limit=None)
    assert (inc.success, inc.timed_out) == (scr.success, scr.timed_out)
    assert inc.success
    _assert_key_unlocks(locked, inc.key)
    _assert_key_unlocks(locked, scr.key)


def test_modes_agree_on_corpus_netlist():
    """A checked-in ``.bench`` netlist through the corpus registry: both
    modes agree on status and both keys unlock the original.

    With 36 data inputs an exhaustive check is infeasible, so the keys
    are checked against the original on 256 seeded random patterns.
    """
    locked = lock_xor(resolve_circuit("corpus:c432").circuit, 8, seed=17)
    inc, _ = _run("sat", locked, "incremental", "xor_lock", time_limit=None)
    scr, _ = _run("sat", locked, "scratch", "xor_lock", time_limit=None)
    assert (inc.success, inc.timed_out) == (scr.success, scr.timed_out)
    assert inc.success

    data_inputs = [
        s for s in locked.circuit.inputs if s not in set(locked.key_inputs)
    ]
    words, mask = random_patterns(data_inputs, 256, random.Random("c432"))
    want = locked.original.evaluate_interpreted(
        dict(words), mask, outputs_only=True
    )
    for key in (inc.key, scr.key):
        assignment = dict(words)
        assignment.update({k: mask if v else 0 for k, v in key.items()})
        got = locked.circuit.evaluate_interpreted(
            assignment, mask, outputs_only=True
        )
        assert all(got[o] == want[o] for o in locked.original.outputs)


@pytest.mark.parametrize("attack_name", sorted(ATTACKS))
@pytest.mark.parametrize("mode", sorted(ENGINES))
def test_deadline_expiry_mid_iteration(attack_name, mode):
    """A fake-clock deadline spent mid-loop times out on either engine,
    after real iterations have run (expiry hits *inside* the loop)."""
    locked = _locked("sarlock")
    # Each clock reading advances 1ms; the attack needs hundreds of
    # solver-internal readings per iteration, so a 0.2s budget expires
    # after a few iterations, never before the first.
    deadline = Deadline.from_limit(0.2, clock=FakeClock(step=0.001))
    result, _ = _run(
        attack_name, locked, mode, "sarlock", time_limit=deadline
    )
    assert result.timed_out and not result.success
    assert result.key == {}
    assert result.time_limit == pytest.approx(0.2)
    assert result.iterations >= 1, "expiry should land mid-run, not at entry"


@pytest.mark.parametrize("mode", sorted(ENGINES))
def test_zero_budget_times_out_before_any_query(mode):
    locked = _locked("ttlock")
    oracle = Oracle(locked.original)
    engine = ENGINES[mode](locked.circuit, locked.key_inputs)
    result, _ = dip_loop(engine, oracle, "sat", time_limit=0)
    assert result.timed_out
    assert result.iterations == 0
    assert oracle.query_count == 0


class TestEngineSeam:
    def test_incremental_engine_is_one_persistent_solver(self):
        locked = _locked("sarlock")
        engine = DipEngine(locked.circuit, locked.key_inputs)
        oracle = Oracle(locked.original)
        solver = engine.solver
        for _ in range(3):
            status, x = engine.find_dip()
            assert status is True
            engine.add_io_constraint(x, oracle.query(x))
            assert engine.solver is solver, "solver must persist across iterations"

    def test_scratch_engine_rebuilds_per_query(self):
        locked = _locked("sarlock")
        engine = ScratchDipEngine(locked.circuit, locked.key_inputs)
        oracle = Oracle(locked.original)
        builds = engine.builds
        for _ in range(2):
            status, x = engine.find_dip()
            assert status is True
            assert engine.builds == builds + 1, "find_dip must re-encode"
            builds = engine.builds
            engine.add_io_constraint(x, oracle.query(x))
        engine.extract_key()
        assert engine.builds == builds + 1, "extract_key must re-encode"

    def test_key_hypothesis_assumption_probe(self):
        """check_key answers hypotheses without mutating the instance."""
        locked = _locked("ttlock")
        engine = DipEngine(locked.circuit, locked.key_inputs)
        oracle = Oracle(locked.original)
        # Settle the key space completely.
        while True:
            status, x = engine.find_dip(canonical=True)
            if status is False:
                break
            engine.add_io_constraint(x, oracle.query(x))
        key = engine.extract_key(canonical=True)
        clauses_before = len(engine.solver._clauses)
        assert engine.check_key(key) is True
        wrong = dict(key)
        flip = next(iter(wrong))
        wrong[flip] = not wrong[flip]
        # TTLock's settled key space is a point function: the flipped
        # key must be inconsistent with some recorded observation.
        assert engine.check_key(wrong) is False
        assert len(engine.solver._clauses) == clauses_before
        # The instance is still usable after the probes.
        assert engine.extract_key(canonical=True) == key
