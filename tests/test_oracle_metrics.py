"""Tests for the oracle and the scoring layer."""

import time

import pytest

from factories import build_random_circuit
from repro.attacks import Oracle, complete_partial_key, metrics, score_key
from repro.budget import Deadline
from repro.locking import lock_sarlock, lock_antisat


@pytest.fixture(scope="module")
def host():
    return build_random_circuit(n_inputs=8, n_gates=40, n_outputs=4, seed=21)


class TestOracle:
    def test_query_counts(self, host):
        oracle = Oracle(host)
        oracle.query({s: 0 for s in host.inputs})
        oracle.query_batch([{}, {}])
        assert oracle.query_count == 3
        oracle.reset_count()
        assert oracle.query_count == 0

    def test_defaults(self, host):
        oracle = Oracle(host)
        full = oracle.query({}, defaults=0)
        expected = host.evaluate({s: 0 for s in host.inputs}, 1, outputs_only=True)
        assert full == expected

    def test_batch_matches_single(self, host):
        oracle = Oracle(host)
        patterns = [{s: (i >> j) & 1 for j, s in enumerate(host.inputs)} for i in range(5)]
        batch = oracle.query_batch(patterns)
        singles = [oracle.query(p) for p in patterns]
        assert batch == singles

    def test_no_key_inputs_exposed(self, host):
        locked = lock_sarlock(host, 4, seed=1)
        oracle = Oracle(locked.original)
        assert not any(k.startswith("keyinput") for k in oracle.input_names)


class TestScoreKey:
    def test_exact_key(self, host):
        locked = lock_sarlock(host, 4, seed=1)
        score = score_key(locked, dict(locked.correct_key))
        assert score.exact_match and score.functional
        assert score.cdk == score.dk == score.total == 4

    def test_partial_key(self, host):
        locked = lock_sarlock(host, 4, seed=1)
        partial = {k: locked.correct_key[k] for k in locked.key_inputs[:2]}
        partial[locked.key_inputs[0]] = not partial[locked.key_inputs[0]]
        score = score_key(locked, partial)
        assert score.dk == 2 and score.cdk == 1
        assert score.functional is None

    def test_functional_family_counts_as_correct(self, host):
        locked = lock_antisat(host, 8, seed=1)
        half = locked.key_width // 2
        family = {k: True for k in locked.key_inputs}  # aligned pair
        score = score_key(locked, family)
        assert score.functional is True
        assert score.cdk == score.total

    def test_wrong_complete_key(self, host):
        locked = lock_sarlock(host, 4, seed=1)
        wrong = {k: not v for k, v in locked.correct_key.items()}
        score = score_key(locked, wrong)
        assert score.functional is False
        assert score.cdk == 0

    def test_none_guesses_ignored(self, host):
        locked = lock_sarlock(host, 4, seed=1)
        guesses = {k: None for k in locked.key_inputs}
        score = score_key(locked, guesses)
        assert score.dk == 0 and score.accuracy == 0.0


class TestCompletePartialKey:
    def test_completes_missing_bits(self, host):
        locked = lock_sarlock(host, 6, seed=2)
        partial = dict(locked.correct_key)
        dropped = locked.key_inputs[0]
        del partial[dropped]
        key, attempts = complete_partial_key(locked, partial, max_missing=4)
        assert key is not None
        assert key[dropped] == locked.correct_key[dropped]

    def test_refuses_when_too_many_missing(self, host):
        locked = lock_sarlock(host, 6, seed=2)
        key, attempts = complete_partial_key(locked, {}, max_missing=2)
        assert key is None and attempts == 0

    def test_accepts_a_deadline(self, host):
        # Both dropped bits are 1, so candidates are refuted before the
        # correct completion is found.
        locked = lock_sarlock(host, 6, seed=2)
        dropped = locked.key_inputs[:2]
        assert all(locked.correct_key[k] for k in dropped)
        partial = {k: v for k, v in locked.correct_key.items() if k not in dropped}
        key, attempts = complete_partial_key(
            locked, partial, max_missing=2, time_limit=Deadline(30.0)
        )
        assert key == locked.correct_key and attempts == 4

    def test_float_limit_bounds_the_whole_search(self, host, monkeypatch):
        # Every candidate reaches a proof that runs out whatever budget it
        # is handed (up to 0.1 s): no proof may be handed more time than
        # is left of the search's own limit.
        limit = 0.25
        grants = []

        def proof_out_of_time(a, b, max_conflicts=None, time_limit=None):
            remaining = Deadline.of(time_limit).remaining()
            grants.append((time.monotonic(), remaining))
            time.sleep(min(0.1, remaining))
            return None, None

        monkeypatch.setattr(metrics, "_random_refutes", lambda *a, **k: False)
        monkeypatch.setattr(metrics, "check_equivalent", proof_out_of_time)
        locked = lock_sarlock(host, 6, seed=2)
        partial = {k: v for k, v in locked.correct_key.items()
                   if k not in locked.key_inputs[:3]}
        start = time.monotonic()
        key, attempts = complete_partial_key(
            locked, partial, max_missing=3, time_limit=limit
        )
        assert key is None and 1 <= attempts < 8
        for called_at, remaining in grants:
            assert called_at - start + remaining <= limit + 0.02
