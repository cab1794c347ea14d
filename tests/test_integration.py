"""Cross-module integration scenarios exercising the public API end to end."""

import pytest

from repro.attacks import Oracle, kratt_og_attack, kratt_ol_attack, sat_attack, score_key
from repro.benchgen import array_multiplier
from repro.locking import lock_sarlock, lock_sfll_hd, lock_ttlock, lock_xor
from repro.netlist import parse_bench, write_bench
from repro.synth import resynthesize


@pytest.fixture(scope="module")
def multiplier():
    return array_multiplier(6, 6)


class TestPaperStory:
    """The paper's headline claims, each as one executable scenario."""

    def test_qbf_breaks_sarlock_where_sat_attack_times_out(self, multiplier):
        locked = lock_sarlock(multiplier, 12, seed=1)
        netlist = resynthesize(locked.circuit, seed=2, effort=2)

        oracle = Oracle(locked.original)
        baseline = sat_attack(netlist, locked.key_inputs, oracle, time_limit=2.0)
        assert baseline.timed_out

        result = kratt_ol_attack(netlist, locked.key_inputs, qbf_time_limit=5)
        score = score_key(locked, result.key)
        assert result.details["method"] == "qbf"
        assert score.exact_match

    def test_structural_analysis_breaks_ttlock(self, multiplier):
        locked = lock_ttlock(multiplier, 12, seed=1)
        netlist = resynthesize(locked.circuit, seed=3, effort=2)
        oracle = Oracle(locked.original)
        result = kratt_og_attack(netlist, locked.key_inputs, oracle, qbf_time_limit=2)
        assert score_key(locked, result.key).exact_match
        # modest oracle budget, far below 2^12 exhaustive queries
        assert result.oracle_queries < 4096

    def test_sfll_hd_constraint_inference(self, multiplier):
        locked = lock_sfll_hd(multiplier, 10, h=1, seed=1)
        netlist = resynthesize(locked.circuit, seed=4, effort=1)
        oracle = Oracle(locked.original)
        result = kratt_og_attack(netlist, locked.key_inputs, oracle, qbf_time_limit=2)
        assert result.details["classification"] == "hamming"
        assert score_key(locked, result.key).exact_match

    def test_weak_lock_still_falls_to_sat_attack(self, multiplier):
        locked = lock_xor(multiplier, 8, seed=1)
        oracle = Oracle(locked.original)
        result = sat_attack(locked.circuit, locked.key_inputs, oracle, time_limit=60)
        assert result.success
        assert score_key(locked, result.key).functional


class TestInterop:
    def test_bench_roundtrip_of_locked_circuit(self, multiplier):
        locked = lock_sarlock(multiplier, 8, seed=2)
        text = write_bench(locked.circuit)
        back = parse_bench(text)
        from repro.netlist import check_equivalent

        assert check_equivalent(locked.circuit, back)[0] is True

    def test_attack_on_parsed_netlist(self, multiplier):
        locked = lock_sarlock(multiplier, 8, seed=2)
        back = parse_bench(write_bench(locked.circuit))
        result = kratt_ol_attack(back, locked.key_inputs, qbf_time_limit=3)
        assert score_key(locked, result.key).exact_match
