"""End-to-end tests for the full KRATT OL and OG flows (paper Fig. 4)."""

import pytest

from factories import build_random_circuit
from repro.attacks import Oracle, kratt_og_attack, kratt_ol_attack, score_key
from repro.locking import TECHNIQUES, lock_sfll_hd
from repro.synth import resynthesize


@pytest.fixture(scope="module")
def host():
    return build_random_circuit(n_inputs=12, n_gates=90, n_outputs=6, seed=71)


@pytest.fixture(scope="module")
def locks(host):
    built = {}
    for name in ("sarlock", "antisat", "caslock", "genantisat", "ttlock", "cac"):
        built[name] = TECHNIQUES[name](host, 10, seed=5)
    built["sfll_hd"] = lock_sfll_hd(host, 10, h=2, seed=5)
    return built


class TestOlFlow:
    @pytest.mark.parametrize("technique", ["sarlock", "antisat", "caslock"])
    def test_sflts_break_via_qbf(self, locks, technique):
        locked = locks[technique]
        result = kratt_ol_attack(
            locked.circuit, locked.key_inputs, qbf_time_limit=3,
        )
        assert result.details["method"] == "qbf"
        assert score_key(locked, result.key).functional

    def test_genantisat_falls_to_modified_unit(self, locks):
        locked = locks["genantisat"]
        result = kratt_ol_attack(
            locked.circuit, locked.key_inputs, qbf_time_limit=3,
        )
        assert result.details["method"] == "modified-unit-scope"
        assert score_key(locked, result.key).functional

    @pytest.mark.parametrize("technique", ["ttlock", "cac"])
    def test_dflts_fall_to_subcircuit_scope(self, locks, technique):
        locked = locks[technique]
        result = kratt_ol_attack(
            locked.circuit, locked.key_inputs, qbf_time_limit=2,
        )
        assert result.details["method"] == "subcircuit-scope"
        score = score_key(locked, result.key)
        assert score.dk >= score.total * 0.8  # deciphers most key inputs

    def test_resynthesized_sflt(self, locks):
        locked = locks["antisat"]
        syn = resynthesize(locked.circuit, seed=13, effort=2)
        result = kratt_ol_attack(syn, locked.key_inputs, qbf_time_limit=3)
        assert result.details["method"] == "qbf"
        assert score_key(locked, result.key).functional

    def test_unlockable_netlist_reports_error(self, host):
        from repro.locking import lock_xor

        locked = lock_xor(host, 6, seed=1)
        result = kratt_ol_attack(locked.circuit, locked.key_inputs)
        assert not result.success
        assert "error" in result.details


class TestOgFlow:
    @pytest.mark.parametrize("technique", ["ttlock", "cac"])
    def test_dflts_exact_key(self, locks, technique):
        locked = locks[technique]
        oracle = Oracle(locked.original)
        result = kratt_og_attack(
            locked.circuit, locked.key_inputs, oracle, qbf_time_limit=2,
        )
        assert result.success
        assert result.details["method"] == "og-structural"
        assert score_key(locked, result.key).exact_match

    def test_sfll_hd_via_constraint_inference(self, locks):
        locked = locks["sfll_hd"]
        oracle = Oracle(locked.original)
        result = kratt_og_attack(
            locked.circuit, locked.key_inputs, oracle, qbf_time_limit=2,
        )
        assert result.success
        assert result.details["h"] == 2
        assert score_key(locked, result.key).exact_match

    def test_resynthesized_dflt(self, locks):
        locked = locks["ttlock"]
        syn = resynthesize(locked.circuit, seed=17, effort=2)
        oracle = Oracle(locked.original)
        result = kratt_og_attack(syn, locked.key_inputs, oracle, qbf_time_limit=2)
        assert result.success
        assert score_key(locked, result.key).exact_match

    def test_sflt_breaks_without_oracle_queries(self, locks):
        locked = locks["sarlock"]
        oracle = Oracle(locked.original)
        result = kratt_og_attack(locked.circuit, locked.key_inputs, oracle,
                                 qbf_time_limit=3)
        assert result.details["method"] == "qbf"
        assert result.oracle_queries == 0
        assert score_key(locked, result.key).functional

    def test_pattern_budget_respected(self, locks):
        locked = locks["ttlock"]
        oracle = Oracle(locked.original)
        result = kratt_og_attack(
            locked.circuit, locked.key_inputs, oracle, qbf_time_limit=1,
            pattern_budget=4,
        )
        assert result.details["patterns_tested"] <= 4 + 256
