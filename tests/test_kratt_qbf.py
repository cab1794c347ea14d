"""Tests for KRATT step 2: the QBF attack and the complementarity check."""

import pytest

from factories import build_random_circuit
from repro.attacks import score_key
from repro.attacks.kratt import extract_unit, qbf_key_search, tied_unit_is_constant
from repro.locking import (
    lock_antisat,
    lock_caslock,
    lock_cac,
    lock_genantisat,
    lock_sarlock,
    lock_sfll_hd,
    lock_ttlock,
)
from repro.synth import resynthesize


@pytest.fixture(scope="module")
def host():
    return build_random_circuit(n_inputs=10, n_gates=60, n_outputs=5, seed=51)


class TestSfltKeys:
    def test_sarlock_unique_key(self, host):
        locked = lock_sarlock(host, 10, seed=1)
        extraction = extract_unit(locked.circuit, locked.key_inputs)
        outcome = qbf_key_search(extraction, time_limit=10)
        assert outcome.status == "key"
        score = score_key(locked, outcome.key)
        assert score.exact_match  # SARLock's constant-making key is unique

    def test_antisat_functional_family(self, host):
        locked = lock_antisat(host, 10, seed=1)
        extraction = extract_unit(locked.circuit, locked.key_inputs)
        outcome = qbf_key_search(extraction, time_limit=10)
        assert outcome.status == "key"
        assert outcome.complementary is True
        assert score_key(locked, outcome.key).functional

    def test_caslock_functional_family(self, host):
        locked = lock_caslock(host, 10, seed=1)
        extraction = extract_unit(locked.circuit, locked.key_inputs)
        outcome = qbf_key_search(extraction, time_limit=10)
        assert outcome.status == "key"
        assert score_key(locked, outcome.key).functional

    def test_sarlock_after_resynthesis(self, host):
        locked = lock_sarlock(host, 10, seed=1)
        syn = resynthesize(locked.circuit, seed=9, effort=2)
        extraction = extract_unit(syn, locked.key_inputs)
        outcome = qbf_key_search(extraction, time_limit=10)
        assert outcome.status == "key"
        assert score_key(locked, outcome.key).functional


class TestGenAntiSat:
    def test_witness_rejected_as_ambiguous(self, host):
        locked = lock_genantisat(host, 10, seed=1)
        extraction = extract_unit(locked.circuit, locked.key_inputs)
        outcome = qbf_key_search(extraction, time_limit=10)
        # Paper: QBF cannot certify the key for non-complementary blocks.
        assert outcome.status in ("ambiguous", "unsat")
        if outcome.status == "ambiguous":
            assert outcome.complementary is False

    def test_tie_check_distinguishes_families(self, host):
        comp = lock_antisat(host, 10, seed=2)
        noncomp = lock_genantisat(host, 10, seed=2)
        ext_c = extract_unit(comp.circuit, comp.key_inputs)
        ext_n = extract_unit(noncomp.circuit, noncomp.key_inputs)
        assert tied_unit_is_constant(ext_c) is True
        assert tied_unit_is_constant(ext_n) is False


def _lock_dflt(name, host, key_width):
    if name == "sfll_hd":
        return lock_sfll_hd(host, key_width, h=2, seed=3)
    return {"ttlock": lock_ttlock, "cac": lock_cac}[name](host, key_width, seed=3)


@pytest.fixture(scope="module")
def wide_host():
    return build_random_circuit(n_inputs=40, n_gates=200, n_outputs=5, seed=51)


class TestDfltUnsat:
    """Restore units are refuted by proof (one lifted counterexample per
    polarity), not by running out the budget."""

    @pytest.mark.parametrize("lock", ["ttlock", "cac", "sfll_hd"])
    def test_restore_units_unsat(self, host, lock):
        self._assert_refuted(_lock_dflt(lock, host, 8))

    @pytest.mark.parametrize("lock", ["ttlock", "cac", "sfll_hd"])
    def test_restore_units_unsat_at_32_bits(self, wide_host, lock):
        self._assert_refuted(_lock_dflt(lock, wide_host, 32))

    @staticmethod
    def _assert_refuted(locked):
        extraction = extract_unit(locked.circuit, locked.key_inputs)
        outcome = qbf_key_search(extraction, time_limit=3)
        assert outcome.status == "unsat"
        assert outcome.out_of_time is False
        assert outcome.iterations <= 2
        assert set(outcome.strategy) == {0, 1}
