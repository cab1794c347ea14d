"""Tests for KRATT step 2: the QBF attack and the complementarity check."""

import hashlib

import pytest

from factories import build_locked_circuit, build_random_circuit
from repro.attacks import score_key
from repro.attacks.kratt import (
    extract_unit,
    qbf_key_search,
    tied_unit_is_constant,
    unit_off_value,
)
from repro.locking import (
    lock_antisat,
    lock_caslock,
    lock_cac,
    lock_genantisat,
    lock_sarlock,
    lock_sfll_flex,
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

    @pytest.mark.parametrize("resynth", [False, True])
    @pytest.mark.parametrize("cubes", [2, 3])
    @pytest.mark.parametrize("key_width", [8, 32])
    def test_sfll_flex_refuted_not_timed_out(self, host, wide_host, key_width,
                                             cubes, resynth):
        """The first keys mix the cubes; one cube column's lift refutes
        the never-match polarity within a few CEGAR rounds."""
        locked = lock_sfll_flex(host if key_width == 8 else wide_host,
                                key_width, cubes=cubes, seed=3)
        circuit = locked.circuit
        if resynth:
            circuit = resynthesize(circuit, seed=6, effort=2)
        extraction = extract_unit(circuit, locked.key_inputs)
        outcome = qbf_key_search(extraction, time_limit=10,
                                 max_iterations=50)
        assert outcome.status == "unsat"
        assert outcome.out_of_time is False
        never_match = unit_off_value(extraction.unit,
                                     extraction.critical_signal)
        assert never_match in outcome.strategy


def _outcome_digest(outcome):
    key = None if outcome.key is None else sorted(
        (k, bool(v)) for k, v in outcome.key.items()
    )
    strategy = None if outcome.strategy is None else sorted(
        (value, sorted(moves.items()))
        for value, moves in outcome.strategy.items()
    )
    return repr((outcome.status, outcome.iterations, key, strategy))


@pytest.mark.parametrize("resynth,expected", [
    (False, "dc85be2c2b98bf11a6158057d10b0926c999e23998cdb93bb99cad21b598162f"),
    (True, "d000c7e7b0cb72eccd6ca54006d2a2407a8430165908f1a653410319b8ee5eb9"),
])
def test_qbf_outcomes_pinned(resynth, expected):
    """Status, iterations, key and strategy of every non-SFLL-Flex unit
    (recorded before the cube-column lift): extra hints must not move
    them."""
    digest = hashlib.sha256()
    for technique in ["sarlock", "antisat", "caslock", "genantisat",
                      "ttlock", "cac", "sfll_hd"]:
        for seed in (0, 1):
            locked = build_locked_circuit(technique, seed=seed, n_inputs=10,
                                          n_gates=40, key_width=8)
            circuit = locked.circuit
            if resynth:
                circuit = resynthesize(circuit, seed=6, effort=2)
            extraction = extract_unit(circuit, locked.key_inputs)
            outcome = qbf_key_search(extraction, time_limit=60.0)
            digest.update(_outcome_digest(outcome).encode())
    assert digest.hexdigest() == expected
