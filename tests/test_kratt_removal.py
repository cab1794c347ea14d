"""Tests for KRATT step 1: critical signal, unit extraction, association."""

import pytest

from factories import build_random_circuit
from repro.attacks.kratt import (
    associate_ppi_keys,
    cube_columns,
    extract_unit,
    find_critical_signal,
    unit_off_value,
)
from repro.locking import (
    TECHNIQUES,
    lock_antisat,
    lock_sarlock,
    lock_sfll_flex,
    lock_ttlock,
)
from repro.synth import resynthesize


@pytest.fixture(scope="module")
def host():
    return build_random_circuit(n_inputs=10, n_gates=60, n_outputs=5, seed=41)


ALL = ["sarlock", "antisat", "caslock", "genantisat", "ttlock", "cac"]


@pytest.mark.parametrize("technique", ALL)
class TestCriticalSignal:
    def test_found_on_plain_netlist(self, host, technique):
        locked = TECHNIQUES[technique](host, 8, seed=3)
        cs1 = find_critical_signal(locked.circuit, locked.key_inputs)
        assert cs1 is not None

    def test_found_after_resynthesis(self, host, technique):
        locked = TECHNIQUES[technique](host, 8, seed=3)
        syn = resynthesize(locked.circuit, seed=5, effort=2)
        cs1 = find_critical_signal(syn, locked.key_inputs)
        assert cs1 is not None

    def test_usc_has_no_key_influence(self, host, technique):
        locked = TECHNIQUES[technique](host, 8, seed=3)
        extraction = extract_unit(locked.circuit, locked.key_inputs)
        from repro.netlist.cone import transitive_fanout

        still = transitive_fanout(
            extraction.usc,
            [k for k in locked.key_inputs if k in extraction.usc.signals],
        )
        assert not (still & set(extraction.usc.outputs))

    def test_unit_inputs_partition(self, host, technique):
        locked = TECHNIQUES[technique](host, 8, seed=3)
        extraction = extract_unit(locked.circuit, locked.key_inputs)
        assert set(extraction.key_inputs) <= set(locked.key_inputs)
        assert not (set(extraction.protected_inputs) & set(locked.key_inputs))


class TestNoCriticalSignal:
    def test_xor_lock_has_none(self, host):
        from repro.locking import lock_xor

        locked = lock_xor(host, 6, seed=1)
        assert find_critical_signal(locked.circuit, locked.key_inputs) is None

    def test_extract_raises(self, host):
        from repro.locking import lock_xor

        locked = lock_xor(host, 6, seed=1)
        with pytest.raises(ValueError):
            extract_unit(locked.circuit, locked.key_inputs)

    def test_no_key_reaches_an_output(self):
        """A key with no path to any output has no critical signal: there
        is no unit to extract, so nothing may be passed off as one."""
        circuit = build_random_circuit(n_inputs=8, n_gates=19, n_outputs=2,
                                       seed=87)
        from repro.netlist.cone import transitive_fanout

        assert not (transitive_fanout(circuit, ["x4"]) & set(circuit.outputs))
        assert find_critical_signal(circuit, ["x4"]) is None
        with pytest.raises(ValueError):
            extract_unit(circuit, ["x4"])


class TestAssociation:
    def test_sarlock_one_key_per_ppi(self, host):
        locked = lock_sarlock(host, 8, seed=4)
        extraction = extract_unit(locked.circuit, locked.key_inputs)
        truth = locked.key_of_ppi
        for ppi, keys in truth.items():
            assert extraction.key_of_ppi[ppi][0] == keys[0]
        assert extraction.keys_per_ppi == 1

    def test_antisat_two_keys_per_ppi(self, host):
        locked = lock_antisat(host, 8, seed=4)
        extraction = extract_unit(locked.circuit, locked.key_inputs)
        assert extraction.keys_per_ppi == 2
        for ppi, keys in locked.key_of_ppi.items():
            assert set(extraction.key_of_ppi[ppi]) == set(keys)

    def test_association_survives_resynthesis(self, host):
        locked = lock_ttlock(host, 8, seed=4)
        syn = resynthesize(locked.circuit, seed=6, effort=2)
        extraction = extract_unit(syn, locked.key_inputs)
        correct = 0
        for ppi, keys in locked.key_of_ppi.items():
            if extraction.key_of_ppi.get(ppi, ())[:1] == keys[:1]:
                correct += 1
        assert correct >= len(locked.key_of_ppi) * 0.75


@pytest.fixture(scope="module")
def flex_host():
    return build_random_circuit(n_inputs=10, n_gates=60, n_outputs=5, seed=51)


def _flex_extraction(host, cubes, resynth, seed=3):
    locked = lock_sfll_flex(host, 8, cubes=cubes, seed=seed)
    circuit = locked.circuit
    if resynth:
        circuit = resynthesize(circuit, seed=6, effort=2)
    return locked, extract_unit(circuit, locked.key_inputs)


@pytest.mark.parametrize("resynth", [False, True])
@pytest.mark.parametrize("cubes", [2, 3])
class TestSfllFlexAssociation:
    def test_every_cube_key_pairs_with_its_ppi(self, flex_host, cubes, resynth):
        locked, extraction = _flex_extraction(flex_host, cubes, resynth)
        for ppi, keys in locked.key_of_ppi.items():
            assert set(extraction.key_of_ppi[ppi]) == set(keys), ppi

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_columns_match_the_cube_store(self, flex_host, cubes, resynth,
                                          seed):
        locked, extraction = _flex_extraction(flex_host, cubes, resynth, seed)
        truth = [
            {ppi: keys[i] for ppi, keys in locked.key_of_ppi.items()}
            for i in range(cubes)
        ]
        columns = cube_columns(extraction.unit, extraction.key_of_ppi)
        assert len(columns) == cubes
        assert all(column in truth for column in columns)


class TestCubeColumns:
    @pytest.mark.parametrize("technique", ["sarlock", "ttlock", "cac"])
    @pytest.mark.parametrize("resynth", [False, True])
    def test_one_key_per_ppi_is_one_column(self, host, technique, resynth):
        locked = TECHNIQUES[technique](host, 8, seed=3)
        circuit = locked.circuit
        if resynth:
            circuit = resynthesize(circuit, seed=6, effort=2)
        extraction = extract_unit(circuit, locked.key_inputs)
        assert extraction.keys_per_ppi == 1
        first = {ppi: keys[0] for ppi, keys in extraction.key_of_ppi.items()}
        assert cube_columns(extraction.unit, extraction.key_of_ppi) == [first]

    def test_antisat_blocks_are_columns(self, host):
        # The g and g-bar trees each take one key per PPI.
        locked = lock_antisat(host, 8, seed=4)
        extraction = extract_unit(locked.circuit, locked.key_inputs)
        columns = cube_columns(extraction.unit, extraction.key_of_ppi)
        truth = [
            {ppi: keys[i] for ppi, keys in locked.key_of_ppi.items()}
            for i in range(2)
        ]
        assert sorted(columns, key=repr) == sorted(truth, key=repr)


class TestOffValue:
    def test_point_function_units_rest_low(self, host):
        locked = lock_sarlock(host, 8, seed=5)
        extraction = extract_unit(locked.circuit, locked.key_inputs)
        assert unit_off_value(extraction.unit, extraction.critical_signal) == 0
