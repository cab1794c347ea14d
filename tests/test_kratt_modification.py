"""Tests for KRATT step 4: circuit modification for the OL attack."""

import pytest

from factories import build_random_circuit
from repro.attacks.kratt import (
    extract_unit,
    modified_dflt_subcircuit,
    modified_locking_unit,
)
from repro.locking import lock_antisat, lock_genantisat, lock_ttlock


@pytest.fixture(scope="module")
def host():
    return build_random_circuit(n_inputs=10, n_gates=60, n_outputs=5, seed=91)


class TestModifiedLockingUnit:
    def test_ppis_removed(self, host):
        locked = lock_antisat(host, 8, seed=1)
        extraction = extract_unit(locked.circuit, locked.key_inputs)
        unit = modified_locking_unit(extraction)
        assert not (set(unit.inputs) & set(extraction.protected_inputs))
        assert set(unit.inputs) <= set(locked.key_inputs)

    def test_unit_shrinks(self, host):
        locked = lock_genantisat(host, 8, seed=1)
        extraction = extract_unit(locked.circuit, locked.key_inputs)
        unit = modified_locking_unit(extraction)
        assert unit.num_gates <= extraction.unit.num_gates

    def test_collapse_asymmetry_exists(self, host):
        # The correct key value must simplify the modified unit strictly
        # more than the wrong value for at least most key bits.
        from repro.synth import circuit_area, dead_code_eliminate, propagate_constants

        locked = lock_genantisat(host, 8, seed=2)
        extraction = extract_unit(locked.circuit, locked.key_inputs)
        unit = modified_locking_unit(extraction)
        asymmetric = 0
        for key in extraction.key_inputs:
            if key not in unit:
                continue
            areas = {}
            for value in (0, 1):
                pinned, _ = propagate_constants(unit, {key: bool(value)})
                pinned, _ = dead_code_eliminate(pinned)
                areas[value] = circuit_area(pinned)
            if areas[0] != areas[1]:
                asymmetric += 1
        assert asymmetric >= len(extraction.key_inputs) * 0.75


class TestModifiedDfltSubcircuit:
    def test_ppis_replaced_by_keys(self, host):
        locked = lock_ttlock(host, 8, seed=1)
        extraction = extract_unit(locked.circuit, locked.key_inputs)
        modified, present = modified_dflt_subcircuit(extraction)
        assert present
        assert set(present) <= set(locked.key_inputs)
        for ppi in extraction.protected_inputs:
            keys = extraction.key_of_ppi.get(ppi, ())
            if keys:
                assert ppi not in modified.inputs

    def test_critical_signal_pinned(self, host):
        locked = lock_ttlock(host, 8, seed=1)
        extraction = extract_unit(locked.circuit, locked.key_inputs)
        modified, _ = modified_dflt_subcircuit(extraction)
        assert extraction.critical_signal not in modified.inputs
