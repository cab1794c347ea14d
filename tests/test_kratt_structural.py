"""Tests for KRATT step 6: structural analysis of the locked subcircuit."""

import pytest

from factories import build_random_circuit
from repro.attacks.kratt import (
    candidate_pattern_sets,
    extract_unit,
    classify_restore_unit,
    locked_subcircuit,
)
from repro.attacks.kratt.structural import _cone_patterns
from repro.locking import lock_ttlock
from repro.sat.tseitin import ConeEncoder
from repro.synth import dead_code_eliminate, propagate_constants


@pytest.fixture(scope="module")
def setting():
    host = build_random_circuit(n_inputs=10, n_gates=60, n_outputs=5, seed=81)
    locked = lock_ttlock(host, 8, seed=2)
    extraction = extract_unit(locked.circuit, locked.key_inputs)
    cls = classify_restore_unit(extraction)
    sub = locked_subcircuit(extraction.usc, extraction.critical_signal)
    fsc, _ = propagate_constants(sub, {extraction.critical_signal: bool(cls.off_value)})
    fsc, _ = dead_code_eliminate(fsc)
    return host, locked, extraction, fsc


class TestCandidates:
    def test_protected_pattern_among_top_candidates(self, setting):
        host, locked, extraction, fsc = setting
        candidates = candidate_pattern_sets(fsc, extraction.protected_inputs)
        pattern = locked.metadata["protected_pattern"]
        for candidate in candidates[:6]:
            if all(candidate.get(p) == int(v) for p, v in pattern.items()):
                return
        pytest.fail("protected pattern not among the most specified candidates")

    def test_sorted_most_specified_first(self, setting):
        _, _, extraction, fsc = setting
        candidates = candidate_pattern_sets(fsc, extraction.protected_inputs)
        xs = [sum(1 for v in c.values() if v is None) for c in candidates]
        assert xs == sorted(xs)

    def test_single_ppi_augmentation(self, setting):
        _, _, extraction, fsc = setting
        candidates = candidate_pattern_sets(fsc, extraction.protected_inputs)
        n = len(extraction.protected_inputs)
        singles = [c for c in candidates
                   if sum(1 for v in c.values() if v is not None) == 1]
        assert len(singles) >= n  # each ppi pinned at least one way

    def test_no_duplicates(self, setting):
        _, _, extraction, fsc = setting
        ppis = list(extraction.protected_inputs)
        candidates = candidate_pattern_sets(fsc, ppis)
        seen = {tuple(c.get(p) for p in ppis) for c in candidates}
        assert len(seen) == len(candidates)


class TestEnumerateConePatterns:
    def test_enumeration_blocks_solutions(self, setting):
        _, _, extraction, fsc = setting
        from repro.netlist.cone import cones_with_support_within

        roots = cones_with_support_within(fsc, extraction.protected_inputs, 2)
        assert roots
        ppis = list(extraction.protected_inputs)
        cone = ConeEncoder(fsc).encode(roots[0])
        pats = _cone_patterns(cone, 1, ppis, set(ppis), limit=3)
        specified = [
            tuple((p, v) for p, v in pat.items() if v is not None) for pat in pats
        ]
        assert len(set(specified)) == len(specified)
