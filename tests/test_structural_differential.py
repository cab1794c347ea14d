"""Differential layer for KRATT's structural analysis (step 6).

``candidate_pattern_sets`` encodes each PPI-only cone once, straight
from a snapshot of the functionality-stripped view, and replays that
clause buffer into a fresh solver per value.  The reference below is
the implementation it replaced: one ``extract_cone`` copy per root and
one ``encode_into_solver`` of it into a fresh ``Solver`` per value,
with the roots sorted by a separate ``support`` walk.  Both must return
equal candidate lists and equal per-cone enumerations
(``_cone_patterns`` over one :class:`ConeEncoder` encoding per root),
model for model.

The reference and the new code could drift together, so a subprocess
also pins digests of a few candidate lists as the reference produced
them under ``PYTHONHASHSEED=0`` (the lists depend on the string-hash
seed through the extracted subcircuit's gate order).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from factories import build_random_circuit
from repro.attacks.kratt import (
    candidate_pattern_sets,
    classify_restore_unit,
    extract_unit,
    locked_subcircuit,
)
from repro.attacks.kratt.structural import _cone_patterns
from repro.locking import TECHNIQUES
from repro.netlist import Circuit
from repro.netlist.cone import cones_with_support_within, extract_cone, support
from repro.sat.solver import Solver
from repro.sat.tseitin import ConeEncoder, encode_into_solver
from repro.synth import dead_code_eliminate, propagate_constants, resynthesize

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def reference_enumerate(subcircuit, root, value, ppis, limit=4, cone=None):
    """Reference: the cone copy encoded into a fresh solver."""
    if cone is None:
        cone = extract_cone(subcircuit, root)
    ppi_set = set(ppis)
    cone_support = [s for s in cone.inputs if s in ppi_set]
    if not cone_support:
        return []
    solver = Solver()
    varmap = encode_into_solver(solver, cone, {}, suffix="#lco")
    target = varmap[root]
    solver.add_clause([target if value else -target])
    patterns = []
    while len(patterns) < limit:
        if solver.solve(max_conflicts=100_000) is not True:
            break
        assignment = {ppi: None for ppi in ppis}
        blocking = []
        for sig in cone_support:
            bit = 1 if solver.model_value(varmap[sig]) else 0
            assignment[sig] = bit
            blocking.append(-varmap[sig] if bit else varmap[sig])
        patterns.append(assignment)
        solver.add_clause(blocking)
    return patterns


def reference_candidates(subcircuit, ppis, per_cone_limit=2, min_support=2,
                         max_cones=None):
    """Reference: per-root cone copies, roots sorted by a support walk."""
    ppis = list(ppis)
    roots = cones_with_support_within(
        subcircuit, ppis, min_support=min_support, maximal_only=False)
    roots.sort(key=lambda r: -len(support(subcircuit, r)))
    if max_cones is None:
        max_cones = max(16, 6 * len(ppis))
    candidates = []
    seen = set()

    def push(assignment):
        key = tuple(assignment.get(p) for p in ppis)
        if key not in seen:
            seen.add(key)
            candidates.append(assignment)

    for root in roots[:max_cones]:
        cone = extract_cone(subcircuit, root)
        for value in (0, 1):
            for pattern in reference_enumerate(
                    subcircuit, root, value, ppis, limit=per_cone_limit,
                    cone=cone):
                push(pattern)
    for ppi in ppis:
        for value in (0, 1):
            assignment = {p: None for p in ppis}
            assignment[ppi] = value
            push(assignment)
    candidates.sort(key=lambda a: sum(1 for p in ppis if a.get(p) is None))
    return candidates


#: (technique, extra locking kwargs): every OG technique whose flow
#: reaches structural analysis.
LOCKS = (
    ("ttlock", {}),
    ("cac", {}),
    ("sfll_hd", {"h": 1}),
    ("sfll_hd", {"h": 2}),
    ("sfll_flex", {"cubes": 2}),
    ("genantisat", {}),
)


def fsc_view(technique, kwargs, seed, resynth, key_width=8):
    """The functionality-stripped view KRATT-OG hands to structural
    analysis, and the protected inputs, for one locked random host."""
    host = build_random_circuit(n_inputs=12, n_gates=70, n_outputs=5,
                                seed=90 + seed)
    locked = TECHNIQUES[technique](host, key_width, seed=seed, **kwargs)
    circuit = locked.circuit
    if resynth:
        circuit = resynthesize(circuit, seed=6, effort=2)
    extraction = extract_unit(circuit, locked.key_inputs)
    off = classify_restore_unit(extraction).off_value
    cs = extraction.critical_signal
    view = locked_subcircuit(extraction.usc, cs)
    if cs in view.inputs:
        view, _ = propagate_constants(view, {cs: bool(off)})
        view, _ = dead_code_eliminate(view)
    return view, list(extraction.protected_inputs)


def wide_xor_view():
    """A hand-built view with wide XOR/XNOR gates, a duplicated fan-in,
    NOT/BUF, a constant and an input outside the PPIs."""
    c = Circuit("wide")
    p = [c.add_input(f"p{i}") for i in range(6)]
    c.add_input("z")
    c.add_gate("x4", "XOR", (p[0], p[1], p[2], p[3]))
    c.add_gate("n3", "XNOR", (p[3], p[4], p[5]))
    c.add_gate("a2", "AND", ("x4", "n3"))
    c.add_gate("nd", "NAND", (p[1], p[1], p[4]))
    c.add_gate("o", "OR", ("a2", "nd", p[5]))
    c.add_gate("inv", "NOT", ("o",))
    c.add_gate("buf", "BUFF", ("x4",))
    c.add_gate("w5", "XNOR", ("inv", "buf", "n3", p[0], p[2]))
    c.add_gate("nr", "NOR", ("w5", "a2"))
    c.add_gate("k1", "CONST1", ())
    c.add_gate("mix", "XOR", ("nr", "k1", "z"))
    c.set_outputs(["mix", "w5"])
    c.validate()
    return c, p


def _assert_same(view, ppis):
    got = candidate_pattern_sets(view, ppis)
    assert got == reference_candidates(view, ppis)
    return got


@pytest.mark.parametrize("technique, kwargs", LOCKS,
                         ids=[f"{t}{kw.get('h', '')}" for t, kw in LOCKS])
def test_candidates_match_reference(technique, kwargs):
    from_cones = []
    for seed in (0, 7):
        for resynth in (False, True):
            view, ppis = fsc_view(technique, kwargs, seed, resynth)
            found = _assert_same(view, ppis)
            from_cones.append(len(found) - 2 * len(ppis))
    # Cone enumeration contributed beyond the single-PPI augmentation.
    assert max(from_cones) > 0, from_cones


def _assert_same_enumerations(view, ppis, roots):
    """One encoding per root, replayed per value and limit, enumerates
    what the reference's fresh cone copy does."""
    encoder = ConeEncoder(view)
    for root in roots:
        cone = encoder.encode(root)
        for value in (0, 1):
            for limit in (1, 2, 3, 4):
                assert _cone_patterns(
                    cone, value, ppis, set(ppis), limit
                ) == reference_enumerate(view, root, value, ppis, limit=limit)


@pytest.mark.parametrize("technique, kwargs", [LOCKS[0], LOCKS[3]],
                         ids=["ttlock", "sfll_hd2"])
def test_cone_enumerations_match_reference(technique, kwargs):
    view, ppis = fsc_view(technique, kwargs, 7, True)
    roots = cones_with_support_within(view, ppis, min_support=2,
                                      maximal_only=False)
    assert roots
    _assert_same_enumerations(view, ppis, roots[:12])


def test_wide_xor_view_matches_reference():
    view, ppis = wide_xor_view()
    assert len(_assert_same(view, ppis)) > 2 * len(ppis)
    # Every signal as a root, constants and the non-PPI input included.
    _assert_same_enumerations(view, ppis, view.signals)


class _Recorder:
    """Stands in for a fresh :class:`Solver`: keeps what an encoding
    writes into it."""

    num_vars = 0

    def ensure_vars(self, n):
        self.grown_to = n

    def add_clauses(self, flat):
        self.flat = list(flat)


@pytest.mark.parametrize("case", ["ttlock", "sfll_hd2", "wide"])
def test_encoder_matches_encode_into_solver(case):
    """Numbering and clause buffer equal the cone copy's encoding, for
    every signal of the view as root."""
    if case == "wide":
        view, _ = wide_xor_view()
    else:
        view, _ = fsc_view(*LOCKS[0 if case == "ttlock" else 3], 0, True)
    encoder = ConeEncoder(view)
    for root in view.signals:
        cone = extract_cone(view, root)
        recorder = _Recorder()
        varmap = encode_into_solver(recorder, cone, {})
        got = encoder.encode(root)
        assert got.inputs == list(cone.inputs)
        assert got.input_vars == [varmap[s] for s in cone.inputs]
        assert got.root_var == varmap[root]
        assert got.num_vars == recorder.grown_to
        assert got.clauses == recorder.flat


def test_enumerate_unknown_root_raises():
    view, ppis = wide_xor_view()
    with pytest.raises(Exception) as new:
        ConeEncoder(view).encode("missing")
    with pytest.raises(Exception) as ref:
        reference_enumerate(view, "missing", 1, ppis)
    assert type(new.value) is type(ref.value)


_DIGEST_SCRIPT = r"""
import hashlib, json
from repro.attacks.kratt import candidate_pattern_sets
from test_structural_differential import LOCKS, fsc_view, wide_xor_view

cases = [fsc_view(LOCKS[0][0], LOCKS[0][1], 0, False),
         fsc_view(LOCKS[1][0], LOCKS[1][1], 7, True),
         fsc_view(LOCKS[3][0], LOCKS[3][1], 0, True),
         fsc_view(LOCKS[4][0], LOCKS[4][1], 7, False),
         fsc_view(LOCKS[5][0], LOCKS[5][1], 0, True),
         wide_xor_view()]
digests = []
for view, ppis in cases:
    rows = [tuple(c.get(p) for p in ppis) for c in
            candidate_pattern_sets(view, ppis)]
    digests.append([len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()])
print(json.dumps(digests))
"""

#: ``[count, sha256]`` of each case's candidate list, recorded with the
#: per-root ``extract_cone`` implementation under ``PYTHONHASHSEED=0``.
PINNED = [
    [49, "e8980d0283dc7d2fa93ca634cfb4bf6b52447b601768a67d99fb92ce4e08928a"],
    [86, "3cbc48faff6d777ff6dafaf52aee661e29150285b6f353f5e5493285fc9b0b18"],
    [52, "d43845519cb91a0c47cf8f238fd466c50ec02a354396e518fedc99fb26766d43"],
    [64, "0645e48b1d11e94856a18c757168e6ecdeaf0ad0d79399bfb93762ea130104a1"],
    [16, "ad5d0c3f3d34e688b0d7d1ebaac9e72829af1df2ba318d8f003f9871a93883da"],
    [31, "8d0065476ecf999d6e6ef03c55385ce295de73063d7e9341f13dac18e2521817"],
]


def test_candidate_lists_match_pinned_digests():
    path = os.pathsep.join([str(_ROOT / "src"), str(_ROOT / "tests")])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == PINNED
