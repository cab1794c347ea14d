"""Differential and determinism tests for the reduced key-proof miter.

``build_miter`` compares only the outputs the two circuits do not share
and encodes only those outputs' fan-in cones.  These tests hold
``check_equivalent`` to the full miter (``share_common=False``, every
output pair, only the inputs shared) solved by the frozen
``benchmarks/legacy_solver.py``, and to exhaustive simulation on hosts
small enough to enumerate.
"""

import importlib.util
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from factories import build_random_circuit
from repro.locking import TECHNIQUES
from repro.netlist import build_miter, check_equivalent
from repro.netlist.simulate import exhaustive_patterns
from repro.sat.tseitin import encode_circuit

_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_legacy():
    path = _ROOT / "benchmarks" / "legacy_solver.py"
    spec = importlib.util.spec_from_file_location("legacy_solver", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


legacy = _load_legacy()

#: Techniques whose key family has a functional member other than the
#: designated key: the complement is an aligned pair.
_COMPLEMENT_FUNCTIONAL = ("antisat", "genantisat")

#: (key width, host inputs); exhaustive simulation runs on <= 10 inputs.
_SHAPES = [(4, 8), (6, 10), (8, 12)]


def _lock(technique, host, width, seed):
    lock = TECHNIQUES[technique]
    if technique == "sfll_hd":
        return lock(host, width, h=1, seed=seed)
    if technique == "sfll_flex":
        return lock(host, width // 2, seed=seed)  # two cubes: width keys
    return lock(host, width, seed=seed)


def _keys(locked, seed):
    """Correct key, complement, every single-bit flip and random keys."""
    correct = dict(locked.correct_key)
    keys = [("correct", correct),
            ("complement", {k: not v for k, v in correct.items()})]
    for name in locked.key_inputs:
        flipped = dict(correct)
        flipped[name] = not flipped[name]
        keys.append((f"flip:{name}", flipped))
    rng = random.Random(("miter-keys", seed).__str__())
    for i in range(3):
        keys.append((f"random{i}", {k: rng.random() < 0.5 for k in locked.key_inputs}))
    return keys


def _full_miter_verdict(circ_a, circ_b):
    cnf, varmap = encode_circuit(build_miter(circ_a, circ_b, share_common=False))
    cnf.add_clause([varmap["miter_out"]])
    status, _ = legacy.solve_cnf(cnf)
    assert status is not None
    return not status


def _exhaustive_verdict(circ_a, circ_b):
    words, mask = exhaustive_patterns(list(circ_a.inputs))
    out_a = circ_a.evaluate(words, mask, outputs_only=True)
    out_b = circ_b.evaluate(words, mask, outputs_only=True)
    return all(out_a[o] == out_b[o] for o in circ_a.outputs)


@pytest.mark.parametrize("width,n_inputs", _SHAPES)
@pytest.mark.parametrize("technique", sorted(TECHNIQUES))
def test_verdicts_match_the_full_miter(technique, width, n_inputs):
    host = build_random_circuit(n_inputs=n_inputs, n_gates=4 * n_inputs,
                                n_outputs=4, seed=width)
    locked = _lock(technique, host, width, seed=width)
    assert locked.key_width == width
    for label, key in _keys(locked, width):
        keyed = locked.with_key(key)
        verdict, cex = check_equivalent(host, keyed)
        assert verdict == _full_miter_verdict(host, keyed), label
        if n_inputs <= 10:
            assert verdict == _exhaustive_verdict(host, keyed), label
        if verdict:
            assert cex is None
        else:
            pattern = {name: int(value) for name, value in cex.items()}
            assert host.output_vector(pattern) != keyed.output_vector(pattern), label
        if label == "correct" or (
            label == "complement" and technique in _COMPLEMENT_FUNCTIONAL
        ):
            assert verdict is True, label


_CLAUSES_SCRIPT = r"""
import hashlib, json
from factories import build_random_circuit
from repro.attacks.kratt import classify_restore_unit, extract_unit
from repro.attacks.kratt import extraction
from repro.locking import lock_genantisat, lock_sfll_hd
from repro.netlist import build_miter
from repro.sat.tseitin import encode_circuit

host = build_random_circuit(n_inputs=10, n_gates=60, n_outputs=5, seed=61)
pairs = []
locked = lock_genantisat(host, 8, seed=1)
pairs.append((host, locked.with_key({k: not v for k, v in locked.correct_key.items()})))

# The SFLL-HD classification proof: the unit against its HD reference.
real = extraction.check_equivalent
def capture(a, b, **kwargs):
    pairs.append((a, b))
    return real(a, b, **kwargs)
extraction.check_equivalent = capture
locked = lock_sfll_hd(host, 8, h=2, seed=1)
assert classify_restore_unit(extract_unit(locked.circuit, locked.key_inputs)).verified

digests = []
for a, b in pairs:
    cnf, _ = encode_circuit(build_miter(a, b))
    text = repr([tuple(c) for c in cnf.clauses])
    digests.append([len(cnf.clauses), hashlib.sha256(text.encode()).hexdigest()])
print(json.dumps(digests))
"""


def test_miter_clauses_do_not_depend_on_hash_seed():
    path = os.pathsep.join([str(_ROOT / "src"), str(_ROOT / "tests")])
    runs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _CLAUSES_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert len(runs[0]) == 2
    assert runs[0] == runs[1]
