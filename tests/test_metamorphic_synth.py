"""Metamorphic tests: synthesis passes must preserve I/O behavior.

For random locked circuits (the structures resynthesis actually chews
on), ``structural_hash`` and ``propagate_constants`` are each applied
and the result compared to the source by miter-style equivalence on
sampled patterns
(:func:`outputs_differ` XOR-compares the output words of both circuits
over a shared random stimulus).
"""

import random

import pytest

from factories import build_locked_circuit, build_random_circuit
from repro.netlist.simulate import outputs_differ, random_patterns
from repro.netlist.strash import structural_hash
from repro.netlist.verify import check_equivalent
from repro.synth.constprop import dead_code_eliminate, propagate_constants

TECHNIQUES = ("sarlock", "antisat", "ttlock", "cac", "sfll_hd")
SEEDS = (0, 1)


def _subjects():
    cases = []
    for technique in TECHNIQUES:
        for seed in SEEDS:
            cases.append(pytest.param(technique, seed, id=f"{technique}-{seed}"))
    return cases


@pytest.mark.parametrize("technique,seed", _subjects())
def test_strash_preserves_io(technique, seed):
    circuit = build_locked_circuit(technique, seed=seed).circuit
    hashed, merged = structural_hash(circuit)
    assert merged >= 0
    assert list(hashed.inputs) == list(circuit.inputs)
    assert tuple(hashed.outputs) == tuple(circuit.outputs)
    assert outputs_differ(circuit, hashed, count=512) is None


@pytest.mark.parametrize("technique,seed", _subjects())
def test_propagate_constants_preserves_io_under_pins(technique, seed):
    """Pinning inputs must equal the source circuit driven with those pins."""
    circuit = build_locked_circuit(technique, seed=seed).circuit
    rng = random.Random(("constprop", technique, seed).__str__())
    pinned = rng.sample(list(circuit.inputs), 3)
    fixed = {name: rng.random() < 0.5 for name in pinned}

    folded, _count = propagate_constants(circuit, fixed)
    assert set(folded.inputs) == set(circuit.inputs) - set(pinned)
    assert tuple(folded.outputs) == tuple(circuit.outputs)

    count = 512
    words, mask = random_patterns(list(folded.inputs), count, rng)
    full = dict(words)
    for name, value in fixed.items():
        full[name] = mask if value else 0
    ref = circuit.evaluate(full, mask, outputs_only=True)
    got = folded.evaluate(words, mask, outputs_only=True)
    assert got == ref


@pytest.mark.parametrize("seed", range(3))
def test_transform_pipeline_on_plain_hosts(seed):
    """Chaining the passes on unlocked hosts stays behavior-preserving:
    strash, then a two-input pin folded and dead-code eliminated, must
    equal the source driven with the same pins."""
    circuit = build_random_circuit(n_inputs=8, n_gates=45, n_outputs=4, seed=seed)
    rng = random.Random(("pipeline", seed).__str__())
    fixed = {name: rng.random() < 0.5 for name in rng.sample(list(circuit.inputs), 2)}
    hashed, _ = structural_hash(circuit)
    assert outputs_differ(circuit, hashed, count=512) is None
    folded, _ = propagate_constants(hashed, fixed)
    simplified, _ = dead_code_eliminate(folded)

    words, mask = random_patterns(list(simplified.inputs), 512, rng)
    full = dict(words)
    for name, value in fixed.items():
        full[name] = mask if value else 0
    ref = circuit.evaluate(full, mask, outputs_only=True)
    assert simplified.evaluate(words, mask, outputs_only=True) == ref


def test_strash_equivalence_proven_once():
    """One SAT-proven equivalence anchors the sampled checks above."""
    circuit = build_locked_circuit("ttlock", seed=3).circuit
    hashed, _ = structural_hash(circuit)
    verdict, cex = check_equivalent(circuit, hashed, max_conflicts=50_000)
    assert verdict is True, cex
