"""Differential layer for KRATT's critical-signal search.

``find_critical_signal`` computes ``cs1`` with one dominator pass.  The
reference below is the trial-removal search it replaced: try every
signal all keys reach, in (level, name) order, cut its cone out with
``remove_cone`` and accept the first whose USC no key input can
influence.  Both must name the same ``cs1`` on bench locks, resynthesized
locked hosts and random multi-key netlists.  The one allowed difference
is a netlist where no key input reaches a primary output: the dominator
pass returns ``None`` there, while the reference's check is vacuous and
returns the first common candidate.
"""

import random

import pytest

from factories import build_locked_circuit, build_random_circuit
from repro.attacks.kratt import find_critical_signal
from repro.experiments import harness
from repro.locking import LockingError
from repro.netlist.cone import remove_cone, transitive_fanout
from repro.synth import resynthesize


def trial_removal_critical_signal(circuit, key_inputs):
    """Reference: the first common-reach candidate whose removal strips
    every key input from the outputs."""
    key_inputs = [k for k in key_inputs if k in circuit]
    if not key_inputs:
        return None

    common = None
    for key in key_inputs:
        reach = transitive_fanout(circuit, [key], include_sources=False)
        common = reach if common is None else (common & reach)
        if not common:
            return None

    levels = circuit.levels()
    candidates = sorted(common, key=lambda s: (levels[s], s))
    key_set = set(key_inputs)
    outputs = set(circuit.outputs)

    for candidate in candidates:
        if circuit.gate(candidate).is_input:
            continue
        try:
            usc = remove_cone(circuit, candidate)
        except Exception:
            continue
        still_reaching = transitive_fanout(usc, list(key_set & set(usc.signals)))
        if not (still_reaching & outputs):
            return candidate
    return None


def _keys_reach_an_output(circuit, key_inputs):
    keys = [k for k in key_inputs if k in circuit]
    return bool(transitive_fanout(circuit, keys) & set(circuit.outputs))


def _assert_same(circuit, key_inputs):
    """Dominator pass == reference, except where no key reaches an output.

    Returns the dominator pass's ``cs1``.
    """
    found = find_critical_signal(circuit, key_inputs)
    if _keys_reach_an_output(circuit, key_inputs):
        assert found == trial_removal_critical_signal(circuit, key_inputs)
    else:
        assert found is None
    return found


TECHNIQUES = ("sarlock", "antisat", "caslock", "genantisat",
              "cac", "ttlock", "sfll_hd", "sfll_flex")


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("host, key_width", [("gen:c2670", 64),
                                             ("corpus:c432", None)])
def test_bench_locks(host, key_width, seed):
    """Every technique on the benchmark's hosts, prepared as the
    benchmark prepares them (resynthesis seed = lock seed + 1)."""
    for technique in TECHNIQUES:
        prep = harness.prepare_locked(
            host, technique, scale="tiny", seed=seed, synth_seed=seed + 1,
            key_width=key_width, cache=False, store=False)
        keys = prep.locked.key_inputs
        assert _keys_reach_an_output(prep.netlist, keys)
        assert _assert_same(prep.netlist, keys) is not None, technique


@pytest.mark.parametrize("technique", TECHNIQUES + ("xor_lock",))
def test_resynthesized_random_hosts(technique):
    outcomes = []
    for seed in range(8):
        try:
            locked = build_locked_circuit(technique, seed=seed)
        except LockingError:
            continue  # host too small for this lock; nothing to compare
        syn = resynthesize(locked.circuit, seed=seed, effort=2)
        for circuit in (locked.circuit, syn):
            outcomes.append(_assert_same(circuit, locked.key_inputs))
    assert outcomes
    if technique == "xor_lock":
        # Scattered key gates share no single dominator.
        assert None in outcomes
    else:
        assert None not in outcomes


def test_random_multi_key_netlists():
    found = none = unreached = 0
    for seed in range(400):
        rng = random.Random(("cs1-diff", seed).__str__())
        circuit = build_random_circuit(
            n_inputs=rng.randint(3, 10), n_gates=rng.randint(5, 60),
            n_outputs=rng.randint(1, 4), seed=seed)
        keys = rng.sample(list(circuit.inputs),
                          rng.randint(1, min(4, len(circuit.inputs))))
        cs1 = _assert_same(circuit, keys)
        if not _keys_reach_an_output(circuit, keys):
            unreached += 1
        elif cs1 is None:
            none += 1
        else:
            found += 1
    # The sample covers all three outcomes.
    assert found and none and unreached
