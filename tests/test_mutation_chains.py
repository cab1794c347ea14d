"""Property-based netlist mutation chains (differential layer).

Applies seeded random chains of semantics-preserving mutations —
locking + correct-key folding, structural hashing, constant propagation,
rewrite passes, in-place fanin swaps — to random hosts and asserts after
*every* link:

* the compiled engine stays bit-identical to the reference interpreter
  on the mutated circuit;
* the chain preserves the original Boolean function (same outputs under
  the same input words);
* the structural memo (:mod:`repro.netlist.cone`) and the compiled-engine
  cache are correctly invalidated by the mutation epoch: memoized results
  always equal a memo-disabled recomputation.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from factories import build_random_circuit
from repro.locking import TECHNIQUES, LockingError
from repro.netlist import cone
from repro.netlist.cone import support, transitive_fanin, transitive_fanout
from repro.netlist.gate import VARIADIC_TYPES
from repro.netlist.simulate import random_patterns
from repro.synth.constprop import dead_code_eliminate, propagate_constants
from repro.netlist.strash import structural_hash
from repro.synth.rewrite import (
    demorgan_sample,
    flatten_and_rebalance,
    merge_inverter_pairs,
    sweep_buffers,
    xor_decompose_sample,
)

WIDTH = 64

LOCK_TECHNIQUES = ("ttlock", "sarlock", "antisat", "xor_lock")


def _lock_and_fold(circuit, rng):
    """Lock with a random technique, then fold the correct key back in.

    ``with_key`` keeps the original input/output interface, so the chain
    invariant (same function as the seed host) is preserved.
    """
    technique = rng.choice(LOCK_TECHNIQUES)
    key_width = 4
    if any(f"keyinput{i}" in circuit for i in range(key_width)):
        # A previous lock step's folded key constants still occupy the
        # conventional names; locking again would collide.
        return circuit
    lock = TECHNIQUES[technique]
    try:
        locked = lock(circuit, key_width, seed=rng.randrange(1 << 16))
    except LockingError:
        # Too few live internal wires to place the key gates (small hosts
        # can shrink below the key width); the link is a no-op.
        return circuit
    folded = locked.with_key(locked.correct_key)
    # Fold the key constants through and sweep the dead locking logic so
    # chained lock steps start from a clean namespace.
    folded, _ = propagate_constants(folded, {})
    folded, _ = dead_code_eliminate(folded)
    return folded


def _inplace_fanin_swap(circuit, rng):
    """Reverse the fanins of one commutative gate *in place*."""
    candidates = [
        g.name for g in circuit.gates()
        if g.gtype in VARIADIC_TYPES and len(g.fanins) >= 2
    ]
    if candidates:
        name = rng.choice(sorted(candidates))
        gate = circuit.gate(name)
        circuit.replace_gate(name, gate.gtype, tuple(reversed(gate.fanins)))
    return circuit


MUTATIONS = {
    "lock": _lock_and_fold,
    "strash": lambda c, rng: structural_hash(c)[0],
    "constprop": lambda c, rng: propagate_constants(c, {})[0],
    "dce": lambda c, rng: dead_code_eliminate(c)[0],
    "demorgan": lambda c, rng: demorgan_sample(c, rng, probability=0.4),
    "xor_decompose": lambda c, rng: xor_decompose_sample(c, rng, probability=0.5),
    "rebalance": lambda c, rng: flatten_and_rebalance(c, rng, balance=rng.random()),
    "merge_inv": lambda c, rng: merge_inverter_pairs(c),
    "sweep_buf": lambda c, rng: sweep_buffers(c),
    "inplace_swap": _inplace_fanin_swap,
}


def _memoless(compute):
    """Run ``compute`` with the structural memo disabled."""
    previous = cone.set_cone_memo(False)
    try:
        return compute()
    finally:
        cone.set_cone_memo(previous)


def _check_step(circuit, inputs, mask, reference_outputs, words):
    """The per-link invariants of a mutation chain."""
    # Engine vs interpreter equivalence on every signal.
    assert circuit.evaluate(words, mask) == circuit.evaluate_interpreted(
        words, mask
    )
    # The chain preserves the seed host's Boolean function.
    values = circuit.evaluate(words, mask, outputs_only=True)
    assert {o: values[o] for o in circuit.outputs} == reference_outputs
    # Memoized structural analyses match memo-disabled recomputation.
    roots = list(circuit.outputs)
    assert transitive_fanin(circuit, roots) == _memoless(
        lambda: transitive_fanin(circuit, roots)
    )
    probe = roots[0]
    assert support(circuit, probe) == _memoless(lambda: support(circuit, probe))
    first_input = circuit.inputs[0] if circuit.inputs else None
    if first_input is not None:
        assert transitive_fanout(circuit, [first_input]) == _memoless(
            lambda: transitive_fanout(circuit, [first_input])
        )


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_mutation_chain_preserves_function_and_caches(seed, data):
    rng = random.Random(("mutchain", seed).__str__())
    circuit = build_random_circuit(
        n_inputs=7, n_gates=35, n_outputs=3, seed=seed
    )
    words, mask = random_patterns(list(circuit.inputs), WIDTH,
                                  random.Random(seed))
    reference = circuit.evaluate_interpreted(words, mask, outputs_only=True)
    _check_step(circuit, circuit.inputs, mask, reference, words)

    names = data.draw(
        st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=3, max_size=7),
        label="chain",
    )
    for name in names:
        before_epoch = circuit.mutation_epoch
        mutated = MUTATIONS[name](circuit, rng)
        if mutated is circuit:
            # In-place mutation: epoch must advance and both caches drop.
            assert circuit.mutation_epoch >= before_epoch
        circuit = mutated
        _check_step(circuit, circuit.inputs, mask, reference, words)


@pytest.mark.parametrize("seed", range(4))
def test_inplace_mutation_invalidates_engine_and_memo(seed):
    circuit = build_random_circuit(n_inputs=6, n_gates=25, n_outputs=2,
                                   seed=seed)
    words, mask = random_patterns(list(circuit.inputs), WIDTH,
                                  random.Random(seed))
    # Warm both caches.
    engine_before = circuit.compiled()
    fanin_before = transitive_fanin(circuit, list(circuit.outputs))
    assert ("fanin", frozenset(circuit.outputs), True) in circuit.analysis_cache()
    epoch_before = circuit.mutation_epoch

    # Redefine one gate so the fan-in cone of the outputs changes: drive
    # it from primary inputs only.
    victim = next(
        g.name for g in circuit.gates()
        if g.gtype in VARIADIC_TYPES and g.name in fanin_before
    )
    circuit.replace_gate(victim, "AND", (circuit.inputs[0], circuit.inputs[1]))

    assert circuit.mutation_epoch > epoch_before
    assert circuit.analysis_cache() == {}
    assert circuit.compiled() is not engine_before
    # Post-mutation results are fresh, not stale memo hits.
    fanin_after = transitive_fanin(circuit, list(circuit.outputs))
    assert fanin_after == _memoless(
        lambda: transitive_fanin(circuit, list(circuit.outputs))
    )
    assert circuit.evaluate(words, mask) == circuit.evaluate_interpreted(
        words, mask
    )


def test_output_list_mutation_bumps_epoch():
    circuit = build_random_circuit(seed=9)
    epoch = circuit.mutation_epoch
    cached = cone.reachable_outputs(circuit, circuit.inputs[0])
    kept = circuit.outputs[-1]
    circuit.remove_output(kept)
    assert circuit.mutation_epoch > epoch
    fresh = cone.reachable_outputs(circuit, circuit.inputs[0])
    assert kept not in fresh
    assert fresh == [o for o in cached if o != kept]
    circuit.add_output(kept)
    assert cone.reachable_outputs(circuit, circuit.inputs[0]) == cached


def test_scope_after_in_place_mutation_matches_fresh_copy():
    """SCOPE on a netlist mutated in place equals SCOPE on a fresh copy:
    nothing derived from the pre-mutation structure leaks into a sweep."""
    from repro.attacks.scope import scope_attack

    locked = TECHNIQUES["sarlock"](
        build_random_circuit(n_inputs=8, n_gates=30, n_outputs=3, seed=3), 4,
        seed=3,
    )
    circuit = locked.circuit

    def sweep(netlist):
        return scope_attack(netlist, locked.key_inputs, rule="preserve")

    first = sweep(circuit)  # warms the topological order and fanout map
    # Invert the flip XOR in place: guesses under "preserve" may change.
    victim = next(g.name for g in circuit.gates() if g.gtype.value == "XOR")
    gate = circuit.gate(victim)
    circuit.replace_gate(victim, "XNOR", gate.fanins)
    second = sweep(circuit)
    fresh = sweep(circuit.copy())
    assert second.guesses == fresh.guesses
    assert second.areas == fresh.areas
    assert len(first.guesses) == len(second.guesses)
