"""Randomized differential tests: compiled engine vs the reference interpreter.

Every entry point of :class:`repro.netlist.engine.CompiledCircuit` (the
instruction interpreter and chunked exhaustive sweeps) must be
bit-identical to :meth:`Circuit.evaluate_interpreted`, the dict-keyed
reference semantics, on every signal — across gate types, fan-in shapes,
word widths, and structural mutation of the circuit.
"""

import random

import pytest

from factories import build_exotic_circuit, build_random_circuit
from repro.netlist.engine import DEFAULT_CHUNK_BITS
from repro.netlist.simulate import exhaustive_patterns

# Spread of simulation word widths: scalar, narrow, machine-word-ish, and
# wider than the engine's default sweep chunk.
WIDTHS = (1, 7, 64, (1 << DEFAULT_CHUNK_BITS) + 5)

FACTORIES = {
    "plain": lambda seed: build_random_circuit(
        n_inputs=7, n_gates=40, n_outputs=4, seed=seed
    ),
    "exotic": lambda seed: build_exotic_circuit(seed=seed),
}


def _random_assignment(circuit, width, seed):
    rng = random.Random(("diff-words", seed, width).__str__())
    mask = (1 << width) - 1
    return {name: rng.getrandbits(width) & mask for name in circuit.inputs}, mask


@pytest.mark.parametrize("kind", sorted(FACTORIES))
@pytest.mark.parametrize("seed", range(6))
def test_instruction_interpreter_matches_interpreted(kind, seed):
    circuit = FACTORIES[kind](seed)
    engine = circuit.compiled()
    for width in WIDTHS:
        assignment, mask = _random_assignment(circuit, width, seed)
        assert engine.evaluate(assignment, mask) == circuit.evaluate_interpreted(
            assignment, mask
        )


@pytest.mark.parametrize("seed", range(4))
def test_wide_fanin_and_constants_all_widths(seed):
    """Exotic circuits route through every opcode the engine lowers to."""
    circuit = build_exotic_circuit(seed=seed, n_inputs=9, n_gates=70)
    hist = {g.gtype.value for g in circuit.gates()}
    assert any(len(circuit.gate(n).fanins) > 2 for n in circuit.signals
               if not circuit.gate(n).is_input), hist
    engine = circuit.compiled()
    for width in (1, 3, 255):
        assignment, mask = _random_assignment(circuit, width, seed)
        assert engine.evaluate(assignment, mask) == circuit.evaluate_interpreted(
            assignment, mask
        )


@pytest.mark.parametrize("chunk_bits", (2, 5, DEFAULT_CHUNK_BITS))
@pytest.mark.parametrize("seed", range(3))
def test_chunked_exhaustive_sweep_matches_interpreted(chunk_bits, seed):
    """Chunk reassembly across chunk-boundary widths must lose no pattern."""
    circuit = build_random_circuit(n_inputs=8, n_gates=35, n_outputs=4, seed=seed)
    names = list(circuit.inputs)
    out_words, mask = circuit.compiled().exhaustive_outputs(
        names, chunk_bits=chunk_bits
    )
    ref_assignment, ref_mask = exhaustive_patterns(names)
    ref = circuit.evaluate_interpreted(ref_assignment, ref_mask, outputs_only=True)
    assert mask == ref_mask
    assert out_words == ref


@pytest.mark.parametrize("seed", range(3))
def test_subset_sweep_with_fixed_inputs(seed):
    """Sweeping a subset with pinned leftovers matches the reference."""
    circuit = build_random_circuit(n_inputs=8, n_gates=35, n_outputs=4, seed=seed)
    names = list(circuit.inputs)
    swept, pinned = names[:5], names[5:]
    fixed = {name: i % 2 for i, name in enumerate(pinned)}
    out_words, mask = circuit.compiled().exhaustive_outputs(
        swept, fixed=fixed, chunk_bits=3
    )
    ref_assignment, ref_mask = exhaustive_patterns(swept)
    for name in pinned:
        ref_assignment[name] = ref_mask if fixed[name] else 0
    ref = circuit.evaluate_interpreted(ref_assignment, ref_mask, outputs_only=True)
    assert out_words == ref


@pytest.mark.parametrize("seed", range(4))
def test_post_mutation_cache_invalidation(seed):
    """Mutating the netlist must recompile; stale instructions are a
    wrong-answer bug."""
    circuit = build_random_circuit(n_inputs=6, n_gates=25, n_outputs=3, seed=seed)
    stale = circuit.compiled()

    a, b = list(circuit.inputs)[:2]
    circuit.add_gate("mut_xor", "XOR", (a, b))
    circuit.set_outputs(list(circuit.outputs) + ["mut_xor"])

    engine = circuit.compiled()
    assert engine is not stale, "compiled() must rebuild after mutation"
    for width in (1, 64):
        assignment, mask = _random_assignment(circuit, width, seed)
        got = engine.evaluate(assignment, mask)
        ref = circuit.evaluate_interpreted(assignment, mask)
        assert got == ref
        assert got["mut_xor"] == (assignment[a] ^ assignment[b]) & mask


def test_repeated_mutation_keeps_paths_in_lockstep():
    """Grow a circuit gate by gate; every growth step re-checks both paths."""
    rng = random.Random("lockstep")
    circuit = build_random_circuit(n_inputs=5, n_gates=8, n_outputs=2, seed=99)
    signals = list(circuit.signals)
    for step in range(6):
        a, b = rng.sample(signals, 2)
        name = f"grow{step}"
        circuit.add_gate(name, rng.choice(["AND", "OR", "XOR", "NAND"]), (a, b))
        signals.append(name)
        circuit.set_outputs([name])
        assignment, mask = _random_assignment(circuit, 33, step)
        assert circuit.evaluate(assignment, mask) == circuit.evaluate_interpreted(
            assignment, mask
        )


# ----------------------------------------------------------------------
# Oracle queries pack their input words through the engine's input-slot
# map: bit-identical to a fresh oracle and to the reference semantics,
# and re-derived (with the engine) after a mutation.
# ----------------------------------------------------------------------


def _oracle_patterns(circuit, count, seed, partial=False):
    rng = random.Random(("oracle-pack", seed, partial).__str__())
    names = list(circuit.inputs)
    patterns = []
    for _ in range(count):
        chosen = names if not partial else rng.sample(
            names, rng.randint(0, len(names))
        )
        patterns.append({n: bool(rng.getrandbits(1)) for n in chosen})
    return patterns


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("partial", [False, True])
def test_oracle_cached_pack_bit_identical_to_fresh_derivation(seed, partial):
    from repro.attacks.oracle import Oracle

    circuit = build_random_circuit(n_inputs=7, n_gates=40, n_outputs=4, seed=seed)
    patterns = _oracle_patterns(circuit, 12, seed, partial=partial)

    cached = Oracle(circuit)
    got = [cached.query(p) for p in patterns]

    fresh = [Oracle(circuit).query(p) for p in patterns]
    assert got == fresh

    # Batch path shares the same input slots and the same bits.
    assert cached.query_batch(patterns) == got

    # Reference semantics: each query equals the interpreted evaluation
    # of the fully-defaulted assignment.
    for pattern, y in zip(patterns, got):
        assignment = {n: 0 for n in circuit.inputs}
        assignment.update({n: int(v) for n, v in pattern.items()})
        ref = circuit.evaluate_interpreted(assignment, 1, outputs_only=True)
        assert y == {o: ref[o] & 1 for o in circuit.outputs}


def test_oracle_pack_rederives_after_circuit_mutation():
    """Defensive: a mutated oracle circuit gets a fresh engine, whose
    input-slot map covers the new input instead of serving stale
    positions."""
    from repro.attacks.oracle import Oracle

    circuit = build_random_circuit(n_inputs=5, n_gates=15, n_outputs=2, seed=0)
    oracle = Oracle(circuit)
    pattern = {n: True for n in circuit.inputs}
    oracle.query(pattern)
    circuit.add_input("late_in")
    circuit.add_gate("late_or", "OR", (list(circuit.inputs)[0], "late_in"))
    circuit.set_outputs(list(circuit.outputs) + ["late_or"])
    y = oracle.query({**pattern, "late_in": True})
    assert y["late_or"] == 1
