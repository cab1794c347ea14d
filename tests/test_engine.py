"""Regression tests for the compiled evaluation engine and solver hot path.

Three contracts guarded here:

* the engine's instruction interpreter is bit-identical to the
  reference dict interpreter (``Circuit.evaluate_interpreted``) on every
  gate type and word width;
* the compiled cache on :class:`Circuit` invalidates on every structural
  mutation;
* the CDCL solver is deterministic for a fixed clause insertion order
  after the encoded-literal overhaul.
"""

import pytest

from factories import build_exotic_circuit, build_random_circuit
from repro.netlist import Circuit, EvaluationError
from repro.netlist.engine import DEFAULT_CHUNK_BITS, CompiledCircuit
from repro.netlist.simulate import (
    exhaustive_patterns,
    pack_patterns,
    random_patterns,
    simulate_exhaustive,
    simulate_patterns,
)
from repro.sat.solver import Solver


def assert_engine_matches_interpreter(circuit, widths=(1, 8, 64, 300)):
    import random

    rng = random.Random(("engine-eq", circuit.name).__str__())
    engine = circuit.compiled()
    for width in widths:
        mask = (1 << width) - 1
        assignment = {s: rng.getrandbits(width) for s in circuit.inputs}
        ref = circuit.evaluate_interpreted(assignment, mask)
        assert engine.evaluate(assignment, mask) == ref
        ref_out = {o: ref[o] for o in circuit.outputs}
        assert engine.evaluate(assignment, mask, outputs_only=True) == ref_out
        assert engine.output_words(assignment, mask) == tuple(
            ref[o] for o in circuit.outputs
        )


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits(self, seed):
        circuit = build_random_circuit(
            n_inputs=8, n_gates=60, n_outputs=5, seed=seed
        )
        assert_engine_matches_interpreter(circuit)

    @pytest.mark.parametrize("seed", range(4))
    def test_exotic_circuits(self, seed):
        """Constants, BUF/NOT chains, and variadic gates all compile."""
        circuit = build_exotic_circuit(seed=seed)
        assert_engine_matches_interpreter(circuit)

    def test_wrapper_delegates_to_engine(self):
        circuit = build_random_circuit(seed=11)
        assignment, mask = exhaustive_patterns(list(circuit.inputs))
        assert circuit.evaluate(assignment, mask) == circuit.evaluate_interpreted(
            assignment, mask
        )

    def test_missing_input_raises(self):
        circuit = build_random_circuit(seed=3)
        with pytest.raises(EvaluationError):
            circuit.evaluate({}, 1)

    def test_input_words_masked(self):
        circuit = build_random_circuit(seed=4)
        assignment = {s: -1 & ((1 << 70) - 1) for s in circuit.inputs}
        values = circuit.evaluate(assignment, 1)
        for s in circuit.inputs:
            assert values[s] in (0, 1)


class TestChunkedSweep:
    @pytest.mark.parametrize("chunk_bits", [3, 6, 13])
    def test_matches_full_width_words(self, chunk_bits):
        circuit = build_random_circuit(n_inputs=9, n_gates=50, seed=5)
        assignment, mask = exhaustive_patterns(list(circuit.inputs))
        ref = circuit.evaluate_interpreted(assignment, mask, outputs_only=True)
        merged, merged_mask = circuit.compiled().exhaustive_outputs(
            chunk_bits=chunk_bits
        )
        assert merged_mask == mask
        assert merged == ref

    def test_default_chunk_width(self):
        circuit = build_random_circuit(n_inputs=14, n_gates=50, seed=4)
        engine = CompiledCircuit(circuit)
        width = 1 << DEFAULT_CHUNK_BITS
        chunks = [(offset, w) for offset, w, _m, _o in engine.sweep_exhaustive()]
        assert chunks == [(0, width), (width, width)]
        assignment, mask = exhaustive_patterns(list(circuit.inputs))
        ref = circuit.evaluate_interpreted(assignment, mask, outputs_only=True)
        assert circuit.compiled().exhaustive_outputs() == (ref, mask)

    def test_partial_sweep_with_fixed(self):
        circuit = build_random_circuit(n_inputs=8, n_gates=40, seed=6)
        sub = list(circuit.inputs)[:5]
        rest = list(circuit.inputs)[5:]
        fixed = {rest[0]: 1}
        assignment, mask = exhaustive_patterns(sub)
        for s in rest:
            assignment[s] = mask if fixed.get(s) else 0
        ref = circuit.evaluate_interpreted(assignment, mask, outputs_only=True)
        merged, _ = circuit.compiled().exhaustive_outputs(
            sub, fixed=fixed, chunk_bits=3
        )
        assert merged == ref

    def test_simulate_exhaustive_chunked(self):
        circuit = build_random_circuit(n_inputs=7, n_gates=30, seed=7)
        wide = simulate_exhaustive(circuit)
        narrow = simulate_exhaustive(circuit, chunk_bits=2)
        assert wide == narrow

    def test_unknown_sweep_input_rejected(self):
        circuit = build_random_circuit(seed=8)
        with pytest.raises(EvaluationError):
            list(circuit.compiled().sweep_exhaustive(["nope"]))

    def test_too_many_inputs_rejected(self):
        circuit = build_random_circuit(seed=9)
        with pytest.raises(ValueError):
            list(circuit.compiled().sweep_exhaustive([f"x{i}" for i in range(30)]))


class TestCompiledCache:
    def test_cache_reused_until_mutation(self):
        circuit = build_random_circuit(seed=20)
        first = circuit.compiled()
        assert circuit.compiled() is first
        assert first.input_slot == {
            name: i for i, name in enumerate(circuit.inputs)
        }
        # perfbench's load_native reads this stub: there is no native
        # simulation backend to engage.
        assert first.ensure_native(force=True) is False

    def test_replace_gate_invalidates(self):
        circuit = build_random_circuit(n_inputs=4, n_gates=10, seed=21)
        words, mask = random_patterns(list(circuit.inputs), 32)
        before = circuit.evaluate(words, mask)
        from repro.netlist.gate import COMPLEMENT_OF

        target = next(circuit.gates()).name
        old = circuit.gate(target)
        circuit.replace_gate(target, COMPLEMENT_OF[old.gtype], old.fanins)
        after = circuit.evaluate(words, mask)
        assert after == circuit.evaluate_interpreted(words, mask)
        assert after[target] == mask ^ before[target]

    def test_remove_and_readd_gate_invalidates(self):
        circuit = build_random_circuit(n_inputs=4, n_gates=10, seed=22)
        words, mask = random_patterns(list(circuit.inputs), 16)
        circuit.evaluate(words, mask)  # populate the cache
        last = list(circuit.topological_order())[-1]
        if last in circuit.outputs:
            circuit.remove_output(last)
        circuit.remove_gate(last)
        circuit.add_gate(last, "NOT", (circuit.inputs[0],))
        got = circuit.evaluate(words, mask)
        assert got == circuit.evaluate_interpreted(words, mask)
        assert got[last] == mask ^ (words[circuit.inputs[0]] & mask)

    def test_output_list_changes_invalidate(self):
        """set_outputs/add_output/remove_output must drop the compiled
        cache: the engine snapshots the output list at build time."""
        circuit = build_random_circuit(n_inputs=4, n_gates=10, seed=25)
        words, mask = random_patterns(list(circuit.inputs), 8)
        circuit.evaluate(words, mask, outputs_only=True)  # populate cache
        gates = [g.name for g in circuit.gates()]
        other = next(g for g in gates if g not in circuit.outputs)
        circuit.set_outputs([other])
        got = circuit.evaluate(words, mask, outputs_only=True)
        assert list(got) == [other]
        assert got == circuit.evaluate_interpreted(words, mask, outputs_only=True)
        circuit.add_output(gates[0])
        assert circuit.output_vector(words, mask) == tuple(
            circuit.evaluate_interpreted(words, mask)[o] for o in (other, gates[0])
        )
        circuit.remove_output(gates[0])
        assert list(circuit.compiled().output_names) == [other]

    def test_pack_input_words_matches_manual_packing(self):
        circuit = build_random_circuit(n_inputs=5, n_gates=12, seed=26)
        engine = circuit.compiled()
        patterns = [
            {s: (i + j) % 2 for j, s in enumerate(circuit.inputs)}
            for i in range(7)
        ]
        words, mask = engine.pack_input_words(patterns, fixed={circuit.inputs[0]: 1})
        assert mask == (1 << 7) - 1
        assert words[0] == mask  # fixed input pinned across every pattern
        out = engine.output_words_from_list(words, mask)
        for j in range(7):
            scalar = dict(patterns[j])
            scalar[circuit.inputs[0]] = 1
            ref = circuit.evaluate_interpreted(scalar, 1, outputs_only=True)
            assert tuple((w >> j) & 1 for w in out) == tuple(
                ref[o] for o in circuit.outputs
            )
        with pytest.raises(ValueError):
            engine.pack_input_words([])

    @pytest.mark.parametrize("default", [0, 1])
    def test_pack_input_words_sparse_patterns(self, default):
        """Partial patterns, names the engine lacks, truthy non-0/1
        values and ``fixed`` pack exactly as one ``get`` per (input,
        pattern) pair would."""
        import random

        circuit = build_random_circuit(n_inputs=9, n_gates=20, seed=27)
        engine = circuit.compiled()
        rng = random.Random(27)
        names = list(circuit.inputs) + ["not_an_input"]
        patterns = [
            {s: rng.choice([0, 1, 2, None, True, False])
             for s in rng.sample(names, rng.randint(0, len(names)))}
            for _ in range(11)
        ]
        fixed = {circuit.inputs[3]: 0, "not_an_input": 1}
        words, mask = engine.pack_input_words(patterns, fixed=fixed,
                                              default=default)
        expected = []
        for name in engine.input_names:
            if name in fixed:
                expected.append(mask if fixed[name] else 0)
                continue
            expected.append(sum(
                1 << j for j, p in enumerate(patterns)
                if p.get(name, default)
            ))
        assert (words, mask) == (expected, (1 << 11) - 1)

    def test_copy_does_not_share_cache(self):
        circuit = build_random_circuit(n_inputs=4, n_gates=8, seed=23)
        circuit.compiled()
        dup = circuit.copy()
        target = next(dup.gates()).name
        old = dup.gate(target)
        dup.replace_gate(
            target, "NAND" if old.gtype.value != "NAND" else "AND", old.fanins
        )
        words, mask = random_patterns(list(circuit.inputs), 8)
        assert circuit.evaluate(words, mask) == circuit.evaluate_interpreted(
            words, mask
        )
        assert dup.evaluate(words, mask) == dup.evaluate_interpreted(words, mask)


class TestPatternHelpers:
    def test_pack_patterns_empty_raises(self):
        with pytest.raises(ValueError):
            pack_patterns(["a", "b"], [])

    def test_simulate_patterns_empty_returns_empty(self):
        circuit = build_random_circuit(seed=24)
        assert simulate_patterns(circuit, []) == []

    def test_exhaustive_patterns_cap_message(self):
        with pytest.raises(ValueError):
            exhaustive_patterns([f"x{i}" for i in range(25)])


def _reference_clauses():
    import random

    rng = random.Random("solver-determinism")
    clauses = []
    for _ in range(220):
        vs = rng.sample(range(1, 41), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


class TestSolverDeterminism:
    def test_same_clause_order_same_model_and_stats(self):
        clauses = _reference_clauses()
        runs = []
        for _ in range(2):
            solver = Solver()
            for clause in clauses:
                solver.add_clause(clause)
            status = solver.solve()
            model = solver.model() if status is True else None
            runs.append(
                (status, model, solver.conflicts, solver.decisions,
                 solver.propagations)
            )
        assert runs[0] == runs[1]

    def test_assumption_order_determinism(self):
        clauses = _reference_clauses()
        results = []
        for _ in range(2):
            solver = Solver()
            for clause in clauses:
                solver.add_clause(clause)
            r1 = solver.solve(assumptions=(1, -2))
            r2 = solver.solve(assumptions=(-1, 2))
            results.append((r1, r2, solver.conflicts, solver.propagations))
        assert results[0] == results[1]

    def test_stats_snapshot_keys(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.solve()
        snap = solver.stats_snapshot()
        assert set(snap) == {"conflicts", "decisions", "propagations"}
