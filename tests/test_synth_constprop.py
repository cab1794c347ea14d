"""Tests for constant propagation, DCE, and the SCOPE area feature."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from factories import build_exotic_circuit, build_random_circuit
from repro.netlist import Circuit
from repro.netlist.simulate import simulate_patterns
from repro.synth import (
    circuit_area,
    dead_code_eliminate,
    pinned_area,
    propagate_constants,
)


class TestPropagateConstants:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 300), pins=st.integers(1, 3), bits=st.integers(0, 7))
    def test_function_preserved_on_free_inputs(self, seed, pins, bits):
        circuit = build_random_circuit(n_inputs=6, n_gates=20, seed=seed)
        pinned = {f"x{i}": bool((bits >> i) & 1) for i in range(pins)}
        folded, _ = propagate_constants(circuit, pinned)
        free = [s for s in circuit.inputs if s not in pinned]
        for values in itertools.islice(itertools.product([0, 1], repeat=len(free)), 16):
            pattern = dict(zip(free, values))
            full = dict(pattern)
            full.update({k: int(v) for k, v in pinned.items()})
            expected = simulate_patterns(circuit, [full])[0]
            got = simulate_patterns(folded, [pattern])[0]
            assert got == expected

    def test_folding_counts(self, majority_circuit):
        folded, count = propagate_constants(majority_circuit, {"a": False})
        # ab and ac collapse to 0, f simplifies
        assert count >= 2
        assert folded.gate("ab").is_constant

    def test_pinned_inputs_removed_from_interface(self, majority_circuit):
        folded, _ = propagate_constants(majority_circuit, {"a": True})
        assert "a" not in folded.inputs
        assert folded.has_signal("a")

    def test_pin_on_gate_driven_signal_rejected(self, majority_circuit):
        # Folding ab's fanout as constant while ab kept its AND would
        # leave f computing a function of neither.
        with pytest.raises(ValueError, match="ab"):
            propagate_constants(majority_circuit, {"ab": True})

    def test_pin_on_absent_signal_is_noop(self, majority_circuit):
        from repro.netlist import check_equivalent

        folded, count = propagate_constants(majority_circuit, {"ghost": True})
        assert count == 0
        assert folded.inputs == majority_circuit.inputs
        assert check_equivalent(majority_circuit, folded)[0] is True

    def test_no_pins_is_identity_function(self, majority_circuit):
        folded, _ = propagate_constants(majority_circuit, {})
        from repro.netlist import check_equivalent

        assert check_equivalent(majority_circuit, folded)[0] is True


class TestDce:
    def test_removes_unreachable(self, majority_circuit):
        c = majority_circuit.copy()
        c.add_gate("orphan", "NOT", ("a",))
        cleaned, removed = dead_code_eliminate(c)
        assert removed == 1
        assert not cleaned.has_signal("orphan")

    def test_keeps_interface(self, majority_circuit):
        c = majority_circuit.copy()
        c.add_gate("orphan", "NOT", ("a",))
        cleaned, _ = dead_code_eliminate(c)
        assert cleaned.inputs == majority_circuit.inputs


class TestFeatures:
    def test_area_ignores_buffers(self):
        from repro.netlist import Circuit

        c = Circuit("t")
        c.add_input("a")
        c.add_gate("b1", "BUF", ("a",))
        c.add_gate("n1", "NOT", ("b1",))
        c.set_outputs(["n1"])
        assert circuit_area(c) == 1


def assert_pinned_area_exact(circuit, pins_list):
    """pinned_area equals the pinned netlist's area, every pin."""
    for pins in pins_list:
        pinned, _ = propagate_constants(circuit, pins)
        pinned, _ = dead_code_eliminate(pinned)
        assert pinned_area(circuit, pins) == circuit_area(pinned), pins


def key_pins(keys):
    return [{key: value} for key in keys for value in (False, True)]


PAPER_TECHNIQUES = ("sarlock", "antisat", "caslock", "genantisat",
                    "cac", "ttlock", "sfll_hd", "sfll_flex")
PIN_HOSTS = (("gen:c2670", 16), ("corpus:c432", None))


def _prepared(host, key_width, technique):
    from repro.experiments.harness import prepare_locked

    return prepare_locked(host, technique, scale="tiny", key_width=key_width)


class TestPinnedFeatures:
    @pytest.mark.parametrize("technique", PAPER_TECHNIQUES)
    @pytest.mark.parametrize("host,key_width", PIN_HOSTS)
    def test_locked_netlists(self, host, key_width, technique):
        prep = _prepared(host, key_width, technique)
        assert_pinned_area_exact(prep.netlist, key_pins(prep.locked.key_inputs))

    @pytest.mark.parametrize("technique", PAPER_TECHNIQUES)
    def test_kratt_ol_scope_inputs(self, technique):
        """The circuits KRATT-OL hands SCOPE: the modified locking unit
        (SFLTs) and the PPI-to-key substituted subcircuit (DFLTs)."""
        from repro.attacks.kratt import (
            classify_restore_unit,
            extract_unit,
            modified_dflt_subcircuit,
            modified_locking_unit,
        )

        prep = _prepared("gen:c2670", 16, technique)
        extraction = extract_unit(prep.netlist, prep.locked.key_inputs)
        if technique in PAPER_TECHNIQUES[:4]:
            circuit = modified_locking_unit(extraction)
        else:
            off = classify_restore_unit(extraction).off_value
            circuit, _ = modified_dflt_subcircuit(extraction, off_value=off)
        keys = [k for k in prep.locked.key_inputs if k in circuit.inputs]
        assert keys
        assert_pinned_area_exact(circuit, key_pins(keys))

    def test_key_drives_output_directly(self):
        c = Circuit("direct")
        for name in ("k", "a", "b"):
            c.add_input(name)
        c.add_gate("g", "XOR", ("k", "a"))
        c.add_gate("h", "NAND", ("g", "b"))
        c.set_outputs(["k", "h", "k"])
        assert_pinned_area_exact(c, key_pins(["k", "a"]))

    def test_dangling_key(self):
        c = Circuit("dangling")
        for name in ("k", "a", "b"):
            c.add_input(name)
        c.add_gate("g", "OR", ("a", "b"))
        c.add_gate("n", "NOT", ("g",))
        c.set_outputs(["n"])
        assert_pinned_area_exact(c, key_pins(["k"]))

    def test_pin_folds_output_to_constant(self):
        c = Circuit("fold")
        for name in ("k", "a", "b"):
            c.add_input(name)
        c.add_gate("g", "AND", ("k", "a"))
        c.add_gate("h", "NOR", ("g", "k"))
        c.add_gate("o", "XOR", ("h", "b"))
        c.set_outputs(["g", "h", "o"])
        assert_pinned_area_exact(c, key_pins(["k"]))

    def test_only_free_input_pinned(self):
        c = Circuit("single")
        c.add_input("k")
        c.add_gate("n", "NOT", ("k",))
        c.add_gate("b", "BUF", ("n",))
        c.add_gate("o", "XNOR", ("n", "b"))
        c.set_outputs(["o", "b"])
        assert_pinned_area_exact(c, key_pins(["k"]))

    def test_no_outputs(self):
        c = Circuit("open")
        for name in ("k", "a"):
            c.add_input(name)
        c.add_gate("g", "AND", ("k", "a"))
        assert_pinned_area_exact(c, key_pins(["k"]))

    @pytest.mark.parametrize("seed", range(6))
    def test_exotic_gates_and_multi_pins(self, seed):
        """Constants, buffer chains, variadic gates; single and paired pins."""
        c = build_exotic_circuit(seed=seed)
        inputs = list(c.inputs)
        pairs = [{a: bool(seed & 1), b: bool(seed & 2)}
                 for a, b in zip(inputs, inputs[1:])]
        assert_pinned_area_exact(c, key_pins(inputs) + pairs)

    def test_pin_on_gate_driven_signal_rejected(self, majority_circuit):
        with pytest.raises(ValueError):
            pinned_area(majority_circuit, {"ab": False})
