"""Native (C) backend: availability gating, caching, and fallbacks.

Bit-identity of the native engine against the reference interpreter is
covered here for the direct ``NativeKernel`` surface and (more broadly)
in ``tests/test_differential.py``; this module owns the lifecycle:
environment knobs, the compile-once content-addressed cache, corrupt
cache recovery, the auto-engagement cost model, and the guarantee that
every failure mode degrades to the Python kernels.
"""

import ctypes
import multiprocessing
import os
import random

import pytest

from factories import build_exotic_circuit, build_random_circuit
from repro import nativelib
from repro.netlist import native
from repro.netlist.engine import (
    _NATIVE_AFTER_RUNS,
    CompiledCircuit,
)

HAVE_CC = native.find_compiler() is not None

needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on host")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Fresh cache dir per test; engine-load outcomes reset around it."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path / "cache"))
    native.clear_engine_cache()
    yield str(tmp_path / "cache")
    native.clear_engine_cache()


def _native_engine(circuit):
    engine = CompiledCircuit(circuit, native=True)
    assert engine.ensure_native(force=True), native.last_error()
    return engine


class TestAvailability:
    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert not native.native_enabled()
        assert not native.native_available()

    def test_compiler_override_missing_binary(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
        assert native.find_compiler() is None
        assert not native.native_available()

    @needs_cc
    def test_compiler_override_bare_name_resolves_on_path(self, monkeypatch):
        """REPRO_NATIVE_CC=gcc (the CC= idiom) must resolve via PATH."""
        import shutil as _shutil

        for name in ("cc", "gcc", "clang"):
            resolved = _shutil.which(name)
            if resolved:
                break
        monkeypatch.setenv("REPRO_NATIVE_CC", name)
        assert native.find_compiler() == resolved
        monkeypatch.setenv("REPRO_NATIVE_CC", "definitely-not-a-compiler")
        assert native.find_compiler() is None

    def test_build_kernel_degrades_to_none(self, monkeypatch, cache_dir):
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
        circuit = build_random_circuit(seed=0)
        engine = CompiledCircuit(circuit, native=True)
        assert native.build_kernel(engine) is None
        assert "no C compiler" in native.last_error()

    def test_engine_falls_back_silently(self, monkeypatch, cache_dir):
        """ensure_native fails closed; evaluation stays correct."""
        monkeypatch.setenv("REPRO_NATIVE", "0")
        circuit = build_random_circuit(seed=1)
        engine = CompiledCircuit(circuit, native=True)
        assert engine.ensure_native(force=True) is False
        assert engine.backend != "native"
        assignment = {name: 1 for name in circuit.inputs}
        assert engine.evaluate(assignment, 1) == circuit.evaluate_interpreted(
            assignment, 1
        )

    def test_compiler_info_shape(self):
        info = native.compiler_info()
        assert set(info) == {"cc", "available"}


@needs_cc
class TestKernelIdentity:
    @pytest.mark.parametrize("seed", range(3))
    def test_evaluate_matches_interpreter(self, cache_dir, seed):
        circuit = build_exotic_circuit(seed=seed)
        engine = _native_engine(circuit)
        rng = random.Random(("native-id", seed).__str__())
        for width in (1, 63, 64, 65, 8197):
            mask = (1 << width) - 1
            assignment = {n: rng.getrandbits(width) for n in circuit.inputs}
            assert engine.evaluate(assignment, mask) == (
                circuit.evaluate_interpreted(assignment, mask)
            )

    def test_oversized_input_words_are_masked(self, cache_dir):
        circuit = build_random_circuit(seed=2)
        engine = _native_engine(circuit)
        wide = {n: (1 << 200) - 1 for n in circuit.inputs}
        mask = (1 << 8) - 1
        assert engine.evaluate(wide, mask) == circuit.evaluate_interpreted(
            wide, mask
        )

    def test_sweep_after_execute_does_not_leak_state(self, cache_dir):
        """execute() invalidates the cached sweep buffer fill."""
        circuit = build_random_circuit(seed=3)
        engine = _native_engine(circuit)
        names = list(circuit.inputs)
        swept, pinned = names[:3], names[3:]
        fixed = {n: 0 for n in pinned}
        ref, _ = CompiledCircuit(circuit, native=False).exhaustive_outputs(
            swept, fixed=fixed
        )
        first, _ = engine.exhaustive_outputs(swept, fixed=fixed)
        # Poison every input slot with all-ones, then re-sweep.
        engine.evaluate({n: (1 << 16) - 1 for n in names}, (1 << 16) - 1)
        second, _ = engine.exhaustive_outputs(swept, fixed=fixed)
        assert first == second == ref

    def test_evaluation_interleaved_mid_sweep(self, cache_dir):
        """An evaluate() between two chunk yields must not clobber the
        fixed inputs the remaining chunks depend on."""
        circuit = build_random_circuit(n_inputs=8, n_gates=40, seed=6)
        engine = _native_engine(circuit)
        names = list(circuit.inputs)
        swept, pinned = names[:6], names[6:]
        fixed = {n: 1 for n in pinned}

        reference = list(
            CompiledCircuit(circuit, native=False).sweep_exhaustive(
                swept, fixed=fixed, chunk_bits=3
            )
        )
        sweep = engine.sweep_exhaustive(swept, fixed=fixed, chunk_bits=3)
        got = [next(sweep)]
        # Interleave work that rewrites every input slot to zero.
        engine.evaluate({n: 0 for n in names}, 1)
        got.extend(sweep)
        assert got == reference


@needs_cc
class TestCache:
    def test_engine_compiles_once_and_is_shared(self, cache_dir):
        _native_engine(build_random_circuit(seed=0))
        entries = [f for f in os.listdir(cache_dir) if f.endswith(".so")]
        assert len(entries) == 1
        # A structurally different circuit binds to the same library.
        _native_engine(build_random_circuit(seed=1, n_gates=33))
        entries_after = [f for f in os.listdir(cache_dir) if f.endswith(".so")]
        assert entries_after == entries

    def test_no_tmp_files_left_behind(self, cache_dir):
        _native_engine(build_random_circuit(seed=0))
        leftovers = [f for f in os.listdir(cache_dir) if ".tmp." in f]
        assert leftovers == []

    def test_corrupt_cache_entry_is_rebuilt(self, cache_dir):
        """A fresh process finding a torn .so drops and rebuilds it.

        The corrupt entry is planted *before* anything dlopens it: a
        live process never overwrites a mapped library in place (the
        recovery path republishes via unlink + rename for exactly that
        reason).
        """
        digest = nativelib.source_digest(
            native.engine_source(), nativelib.find_compiler(),
            nativelib.extra_flags(),
        )
        os.makedirs(cache_dir, exist_ok=True)
        path = os.path.join(cache_dir, f"{digest}.so")
        with open(path, "wb") as handle:
            handle.write(b"this is not a shared object")
        engine = _native_engine(build_random_circuit(seed=0))
        assignment = {n: 1 for n in engine.input_names}
        assert engine.evaluate(assignment, 1) == (
            build_random_circuit(seed=0).evaluate_interpreted(assignment, 1)
        )
        with open(path, "rb") as handle:
            assert handle.read(4) == b"\x7fELF"

    def test_failure_is_remembered_per_process(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path / "c"))
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
        native.clear_engine_cache()
        with pytest.raises(native.NativeUnavailable):
            native._load_engine()
        # Second call must hit the per-process failure cache (same error
        # object), not retry discovery.
        with pytest.raises(native.NativeUnavailable):
            native._load_engine()
        native.clear_engine_cache()


def _race_build(args):
    cache, seed = args
    os.environ["REPRO_NATIVE_CACHE_DIR"] = cache
    import random as _random

    import sys
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from factories import build_random_circuit as build

    from repro.netlist import native as nat
    from repro.netlist.engine import CompiledCircuit as CC

    nat.clear_engine_cache()
    circuit = build(seed=seed)
    engine = CC(circuit, native=True)
    if not engine.ensure_native(force=True):
        return ("fail", nat.last_error())
    rng = _random.Random(seed)
    assignment = {n: rng.getrandbits(32) for n in circuit.inputs}
    mask = (1 << 32) - 1
    got = engine.evaluate(assignment, mask)
    ref = circuit.evaluate_interpreted(assignment, mask)
    return ("ok", got == ref)


@needs_cc
def test_concurrent_engine_builds_race_benignly(tmp_path):
    """Two processes compiling into one empty cache both end up healthy."""
    cache = str(tmp_path / "shared-cache")
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        results = pool.map(_race_build, [(cache, 0), (cache, 1)])
    assert results == [("ok", True), ("ok", True)]
    assert len([f for f in os.listdir(cache) if f.endswith(".so")]) == 1
    assert [f for f in os.listdir(cache) if ".tmp." in f] == []


@needs_cc
class TestEngagementPolicy:
    def test_small_circuit_stays_python(self, cache_dir):
        """Below the size floor, auto mode never binds the C engine."""
        circuit = build_random_circuit(seed=0)  # 20 gates
        engine = CompiledCircuit(circuit)
        assignment = {n: 0 for n in circuit.inputs}
        for _ in range(_NATIVE_AFTER_RUNS + 5):
            engine.evaluate(assignment, 1)
        assert engine.backend != "native"

    def test_io_heavy_circuit_stays_python(self, cache_dir):
        """Gates >= floor but boundary-bound: cost model keeps Python."""
        circuit = build_random_circuit(
            n_inputs=40, n_gates=100, n_outputs=30, seed=4
        )
        engine = CompiledCircuit(circuit)
        assert not engine._native_worthwhile()
        assert engine.ensure_native() is False
        assert engine.ensure_native(force=True) is True

    def test_gate_heavy_circuit_auto_engages(self, cache_dir):
        circuit = build_random_circuit(
            n_inputs=8, n_gates=150, n_outputs=4, seed=5
        )
        engine = CompiledCircuit(circuit)
        assignment = {n: 0 for n in circuit.inputs}
        for _ in range(_NATIVE_AFTER_RUNS + 1):
            engine.evaluate(assignment, 1)
        assert engine.backend == "native"

    def test_ephemeral_circuit_never_compiles(self, cache_dir):
        circuit = build_random_circuit(
            n_inputs=8, n_gates=150, n_outputs=4, seed=5
        ).mark_ephemeral()
        engine = circuit.compiled()
        assignment = {n: 0 for n in circuit.inputs}
        for _ in range(_NATIVE_AFTER_RUNS + 5):
            engine.evaluate(assignment, 1)
        assert engine.backend == "interpreted"
        assert engine.ensure_native(force=True) is False


@needs_cc
def test_source_render_is_deterministic():
    assert native.engine_source() == native.engine_source()
    assert "repro_run" in native.engine_source()
    assert "repro_sweep_run" in native.engine_source()


@needs_cc
def test_kernel_repr_and_buffer_reuse(cache_dir):
    circuit = build_random_circuit(seed=0)
    engine = _native_engine(circuit)
    kernel = engine._native
    assert "NativeKernel" in repr(kernel)
    buf1, view1 = kernel._buffer(2)
    buf2, _view2 = kernel._buffer(2)
    assert buf1 is buf2
    assert isinstance(view1, ctypes.Array)
