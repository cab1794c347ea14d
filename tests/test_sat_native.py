"""Native (C) solver core: gating, caching, and fallback.

Bit-identity of the native search core against the Python loop is
covered at fuzz depth in ``tests/test_solver_differential.py``; this
module owns the lifecycle (:mod:`repro.nativelib`): the one switch
``REPRO_NATIVE_SOLVER``, compiler discovery, the compile-once
content-addressed cache, corrupt cache recovery, ``last_error`` telling
the outcome of the latest lookup, and the guarantee that every failure
degrades to the Python loop with the same answers.
"""

import multiprocessing
import os
import shutil

import pytest

from factories import random_3cnf
from repro import nativelib
from repro.sat import Solver
from repro.sat import native as sat_native

HAVE_CC = nativelib.find_compiler() is not None

needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on host")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Fresh cache dir per test; the core's load outcome is reset.

    The ambient environment is pinned to native-on so the suite means
    the same thing under ``REPRO_NATIVE_SOLVER=0``; tests that exercise
    the knobs override them explicitly.
    """
    monkeypatch.delenv("REPRO_NATIVE_SOLVER", raising=False)
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path / "cache"))
    nativelib.clear_cache()
    yield str(tmp_path / "cache")
    nativelib.clear_cache()


def _solve_both(cnf, **kwargs):
    results = []
    for native in (False, True):
        solver = Solver(native=native)
        solver.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            solver.add_clause(list(clause))
        status = solver.solve(**kwargs)
        model = solver.model() if status is True else None
        results.append(
            (status, solver.propagations, solver.conflicts,
             solver.decisions, model, solver.backend)
        )
    return results


class TestAvailability:
    def test_switch_disables_solver(self, monkeypatch, cache_dir):
        monkeypatch.setenv("REPRO_NATIVE_SOLVER", "0")
        assert not nativelib.native_enabled()
        assert not nativelib.native_available()
        assert Solver().backend == "python"
        assert "disabled" in nativelib.last_error()
        # The retired master switch turns nothing on or off.
        monkeypatch.setenv("REPRO_NATIVE", "1")
        assert Solver().backend == "python"
        monkeypatch.delenv("REPRO_NATIVE_SOLVER")
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert nativelib.native_enabled()

    def test_compiler_override_missing_binary(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
        assert nativelib.find_compiler() is None
        assert not nativelib.native_available()

    @needs_cc
    def test_compiler_override_bare_name_resolves_on_path(self, monkeypatch):
        """REPRO_NATIVE_CC=gcc (the CC= idiom) must resolve via PATH."""
        for name in ("cc", "gcc", "clang"):
            resolved = shutil.which(name)
            if resolved:
                break
        monkeypatch.setenv("REPRO_NATIVE_CC", name)
        assert nativelib.find_compiler() == resolved
        monkeypatch.setenv("REPRO_NATIVE_CC", "definitely-not-a-compiler")
        assert nativelib.find_compiler() is None

    def test_build_core_degrades_to_none(self, monkeypatch, cache_dir):
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
        assert sat_native.build_core() is None
        assert "no C compiler" in nativelib.last_error()

    def test_last_error_tells_the_latest_lookup(self, monkeypatch,
                                                cache_dir):
        """Every lookup, memo hits included, replaces the last error: a
        load clears it and a switched-off core says so, whatever failed
        before."""
        configs = [("REPRO_NATIVE_CC", "/nonexistent/cc", "no C compiler"),
                   ("REPRO_NATIVE_SOLVER", "0", "disabled")]
        if HAVE_CC:
            configs.append((None, None, None))
        for _ in range(2):  # the second round is all memo hits
            for knob, value, reason in configs:
                monkeypatch.delenv("REPRO_NATIVE_CC", raising=False)
                monkeypatch.delenv("REPRO_NATIVE_SOLVER", raising=False)
                if knob is not None:
                    monkeypatch.setenv(knob, value)
                backend = Solver().backend
                if reason is None:
                    assert backend == "native", nativelib.last_error()
                    assert nativelib.last_error() is None
                else:
                    assert backend == "python"
                    assert reason in nativelib.last_error()

    def test_solver_falls_back_and_stays_correct(self, monkeypatch,
                                                 cache_dir):
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
        solver = Solver(native=True)
        assert solver.backend == "python"
        solver.add_clause([1, 2])
        solver.add_clause([-1])
        assert solver.solve() is True
        assert solver.model()[2] is True

    def test_native_cores_engage_whenever_they_can(self):
        """Under the ambient environment the solver core builds and
        engages exactly when native is enabled and a compiler is present.

        The other native tests skip on a compiler-less host, so without
        this check a broken C build would pass the suite silently.  Run
        once with a toolchain and once under ``REPRO_NATIVE_CC`` pointing
        at a missing binary or under ``REPRO_NATIVE_SOLVER=0``, it
        asserts opposite outcomes.
        """
        expected = (
            os.environ.get("REPRO_NATIVE_SOLVER", "1") != "0"
            and nativelib.find_compiler() is not None
        )
        assert nativelib.native_available() is expected
        assert (Solver().backend == "native") is expected, (
            nativelib.last_error()
        )

    @needs_cc
    def test_broken_solver_build_falls_back(self, monkeypatch, cache_dir):
        monkeypatch.setattr(sat_native, "_CORE_SOURCE",
                            "#error deliberately broken solver core\n")
        assert sat_native.build_core() is None
        assert nativelib.last_error() is not None
        solver = Solver()
        assert solver.backend == "python"
        solver.add_clause([1])
        assert solver.solve() is True


@needs_cc
class TestCache:
    def test_core_compiles_once_and_is_shared(self, cache_dir):
        assert Solver().backend == "native"
        entries = [f for f in os.listdir(cache_dir) if f.endswith(".so")]
        assert len(entries) == 1
        assert Solver().backend == "native"
        entries_after = [f for f in os.listdir(cache_dir) if f.endswith(".so")]
        assert entries_after == entries

    def test_no_tmp_files_left_behind(self, cache_dir):
        assert Solver().backend == "native", nativelib.last_error()
        assert [f for f in os.listdir(cache_dir) if ".tmp." in f] == []

    def test_flags_and_compiler_are_part_of_the_cache_key(
            self, cache_dir, monkeypatch):
        """A build under other REPRO_NATIVE_CFLAGS (a sanitizer build,
        say) gets its own entry instead of loading — or replacing — the
        library the default flags built."""
        assert Solver().backend == "native", nativelib.last_error()
        ambient = os.environ.get("REPRO_NATIVE_CFLAGS", "")
        monkeypatch.setenv("REPRO_NATIVE_CFLAGS",
                           f"{ambient} -DREPRO_CACHE_KEY_PROBE=1")
        nativelib.clear_cache()
        assert Solver().backend == "native", nativelib.last_error()
        entries = [f for f in os.listdir(cache_dir) if f.endswith(".so")]
        assert len(entries) == 2
        cc = nativelib.find_compiler()
        source = sat_native.core_source()
        assert nativelib.source_digest(source, cc) != (
            nativelib.source_digest(source, cc + "-other"))

    def test_corrupt_cache_entry_is_rebuilt(self, cache_dir):
        digest = nativelib.source_digest(
            sat_native.core_source(), nativelib.find_compiler(),
            nativelib.extra_flags(),
        )
        os.makedirs(cache_dir, exist_ok=True)
        path = os.path.join(cache_dir, f"{digest}.so")
        with open(path, "wb") as handle:
            handle.write(b"this is not a shared object")
        solver = Solver()
        assert solver.backend == "native", nativelib.last_error()
        solver.add_clause([1, 2])
        solver.add_clause([-1])
        assert solver.solve() is True
        with open(path, "rb") as handle:
            assert handle.read(4) == b"\x7fELF"

    def test_one_lookup_per_process(self, cache_dir, monkeypatch):
        """Repeat builds reuse the memoized load: the source is hashed
        (and PATH scanned) once, not once per Solver."""
        calls = []
        real = nativelib.source_digest

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(nativelib, "source_digest", counting)
        for _ in range(50):
            assert Solver().backend == "native", nativelib.last_error()
        assert len(calls) <= 1

    @pytest.mark.parametrize("clear", [False, True])
    def test_env_knob_toggles_mid_process(self, cache_dir, monkeypatch,
                                          clear):
        """The memo is keyed by the environment the lookup reads, so a
        knob flipped mid-process takes effect with or without
        clear_cache()."""
        ambient = os.environ.get("REPRO_NATIVE_CC")
        assert Solver().backend == "native", nativelib.last_error()
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
        if clear:
            nativelib.clear_cache()
        assert Solver().backend == "python"
        if ambient is None:
            monkeypatch.delenv("REPRO_NATIVE_CC")
        else:
            monkeypatch.setenv("REPRO_NATIVE_CC", ambient)
        if clear:
            nativelib.clear_cache()
        assert Solver().backend == "native", nativelib.last_error()

    def test_failure_is_remembered_per_process(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path / "c"))
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
        nativelib.clear_cache()
        with pytest.raises(sat_native.NativeUnavailable):
            sat_native._load_core()
        with pytest.raises(sat_native.NativeUnavailable):
            sat_native._load_core()
        nativelib.clear_cache()


@needs_cc
class TestIdentity:
    """Smoke-depth bit-identity (the fuzz lives in the differential
    suite): status, event counts, and models must match exactly."""

    @pytest.mark.parametrize("seed", range(4))
    def test_trajectories_match(self, cache_dir, seed):
        cnf = random_3cnf(30 + seed * 10, 128 + seed * 43, seed=seed)
        python, native = _solve_both(cnf)
        assert python[:5] == native[:5]
        assert python[5] == "python" and native[5] == "native"

    def test_budget_and_assumptions_match(self, cache_dir):
        cnf = random_3cnf(120, 504, seed=9)
        for kwargs in ({"max_conflicts": 200},
                       {"assumptions": (3, -7)},
                       {"assumptions": (-1,), "max_conflicts": 50}):
            python, native = _solve_both(cnf, **kwargs)
            assert python[:5] == native[:5]

    def test_deadline_binds_at_zero_conflicts(self, cache_dir):
        """A conflict-free implication chain longer than the probe stride
        must hit the time limit *inside* one propagation call, at the
        same pop count, in both backends."""
        from repro.budget import Deadline

        n = 20_000  # several strides' worth of unit propagation
        results = []
        for native in (False, True):

            def fake_clock(state=[0.0]):
                state[0] += 1.0
                return state[0]

            solver = Solver(native=native)
            solver.ensure_vars(n)
            for v in range(1, n):
                solver.add_clause([-v, v + 1])
            # Light the chain via an assumption: a unit *clause* would
            # propagate eagerly inside add_clause, before the deadline
            # exists.
            status = solver.solve(
                assumptions=(1,),
                time_limit=Deadline(2.5, clock=fake_clock))
            results.append((status, solver.propagations, solver.conflicts))
        python, native = results
        assert python == native
        status, propagations, conflicts = python
        assert status is None and conflicts == 0
        # The probe fired mid-propagation: the chain was not drained.
        assert 0 < propagations < n


def _race_build(args):
    cache, seed = args
    os.environ.pop("REPRO_NATIVE_SOLVER", None)
    os.environ["REPRO_NATIVE_CACHE_DIR"] = cache
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from factories import random_3cnf as make_cnf

    from repro import nativelib as lib
    from repro.sat import Solver as S

    lib.clear_cache()
    cnf = make_cnf(25, 100, seed=seed)
    solver = S(native=True)
    if solver.backend != "native":
        return ("fail", lib.last_error())
    solver.ensure_vars(cnf.num_vars)
    for clause in cnf.clauses:
        solver.add_clause(list(clause))
    reference = S(native=False)
    reference.ensure_vars(cnf.num_vars)
    for clause in cnf.clauses:
        reference.add_clause(list(clause))
    return ("ok", solver.solve() == reference.solve())


@needs_cc
def test_concurrent_core_builds_race_benignly(tmp_path):
    """Two processes compiling into one empty cache both end up healthy."""
    cache = str(tmp_path / "shared-cache")
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        results = pool.map(_race_build, [(cache, 0), (cache, 1)])
    assert results == [("ok", True), ("ok", True)]
    assert len([f for f in os.listdir(cache) if f.endswith(".so")]) == 1
    assert [f for f in os.listdir(cache) if ".tmp." in f] == []


@needs_cc
def test_source_render_is_deterministic():
    assert sat_native.core_source() == sat_native.core_source()
    assert "repro_sat_propagate" in sat_native.core_source()
    assert "repro_sat_compact" in sat_native.core_source()
