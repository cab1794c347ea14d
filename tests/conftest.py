"""Shared test fixtures: seeded random hosts and helpers.

The circuit factories live in :mod:`factories` (same directory) so test
modules import them as a plain module rather than through ``conftest``.
"""

import atexit
import os
import shutil
import tempfile

import pytest

from factories import GATE_CHOICES, build_random_circuit  # noqa: F401 (re-export)
from repro.netlist import Circuit

os.environ.setdefault("REPRO_SCALE", "tiny")
# Keep test-run preparations out of the repo's shared prep store (and out
# of other runs' stores): every pytest invocation gets a throwaway root,
# removed when the main pytest process exits.  Set before
# repro.experiments is imported so forked/spawned campaign workers
# inherit the same root.
if "REPRO_PREP_STORE_DIR" not in os.environ:
    _store_dir = tempfile.mkdtemp(prefix="repro-prepstore-test-")
    os.environ["REPRO_PREP_STORE_DIR"] = _store_dir
    atexit.register(shutil.rmtree, _store_dir, ignore_errors=True)
# Same hermeticity for the native solver core's .so cache (tests corrupt cache
# entries on purpose).
if "REPRO_NATIVE_CACHE_DIR" not in os.environ:
    _native_dir = tempfile.mkdtemp(prefix="repro-nativecache-test-")
    os.environ["REPRO_NATIVE_CACHE_DIR"] = _native_dir
    atexit.register(shutil.rmtree, _native_dir, ignore_errors=True)


@pytest.fixture
def small_circuit():
    return build_random_circuit(seed=1)


@pytest.fixture
def medium_circuit():
    return build_random_circuit(n_inputs=12, n_gates=80, n_outputs=6, seed=2)


@pytest.fixture
def majority_circuit():
    c = Circuit("maj")
    for name in ("a", "b", "c"):
        c.add_input(name)
    c.add_gate("ab", "AND", ("a", "b"))
    c.add_gate("ac", "AND", ("a", "c"))
    c.add_gate("bc", "AND", ("b", "c"))
    c.add_gate("f", "OR", ("ab", "ac", "bc"))
    c.add_output("f")
    return c.validate()
