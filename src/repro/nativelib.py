"""Build, cache and load machinery for the native (C-compiled) solver core.

One hot path crosses into C: the CDCL search core
(:mod:`repro.sat.native`).  Its lifecycle is this module's — a C
translation unit content-addressed by its SHA-256, compiled once per
host with the local toolchain, published atomically into a cache
directory, loaded through ``ctypes``, and degrading silently to the
pure-Python implementation on any failure:

* **Content addresses cover the whole build.** A library's digest
  hashes its source together with the compiler path and the extra
  flags, so a build under other ``REPRO_NATIVE_CFLAGS`` (a sanitizer
  build, say) or another compiler lands in its own cache entry: it
  never loads an ``-O3`` library built before it, and default runs
  never load it.
* **One lookup per process.** :func:`load_library` memoizes its
  outcome — handle or failure — under the source and every environment
  value the lookup reads (``REPRO_NATIVE_SOLVER``, ``REPRO_NATIVE_CC``,
  ``REPRO_NATIVE_CFLAGS``, ``REPRO_NATIVE_CACHE_DIR`` and ``PATH``).  A
  repeat load neither scans ``PATH`` nor re-hashes the source, a ``.so``
  that fails to compile is tried once, and changing a knob mid-process
  still takes effect.  Every lookup, memo hits included, sets
  :func:`last_error`: ``None`` after a load, the failure otherwise.
* **Atomic publication.** Builds compile to a ``.tmp.<pid>`` path and
  ``os.replace`` into ``<digest>.so`` (the prep-store pattern), so
  concurrent workers never observe a torn library; a cache entry that
  fails to ``dlopen`` is unlinked and rebuilt once.

Knobs:

``REPRO_NATIVE_SOLVER=0``
    Disable the solver core (pure-Python behavior, bit-identical).
``REPRO_NATIVE_CC=<path>``
    Compiler override; pointing it at a missing binary simulates a host
    without a toolchain.
``REPRO_NATIVE_CACHE_DIR=<dir>``
    Where compiled libraries are published.
``REPRO_NATIVE_CFLAGS``
    Extra compiler flags (appended after the default ``-O3``; part of
    the cache key).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess

import ctypes

__all__ = [
    "NativeUnavailable",
    "native_enabled",
    "find_compiler",
    "native_available",
    "cache_dir",
    "extra_flags",
    "compile_and_publish",
    "load_library",
    "source_digest",
    "clear_cache",
    "last_error",
    "record_error",
    "DEFAULT_CACHE_DIR",
]


class NativeUnavailable(RuntimeError):
    """Raised when a native library cannot be built or loaded."""


#: Default landing zone for compiled libraries, next to the other caches.
DEFAULT_CACHE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks", "results", "nativecache",
)


def native_enabled():
    """Whether the env permits the native core (``REPRO_NATIVE_SOLVER``
    is not ``0``)."""
    return os.environ.get("REPRO_NATIVE_SOLVER", "1") != "0"


def find_compiler():
    """Path of the C compiler to use, or ``None``.

    ``REPRO_NATIVE_CC`` wins: an existing path is used as-is, a bare
    command name (``REPRO_NATIVE_CC=clang``, the ``CC=`` idiom) is
    resolved on ``PATH``, and a value that resolves to nothing disables
    the backend — pointing it at a missing file is the supported way to
    simulate a toolchain-less host.  Without the override, the first of
    ``cc``/``gcc``/``clang`` on ``PATH`` wins.
    """
    override = os.environ.get("REPRO_NATIVE_CC")
    if override:
        if os.path.exists(override):
            return override
        return shutil.which(override)
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def native_available():
    """True when the core is enabled and a compiler is present."""
    return native_enabled() and find_compiler() is not None


def cache_dir():
    """Directory compiled libraries are published under."""
    return os.environ.get("REPRO_NATIVE_CACHE_DIR") or DEFAULT_CACHE_DIR


def extra_flags():
    """The extra compiler flags from ``REPRO_NATIVE_CFLAGS``, split."""
    return os.environ.get("REPRO_NATIVE_CFLAGS", "").split()


def source_digest(source, cc=None, flags=()):
    """Content address of a C translation unit built by ``cc`` with the
    extra ``flags``."""
    build = "\0".join([cc or "", *flags])
    return hashlib.sha256(f"{source}\0{build}".encode("utf-8")).hexdigest()


def compile_and_publish(source, digest, cc, directory, flags=()):
    """Compile ``source`` with the extra ``flags`` and atomically
    publish ``<digest>.so``.

    Returns the published path.  Raises :class:`NativeUnavailable` with
    the captured compiler diagnostics on failure; temporary files are
    always cleaned up.
    """
    os.makedirs(directory, exist_ok=True)
    so_path = os.path.join(directory, f"{digest}.so")
    pid = os.getpid()
    # The source tmp keeps its .c suffix (cc dispatches on it); the .so
    # tmp carries the prep-store tmp convention for cleanup tooling.
    c_tmp = os.path.join(directory, f"{digest}.tmp.{pid}.c")
    so_tmp = os.path.join(directory, f"{digest}.so.tmp.{pid}")
    try:
        with open(c_tmp, "w") as handle:
            handle.write(source)
        # -O3 is the build every measurement of the solver core used.
        cmd = [cc, "-O3", *flags, "-fPIC", "-shared", "-o", so_tmp, c_tmp]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise NativeUnavailable(
                f"{cc} failed ({proc.returncode}): {proc.stderr[:500]}"
            )
        os.replace(so_tmp, so_path)
        return so_path
    except NativeUnavailable:
        raise
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeUnavailable(f"native build failed: {exc}") from exc
    finally:
        for tmp in (c_tmp, so_tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


#: (source, environment) -> the outcome of :func:`load_library`: the
#: loaded handle, or the NativeUnavailable it raised, remembered per
#: process.
_LOADED = {}

#: The outcome of the most recent lookup: ``None`` after a load, else
#: the failure message.
_last_error = None


def _lookup_env():
    """Every environment value a library lookup reads."""
    get = os.environ.get
    return (get("REPRO_NATIVE_SOLVER"), get("REPRO_NATIVE_CC"),
            get("REPRO_NATIVE_CFLAGS"), get("REPRO_NATIVE_CACHE_DIR"),
            get("PATH"))


def load_library(source, configure):
    """Load (building on demand) the shared library built from ``source``.

    ``configure(lib)`` is called once on the fresh ``ctypes.CDLL``
    handle to declare argtypes/restypes.  Raises
    :class:`NativeUnavailable`.  The outcome — handle or failure — is
    memoized per source and environment, so a repeat call costs one
    dict lookup: no ``PATH`` scan, no source hash, no subprocess.
    Either way it becomes :func:`last_error`.
    """
    key = (source, _lookup_env())
    outcome = _LOADED.get(key)
    if outcome is None:
        try:
            outcome = _load_library(source, configure)
        except NativeUnavailable as exc:
            outcome = exc
        _LOADED[key] = outcome
    if isinstance(outcome, NativeUnavailable):
        record_error(str(outcome))
        raise outcome.with_traceback(None)
    record_error(None)
    return outcome


def _load_library(source, configure):
    """The lookup :func:`load_library` memoizes: gate, find, build, load."""
    if not native_enabled():
        raise NativeUnavailable("disabled via REPRO_NATIVE_SOLVER=0")
    directory = cache_dir()
    cc = find_compiler()
    if cc is None:
        raise NativeUnavailable("no C compiler found (cc/gcc/clang)")
    flags = extra_flags()
    digest = source_digest(source, cc, flags)

    def load(path):
        lib = ctypes.CDLL(path)
        configure(lib)
        return lib

    so_path = os.path.join(directory, f"{digest}.so")
    try:
        if os.path.exists(so_path):
            try:
                return load(so_path)
            except OSError:
                # Corrupt/truncated cache entry (killed writer on an
                # exotic filesystem): drop it and rebuild once.
                try:
                    os.unlink(so_path)
                except OSError:
                    pass
        compile_and_publish(source, digest, cc, directory, flags)
        return load(so_path)
    except OSError as exc:
        raise NativeUnavailable(f"library load failed: {exc}") from exc


def clear_cache():
    """Forget per-process load outcomes (tests toggling env knobs)."""
    _LOADED.clear()
    record_error(None)


def record_error(message):
    """Set :func:`last_error` (``None`` clears it)."""
    global _last_error
    _last_error = message


def last_error():
    """The most recent build/load failure, or ``None`` when the most
    recent lookup loaded the library."""
    return _last_error
