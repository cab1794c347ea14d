"""Build, cache and load machinery for native (C-compiled) components.

One hot path crosses into C: the CDCL search core
(:mod:`repro.sat.native`).  Its lifecycle is this module's — a C
translation unit content-addressed by its SHA-256, compiled once per
host with the local toolchain, published atomically into a cache
directory, loaded through ``ctypes``, and degrading silently to the
pure-Python implementation on any failure.  Every entry point takes a
component name (``"solver"``), which keys the gates, the load cache and
the error latches:

* **Content addresses cover the whole build.** A library's digest
  hashes its source together with the compiler path and the extra
  flags, so a build under other ``REPRO_NATIVE_CFLAGS`` (a sanitizer
  build, say) or another compiler lands in its own cache entry: it
  never loads an ``-O3`` library built before it, and default runs
  never load it.

* **Gates.** ``REPRO_NATIVE=0`` is the master switch that disables
  everything; ``REPRO_NATIVE_<COMPONENT>=0`` (``REPRO_NATIVE_SOLVER=0``)
  disables one component.
* **Failure latches.** The load cache is keyed by
  ``(component, cache_dir, digest)`` and remembers failures as
  exception instances — a ``.so`` that fails to compile costs one
  lookup per process.  ``last_error(component)`` reports the most
  recent failure per component.
* **Atomic publication.** Builds compile to a ``.tmp.<pid>`` path and
  ``os.replace`` into ``<digest>.so`` (the prep-store pattern), so
  concurrent workers never observe a torn library; a cache entry that
  fails to ``dlopen`` is unlinked and rebuilt once.

Knobs:

``REPRO_NATIVE=0``
    Disable every native component (pure-Python behavior, bit-identical).
``REPRO_NATIVE_SOLVER=0``
    Disable the solver core only.
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
    "compiler_info",
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


def native_enabled(component=None):
    """Whether the env permits native backends.

    ``REPRO_NATIVE=0`` disables everything; with a ``component`` name
    (``"solver"``) the per-component override
    ``REPRO_NATIVE_<COMPONENT>=0`` is also honored.
    """
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        return False
    if component is not None:
        if os.environ.get(f"REPRO_NATIVE_{component.upper()}", "1") == "0":
            return False
    return True


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


def native_available(component=None):
    """True when the backend is enabled and a compiler is present."""
    return native_enabled(component) and find_compiler() is not None


def compiler_info(component=None):
    """``{"cc": path-or-None, "available": bool}`` for bench env blocks."""
    cc = find_compiler()
    return {"cc": cc, "available": cc is not None and native_enabled(component)}


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


#: (component, cache_dir, digest) -> loaded library handle; failures are
#: remembered per process as NativeUnavailable instances, one latch per
#: component.
_LIB_CACHE = {}

#: Most recent build/load failure message per component.
_LAST_ERRORS = {}


def load_library(component, source, configure, directory=None, cc=None):
    """Load (building on demand) a component's shared library.

    ``configure(lib)`` is called once on the fresh ``ctypes.CDLL``
    handle to declare argtypes/restypes.  Raises
    :class:`NativeUnavailable`; the outcome — handle or failure — is
    cached per ``(component, directory, digest)`` so a missing compiler
    costs one lookup per process, not one subprocess per use.
    """
    if not native_enabled(component):
        raise NativeUnavailable(
            f"disabled via REPRO_NATIVE / REPRO_NATIVE_{component.upper()}"
        )
    directory = directory or cache_dir()
    cc = cc or find_compiler()
    flags = extra_flags()
    digest = source_digest(source, cc, flags)
    key = (component, directory, digest)
    cached = _LIB_CACHE.get(key)
    if cached is not None:
        if isinstance(cached, NativeUnavailable):
            raise cached
        return cached

    def load(path):
        lib = ctypes.CDLL(path)
        configure(lib)
        return lib

    so_path = os.path.join(directory, f"{digest}.so")
    try:
        if cc is None:
            raise NativeUnavailable("no C compiler found (cc/gcc/clang)")
        if os.path.exists(so_path):
            try:
                lib = load(so_path)
            except OSError:
                # Corrupt/truncated cache entry (killed writer on an
                # exotic filesystem): drop it and rebuild once.
                try:
                    os.unlink(so_path)
                except OSError:
                    pass
                compile_and_publish(source, digest, cc, directory, flags)
                lib = load(so_path)
        else:
            compile_and_publish(source, digest, cc, directory, flags)
            lib = load(so_path)
    except NativeUnavailable as exc:
        _LIB_CACHE[key] = exc
        record_error(component, str(exc))
        raise
    except OSError as exc:
        failure = NativeUnavailable(f"{component} library load failed: {exc}")
        _LIB_CACHE[key] = failure
        record_error(component, str(failure))
        raise failure from exc
    _LIB_CACHE[key] = lib
    return lib


def clear_cache(component=None):
    """Forget per-process load outcomes (tests toggling env knobs).

    With a ``component`` only that component's entries and error latch
    are dropped; without one, everything is.
    """
    if component is None:
        _LIB_CACHE.clear()
        _LAST_ERRORS.clear()
        return
    for key in [k for k in _LIB_CACHE if k[0] == component]:
        del _LIB_CACHE[key]
    _LAST_ERRORS.pop(component, None)


def record_error(component, message):
    """Remember a component's most recent failure for diagnostics."""
    _LAST_ERRORS[component] = message


def last_error(component):
    """The component's most recent build/load failure, or ``None``."""
    return _LAST_ERRORS.get(component)
