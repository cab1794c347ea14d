"""Native (C-compiled) simulation engine behind :class:`CompiledCircuit`.

The exec-compiled Python kernels in :mod:`repro.netlist.engine` removed
the interpreter's per-gate dispatch tax, but every gate is still one
CPython bytecode round-trip plus an arbitrary-precision bigint
operation.  This module removes that last layer: the engine's
integer-indexed instruction stream is executed by a small C engine over
flat arrays of 64-bit words, compiled once with the host toolchain and
driven through ``ctypes``.

Why a generic engine instead of per-circuit C codegen
-----------------------------------------------------
Rendering one specialized C function per netlist looks tempting but
measures badly: ``cc -O2`` needs ~40 s for a 1200-gate translation unit
(thousands of tiny loops), while a data-driven engine — one lane loop
per opcode inside a ``switch``, instruction operands passed as ``int32``
arrays — compiles in ~0.1 s *once per format version*, is cached and
shared by **every** circuit, and runs as fast or faster (the unrolled
form thrashes the instruction cache).  The per-instruction ``switch``
costs a few nanoseconds, amortized over up to 128 lanes of useful work.

Layout and contract
-------------------
Signal values live in one flat ``uint64`` buffer, **signal-major**: the
word(s) for signal ``i`` occupy ``buf[i*lanes : (i+1)*lanes]`` where
``lanes = ceil(width / 64)`` for a ``width``-pattern simulation word.
Python bigints cross the boundary via ``int.to_bytes``/``from_bytes``
(little-endian) — ~1 GB/s, which is exactly why exhaustive sweeps keep
their stimulus *inside* C (:meth:`NativeKernel.sweep_chunk` materializes
the periodic input patterns and chunk high bits directly in the buffer,
so a sweep converts nothing per chunk except the requested outputs).
Full-truth-table sweeps go one step further
(:meth:`NativeKernel.sweep_merged`): the whole chunk loop *and* the
output-word merge run in C, so an output-heavy truth table crosses the
boundary once per output instead of once per output per chunk.

Inverting opcodes use plain ``~`` instead of the Python kernels'
``mask ^`` — bits above the simulation width carry garbage inside the
buffer and are stripped when results are unpacked, so both backends are
bit-identical on every masked bit (enforced by the tier-1 differential
tests in ``tests/test_differential.py`` and ``tests/test_native.py``).

Caching and publication
-----------------------
Shared with the solver backend via :mod:`repro.nativelib`: the engine
library is content-addressed (SHA-256 of its C source names
``<digest>.so`` under ``benchmarks/results/nativecache/``, override
with ``REPRO_NATIVE_CACHE_DIR``), published atomically, and failures
degrade to the Python kernels, latched **per component** — a broken
solver build never disables this engine and vice versa.

Knobs
-----
``REPRO_NATIVE=0``
    Disable every native backend (pure-Python behavior, bit-identical).
``REPRO_NATIVE_SIM=0``
    Disable only the simulation engine.
``REPRO_NATIVE_CC=<path>``
    Compiler override; pointing it at a missing binary is how the tests
    and the compiler-less CI job simulate a host without a toolchain.
``REPRO_NATIVE_CACHE_DIR=<dir>``
    Where the compiled engine is published.
``REPRO_NATIVE_CFLAGS``
    Extra compiler flags (appended after the default ``-O3``).
"""

from __future__ import annotations

import ctypes

from .. import nativelib
from ..nativelib import DEFAULT_CACHE_DIR, NativeUnavailable, find_compiler

__all__ = [
    "NativeKernel",
    "NativeUnavailable",
    "native_enabled",
    "find_compiler",
    "native_available",
    "build_kernel",
    "cache_dir",
    "compiler_info",
    "last_error",
    "engine_source",
    "DEFAULT_CACHE_DIR",
    "SOURCE_FORMAT_VERSION",
    "COMPONENT",
]

#: The per-component gate/latch name under :mod:`repro.nativelib`.
COMPONENT = "sim"

#: Bumped whenever the C engine changes meaning; part of the source
#: (hence the content hash), so stale ``.so`` entries stop matching
#: instead of being loaded.  v2: ``repro_sweep_all`` (in-C chunk loop +
#: output-word merge).
SOURCE_FORMAT_VERSION = 2

# The opcode values are mirrored from repro.netlist.engine (OP_AND2 = 0
# ... OP_XNORN = 15); the C enum below must stay aligned with them.
_ENGINE_SOURCE = r"""
/* repro.netlist.native — generic bit-parallel netlist engine, v%(version)d
 *
 * Signal buffer v is signal-major: signal i occupies v[i*lanes ..].
 * Opcode numbering mirrors repro.netlist.engine.OP_*.
 */
#include <stdint.h>
#include <string.h>

enum {
  AND2, OR2, XOR2, NAND2, NOR2, XNOR2, NOT_, BUF_, CONST0_, CONST1_,
  ANDN, ORN, XORN, NANDN, NORN, XNORN
};

void repro_run(const int32_t *op, const int32_t *out, const int32_t *aa,
               const int32_t *bb, long n, const int32_t *nary,
               uint64_t *v, long lanes) {
  long i, l;
  for (i = 0; i < n; ++i) {
    /* restrict is sound: a gate's output signal is never one of its own
     * fanins (the netlist is a DAG), so o aliases neither a nor b; the
     * negative-index clamp only affects pointers that are never
     * dereferenced (constants). It is also what lets gcc vectorize the
     * lane loops without runtime alias versioning. */
    uint64_t *restrict o = v + (long)out[i] * lanes;
    const uint64_t *restrict a = v + (long)(aa[i] < 0 ? 0 : aa[i]) * lanes;
    const uint64_t *restrict b = v + (long)(bb[i] < 0 ? 0 : bb[i]) * lanes;
    switch (op[i]) {
      case AND2:  for (l = 0; l < lanes; ++l) o[l] = a[l] & b[l];    break;
      case OR2:   for (l = 0; l < lanes; ++l) o[l] = a[l] | b[l];    break;
      case XOR2:  for (l = 0; l < lanes; ++l) o[l] = a[l] ^ b[l];    break;
      case NAND2: for (l = 0; l < lanes; ++l) o[l] = ~(a[l] & b[l]); break;
      case NOR2:  for (l = 0; l < lanes; ++l) o[l] = ~(a[l] | b[l]); break;
      case XNOR2: for (l = 0; l < lanes; ++l) o[l] = ~(a[l] ^ b[l]); break;
      case NOT_:  for (l = 0; l < lanes; ++l) o[l] = ~a[l];          break;
      case BUF_:  for (l = 0; l < lanes; ++l) o[l] = a[l];           break;
      case CONST0_: for (l = 0; l < lanes; ++l) o[l] = 0;            break;
      case CONST1_: for (l = 0; l < lanes; ++l) o[l] = ~(uint64_t)0; break;
      default: {
        /* n-ary (>= 3 fanins): aa = offset into nary, bb = fanin count */
        long k, cnt = bb[i];
        const int32_t *f = nary + aa[i];
        const uint64_t *restrict s0 = v + (long)f[0] * lanes;
        for (l = 0; l < lanes; ++l) o[l] = s0[l];
        for (k = 1; k < cnt; ++k) {
          const uint64_t *restrict s = v + (long)f[k] * lanes;
          switch (op[i]) {
            case ANDN: case NANDN:
              for (l = 0; l < lanes; ++l) o[l] &= s[l]; break;
            case ORN: case NORN:
              for (l = 0; l < lanes; ++l) o[l] |= s[l]; break;
            default:
              for (l = 0; l < lanes; ++l) o[l] ^= s[l]; break;
          }
        }
        if (op[i] == NANDN || op[i] == NORN || op[i] == XNORN)
          for (l = 0; l < lanes; ++l) o[l] = ~o[l];
      }
    }
  }
}

/* Exhaustive-sweep stimulus: pattern j assigns bit k of j to swept
 * input k.  Word bit position j = l*64 + b, so for k < 6 the value
 * depends only on b (one magic constant per k) and for k >= 6 only on
 * bit (k-6) of the lane index.  Bits k >= chunk_bits come from the
 * chunk counter.  Writing the stimulus here means a sweep crosses the
 * Python/C boundary only for the outputs it actually unpacks. */
static const uint64_t PERIODIC[6] = {
  0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
  0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL
};

void repro_sweep_fill(const int32_t *swept, long n_swept, long chunk_bits,
                      long chunk_idx, uint64_t *v, long lanes) {
  long k, l;
  for (k = 0; k < n_swept; ++k) {
    uint64_t *w = v + (long)swept[k] * lanes;
    if (k < chunk_bits) {
      if (k < 6) {
        for (l = 0; l < lanes; ++l) w[l] = PERIODIC[k];
      } else {
        long bit = k - 6;
        for (l = 0; l < lanes; ++l)
          w[l] = ((l >> bit) & 1) ? ~(uint64_t)0 : 0;
      }
    } else {
      uint64_t val =
        ((chunk_idx >> (k - chunk_bits)) & 1) ? ~(uint64_t)0 : 0;
      for (l = 0; l < lanes; ++l) w[l] = val;
    }
  }
}

/* One sweep chunk = stimulus + evaluation in a single boundary crossing. */
void repro_sweep_run(const int32_t *op, const int32_t *out, const int32_t *aa,
                     const int32_t *bb, long n, const int32_t *nary,
                     const int32_t *swept, long n_swept, long chunk_bits,
                     long chunk_idx, uint64_t *v, long lanes) {
  repro_sweep_fill(swept, n_swept, chunk_bits, chunk_idx, v, lanes);
  repro_run(op, out, aa, bb, n, nary, v, lanes);
}

/* Whole exhaustive sweep: run every chunk and merge the output words
 * into an out-major accumulator, all inside C.  acc holds
 * n_outs * total_words zeroed uint64 words where
 * total_words = ceil(n_chunks * 2^chunk_bits / 64); output o's full
 * truth table occupies acc[o*total_words ..] little-endian, exactly the
 * `merged[i] |= word << offset` layout of the Python merge loop.
 *
 * With chunk_bits >= 6 a chunk is `lanes` whole words copied at word
 * offset c*lanes.  Below that (lanes == 1, chunk width a power of two
 * dividing 64) chunks never straddle a word; the chunk value is masked
 * to its width first because inverting opcodes leave garbage above the
 * simulation width inside the buffer. */
void repro_sweep_all(const int32_t *op, const int32_t *out, const int32_t *aa,
                     const int32_t *bb, long n, const int32_t *nary,
                     const int32_t *swept, long n_swept, long chunk_bits,
                     long n_chunks, uint64_t *v, long lanes,
                     const int32_t *outs, long n_outs, uint64_t *acc) {
  long c, o, l;
  long width = 1L << chunk_bits;
  long total_words = (n_chunks * width + 63) >> 6;
  uint64_t mask = (width >= 64) ? ~(uint64_t)0
                                : (((uint64_t)1 << width) - 1);
  for (c = 0; c < n_chunks; ++c) {
    repro_sweep_fill(swept, n_swept, chunk_bits, c, v, lanes);
    repro_run(op, out, aa, bb, n, nary, v, lanes);
    if (width >= 64) {
      for (o = 0; o < n_outs; ++o) {
        const uint64_t *w = v + (long)outs[o] * lanes;
        uint64_t *dst = acc + o * total_words + c * lanes;
        for (l = 0; l < lanes; ++l) dst[l] = w[l];
      }
    } else {
      long bitpos = c * width;
      for (o = 0; o < n_outs; ++o) {
        uint64_t w = v[(long)outs[o] * lanes] & mask;
        acc[o * total_words + (bitpos >> 6)] |= w << (bitpos & 63);
      }
    }
  }
}
""".replace("%(version)d", str(SOURCE_FORMAT_VERSION))


def engine_source():
    """The C engine translation unit (content-hashed for the cache)."""
    return _ENGINE_SOURCE


def native_enabled():
    """Whether the env permits this backend (``REPRO_NATIVE`` != 0 and
    ``REPRO_NATIVE_SIM`` != 0)."""
    return nativelib.native_enabled(COMPONENT)


def native_available():
    """True when the backend is enabled and a compiler is present."""
    return nativelib.native_available(COMPONENT)


def compiler_info():
    """``{"cc": path-or-None, "available": bool}`` for bench env blocks."""
    return nativelib.compiler_info(COMPONENT)


def cache_dir():
    """Directory the compiled engine is published under."""
    return nativelib.cache_dir()


# Kept as a module-level alias: the build/publish mechanics live in
# repro.nativelib and are shared with the solver backend.
_compile_and_publish = nativelib.compile_and_publish

_P32 = ctypes.POINTER(ctypes.c_int32)
_P64 = ctypes.POINTER(ctypes.c_uint64)


def _configure(lib):
    lib.repro_run.argtypes = [
        _P32, _P32, _P32, _P32, ctypes.c_long, _P32, _P64, ctypes.c_long,
    ]
    lib.repro_run.restype = None
    lib.repro_sweep_fill.argtypes = [
        _P32, ctypes.c_long, ctypes.c_long, ctypes.c_long, _P64,
        ctypes.c_long,
    ]
    lib.repro_sweep_fill.restype = None
    lib.repro_sweep_run.argtypes = [
        _P32, _P32, _P32, _P32, ctypes.c_long, _P32,
        _P32, ctypes.c_long, ctypes.c_long, ctypes.c_long, _P64,
        ctypes.c_long,
    ]
    lib.repro_sweep_run.restype = None
    lib.repro_sweep_all.argtypes = [
        _P32, _P32, _P32, _P32, ctypes.c_long, _P32,
        _P32, ctypes.c_long, ctypes.c_long, ctypes.c_long, _P64,
        ctypes.c_long, _P32, ctypes.c_long, _P64,
    ]
    lib.repro_sweep_all.restype = None


def _load_engine(directory=None, cc=None):
    """Load (building on demand) the shared engine library.

    Raises :class:`NativeUnavailable`; the outcome — handle or failure —
    is cached per ``(component, directory, digest)`` so a missing
    compiler costs one lookup per process, not one subprocess per
    circuit, and a failure here never latches the solver backend.
    """
    return nativelib.load_library(
        COMPONENT, engine_source(), _configure, directory=directory, cc=cc
    )


def clear_engine_cache():
    """Forget per-process load outcomes (tests toggling env knobs)."""
    nativelib.clear_cache(COMPONENT)


class NativeKernel:
    """A circuit's instruction stream bound to the shared C engine.

    Construction packs the instructions into ``int32`` operand arrays
    (cheap — no per-circuit compilation) and loads the engine library,
    building it first if this host has never compiled this format
    version.  Raises :class:`NativeUnavailable` on any failure;
    :func:`build_kernel` wraps that into a ``None``.
    """

    def __init__(self, instructions, num_signals, directory=None, cc=None):
        self._lib = _load_engine(directory=directory, cc=cc)
        self.num_signals = num_signals
        ops, outs, aas, bbs, nary = [], [], [], [], []
        for op, out, a, b in instructions:
            if isinstance(a, tuple):  # n-ary: operand array + count
                ops.append(op)
                outs.append(out)
                aas.append(len(nary))
                bbs.append(len(a))
                nary.extend(a)
            else:
                ops.append(op)
                outs.append(out)
                aas.append(a)
                bbs.append(b)
        i32 = ctypes.c_int32
        self._n = len(ops)
        self._ops = (i32 * max(1, len(ops)))(*ops)
        self._outs = (i32 * max(1, len(outs)))(*outs)
        self._aas = (i32 * max(1, len(aas)))(*aas)
        self._bbs = (i32 * max(1, len(bbs)))(*bbs)
        self._nary = (i32 * max(1, len(nary)))(*(nary or [0]))
        # Lane count -> (bytearray, ctypes view).  Reuse is safe because
        # callers fill every primary-input slot before each run and the
        # engine writes every gate slot.
        self._buffers = {}
        # Single-slot cache of the last sweep's prepared state: repeated
        # sweeps (best-of benches, repeated attack passes) skip the fixed
        # refill and the ctypes array build entirely.  Invalidated by
        # execute(), which may overwrite input slots.
        self._sweep_key = None
        self._sweep_state = None

    def _buffer(self, lanes):
        cached = self._buffers.get(lanes)
        if cached is None:
            buf = bytearray(self.num_signals * lanes * 8)
            view = (ctypes.c_uint64 * (self.num_signals * lanes)).from_buffer(buf)
            cached = self._buffers[lanes] = (buf, view)
        return cached

    @staticmethod
    def _pack(word, width, mask, nbytes):
        if word.bit_length() > width:
            word &= mask
        return word.to_bytes(nbytes, "little")

    def _run(self, view, lanes):
        self._lib.repro_run(
            self._ops, self._outs, self._aas, self._bbs, self._n,
            self._nary, view, lanes,
        )

    def execute(self, fill, mask, positions):
        """Run the engine; return masked words for ``positions``.

        ``fill`` yields ``(signal_index, word)`` pairs and must cover
        **every** primary input of the circuit (unfilled inputs would
        otherwise leak values from the previous call through the reused
        buffer); ``positions`` are signal indices to unpack.
        """
        width = mask.bit_length()
        lanes = (width + 63) >> 6
        nbytes = lanes * 8
        buf, view = self._buffer(lanes)
        self._sweep_key = None
        for pos, word in fill:
            off = pos * nbytes
            buf[off : off + nbytes] = self._pack(word, width, mask, nbytes)
        self._run(view, lanes)
        return [
            int.from_bytes(buf[pos * nbytes : (pos + 1) * nbytes], "little")
            & mask
            for pos in positions
        ]

    # -- chunked exhaustive sweeps -------------------------------------
    def sweep_begin(self, swept_positions, fixed_fill, mask, token=None):
        """Prepare buffer + state for a chunked exhaustive sweep.

        ``swept_positions`` are the signal indices of the swept inputs in
        sweep-bit order; ``fixed_fill`` lists ``(signal_index, word)``
        for every *non-swept* input (their packed constant words).
        Returns an opaque state tuple for :meth:`sweep_chunk`.  The last
        prepared state is cached: an identical follow-up sweep reuses the
        still-filled buffer.  Callers that already key their sweeps pass
        a hashable ``token`` standing in for the full argument tuple —
        the repeat check is then one comparison instead of re-tupling the
        fill list.
        """
        key = (
            token
            if token is not None
            else (tuple(swept_positions), tuple(fixed_fill), mask)
        )
        if key == self._sweep_key:
            return self._sweep_state
        width = mask.bit_length()
        lanes = (width + 63) >> 6
        nbytes = lanes * 8
        buf, view = self._buffer(lanes)
        for pos, word in fixed_fill:
            off = pos * nbytes
            buf[off : off + nbytes] = self._pack(word, width, mask, nbytes)
        i32 = ctypes.c_int32
        swept = (i32 * max(1, len(swept_positions)))(*(swept_positions or [0]))
        state = (swept, len(swept_positions), lanes, nbytes, buf, view)
        self._sweep_key = key
        self._sweep_state = state
        return state

    def sweep_chunk(self, state, chunk_bits, chunk_idx, mask, positions):
        """One sweep chunk: stimulus + evaluation in one C call.

        The swept-input stimulus (periodic low bits, chunk-counter high
        bits) never crosses the language boundary — only the requested
        output words do.
        """
        swept, n_swept, lanes, nbytes, buf, view = state
        self._lib.repro_sweep_run(
            self._ops, self._outs, self._aas, self._bbs, self._n,
            self._nary, swept, n_swept, chunk_bits, chunk_idx, view, lanes,
        )
        return [
            int.from_bytes(buf[pos * nbytes : (pos + 1) * nbytes], "little")
            & mask
            for pos in positions
        ]

    def sweep_merged(self, state, chunk_bits, n_chunks, positions):
        """Whole exhaustive sweep with the output merge done in C.

        Runs all ``n_chunks`` chunks (stimulus + evaluation) and merges
        each output's words into its full-width truth table inside the
        engine, so the boundary is crossed once per *output* rather than
        once per output per chunk — the win scales with output count on
        output-heavy truth tables.  Returns full-width bigints aligned
        with ``positions``; bit ``j`` of each is that output under
        pattern ``j``, exactly the ``merged[i] |= word << offset``
        assembly of the chunked Python path.
        """
        swept, n_swept, lanes, _nbytes, _buf, view = state
        total_words = ((n_chunks << chunk_bits) + 63) >> 6
        n_outs = len(positions)
        acc_words = max(1, n_outs * total_words)
        acc_buf = bytearray(acc_words * 8)
        acc = (ctypes.c_uint64 * acc_words).from_buffer(acc_buf)
        i32 = ctypes.c_int32
        outs = (i32 * max(1, n_outs))(*(positions or [0]))
        self._lib.repro_sweep_all(
            self._ops, self._outs, self._aas, self._bbs, self._n,
            self._nary, swept, n_swept, chunk_bits, n_chunks, view, lanes,
            outs, n_outs, acc,
        )
        stride = total_words * 8
        return [
            int.from_bytes(acc_buf[o * stride : (o + 1) * stride], "little")
            for o in range(n_outs)
        ]

    def __repr__(self):
        return (
            f"NativeKernel(signals={self.num_signals}, "
            f"instructions={self._n})"
        )


def last_error():
    """The most recent build failure message, or ``None``."""
    return nativelib.last_error(COMPONENT)


def build_kernel(compiled, directory=None, cc=None):
    """Best-effort :class:`NativeKernel` for a ``CompiledCircuit``.

    Returns ``None`` (and records :func:`last_error`) instead of raising:
    every failure mode must degrade to the Python kernels.
    """
    try:
        return NativeKernel(
            compiled.instructions,
            compiled.num_signals,
            directory=directory,
            cc=cc,
        )
    except NativeUnavailable as exc:
        nativelib.record_error(COMPONENT, str(exc))
        return None
