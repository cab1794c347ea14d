"""Native (C-compiled) CDCL propagation core behind :class:`Solver`.

After PR 5 the simulation side of the flow runs 4-9x over seed through
the native engine, which left :meth:`Solver._propagate` — two-literal
watching over Python lists — as the limiting term.  This module moves
the propagation-rate-bound state into C: a contiguous clause arena
(``int32`` words, clauses stored as ``[size, lit0..litN-1]`` and named
by their arena offset), per-encoded-literal watch arrays with blocker
literals, and the trail/assignment/level/phase/reason arrays as flat
``int8``/``int32``/``int64`` buffers.  ``_propagate``, problem-clause
intake, learnt-clause attach, and trail backjump cross into C;
decide/analyze/1-UIP/restart stay in Python, reading the C state
through zero-copy ``ctypes`` views.

Bit-identity contract
---------------------
The C loop is a line-for-line mirror of the Python ``_propagate``:
blocker-first visits, the false literal normalized into slot 1,
replacement watches migrating entries in place, in-place watch-list
compaction with a read/write cursor, conflict handling that keeps the
remaining watchers and drains the queue.  Clause intake
(``repro_sat_add_clauses``, one call per flat ``[size, lit, ...]*``
buffer) mirrors the Python ``Solver._add_clause`` the same way:
duplicate literals dropped, tautologies skipped, level-0 false literals
dropped and satisfied clauses skipped, units enqueued and propagated at
level 0, an empty clause making the formula UNSAT.  Identical intake
and visit order mean an identical arena, watch lists and trail, hence
identical propagation counts, conflicts, learnt clauses and models.
The tier-1 tests ``tests/test_solver_differential.py`` (trajectories on
random CNFs, assumption probes, attack miters, fork/spawn children) and
``tests/test_clause_intake.py`` (bulk vs per-clause intake on both
backends) enforce exactly that.

Deadline semantics are preserved through a stride budget: with an
active :class:`repro.budget.Deadline` the C loop pauses every
``_PROPS_PER_TIME_CHECK`` trail pops and Python probes the clock —
the same cadence as the Python loop, so time limits bind even at zero
conflicts.

Caching, fallback, knobs
------------------------
Shared with the simulation engine via :mod:`repro.nativelib`: the core
is content-addressed under the same cache directory, published
atomically, and every failure (no compiler, failed compile, corrupt
cache entry) degrades silently to the pure-Python loops, latched per
component — a broken solver build never disables the simulation engine
and vice versa.  ``REPRO_NATIVE=0`` disables everything;
``REPRO_NATIVE_SOLVER=0`` disables only this core.
"""

from __future__ import annotations

import ctypes
from array import array

from .. import nativelib
from ..nativelib import NativeUnavailable

__all__ = [
    "NativeSolverCore",
    "NativeUnavailable",
    "native_enabled",
    "native_available",
    "build_core",
    "core_source",
    "last_error",
    "clear_core_cache",
    "SOURCE_FORMAT_VERSION",
    "COMPONENT",
]

#: The per-component gate/latch name under :mod:`repro.nativelib`.
COMPONENT = "solver"

#: Bumped whenever the C core changes meaning; part of the source (hence
#: the content hash), so stale ``.so`` entries stop matching instead of
#: being loaded.
SOURCE_FORMAT_VERSION = 2

_CORE_SOURCE = r"""
/* repro.sat.native — CDCL propagation core, v%(version)d
 *
 * Literal encoding mirrors repro.sat.solver: enc = 2*var + sign
 * (positive literals even); enc^1 negates; enc is true iff
 * assign[enc>>1] == (enc&1)^1.  Clauses live in one int32 arena as
 * [size, lit0..litN-1] and are named by their arena offset; watch
 * entry i of literal p is visited when p becomes true and carries a
 * blocker literal checked before the clause is touched at all.
 *
 * The propagate loop is a line-for-line mirror of the Python
 * Solver._propagate — identical visit order, identical migration and
 * compaction, identical conflict handling — because the two backends
 * are required to be bit-identical (same propagation counts, same
 * learnt clauses, same models).
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
  int64_t ref;      /* arena offset of the watched clause */
  int32_t blocker;  /* cached literal checked before the clause */
  int32_t pad;
} Watch;

typedef struct {
  long nvars;       /* vars 1..nvars valid */
  long var_cap;     /* var arrays sized var_cap+1; literals 2*(var_cap+1) */
  int8_t  *assign;  /* by var: -1 unassigned / 0 / 1 */
  int32_t *level;
  int8_t  *phase;
  int64_t *reason;  /* arena ref, -1 = none */
  int32_t *trail;   /* encoded literals */
  long trail_len;
  long qhead;
  Watch  **wl;      /* per encoded literal */
  long *wl_len;
  long *wl_cap;
  int32_t *arena;
  long arena_len;
  long arena_cap;
  int32_t *popped;  /* backtrack out-buffer (vars, reverse trail order) */
  uint8_t *mark;    /* per encoded literal: seen in the clause being taken */
} Sat;

static void wl_push(Sat *s, int32_t lit, Watch w) {
  long len = s->wl_len[lit];
  if (len == s->wl_cap[lit]) {
    long cap = s->wl_cap[lit] ? s->wl_cap[lit] * 2 : 4;
    s->wl[lit] = (Watch *)realloc(s->wl[lit], (size_t)cap * sizeof(Watch));
    s->wl_cap[lit] = cap;
  }
  s->wl[lit][len] = w;
  s->wl_len[lit] = len + 1;
}

long repro_sat_ensure_vars(Sat *s, long n) {
  if (n > s->var_cap) {
    long cap = s->var_cap ? s->var_cap : 16;
    while (cap < n) cap *= 2;
    long old = s->var_cap;
    s->assign = (int8_t *)realloc(s->assign, (size_t)(cap + 1));
    s->level = (int32_t *)realloc(s->level, (size_t)(cap + 1) * 4);
    s->phase = (int8_t *)realloc(s->phase, (size_t)(cap + 1));
    s->reason = (int64_t *)realloc(s->reason, (size_t)(cap + 1) * 8);
    s->trail = (int32_t *)realloc(s->trail, (size_t)(cap + 1) * 4);
    s->popped = (int32_t *)realloc(s->popped, (size_t)(cap + 1) * 4);
    s->wl = (Watch **)realloc(s->wl, (size_t)(2 * (cap + 1)) * sizeof(Watch *));
    s->wl_len = (long *)realloc(s->wl_len, (size_t)(2 * (cap + 1)) * sizeof(long));
    s->wl_cap = (long *)realloc(s->wl_cap, (size_t)(2 * (cap + 1)) * sizeof(long));
    s->mark = (uint8_t *)realloc(s->mark, (size_t)(2 * (cap + 1)));
    /* initialize the whole fresh capacity region once, so growing
     * nvars within capacity later is free */
    long i;
    for (i = old + 1; i <= cap; ++i) {
      s->assign[i] = -1;
      s->level[i] = 0;
      s->phase[i] = 0;
      s->reason[i] = -1;
    }
    for (i = 2 * (old + 1); i < 2 * (cap + 1); ++i) {
      s->wl[i] = 0;
      s->wl_len[i] = 0;
      s->wl_cap[i] = 0;
      s->mark[i] = 0;
    }
    s->var_cap = cap;
  }
  if (n > s->nvars) s->nvars = n;
  return s->var_cap;
}

Sat *repro_sat_new(void) {
  Sat *s = (Sat *)calloc(1, sizeof(Sat));
  if (!s) return 0;
  /* var 0 is the unused slot, mirroring the Python arrays */
  s->assign = (int8_t *)malloc(1);
  s->level = (int32_t *)malloc(4);
  s->phase = (int8_t *)malloc(1);
  s->reason = (int64_t *)malloc(8);
  s->trail = (int32_t *)malloc(4);
  s->popped = (int32_t *)malloc(4);
  s->wl = (Watch **)malloc(2 * sizeof(Watch *));
  s->wl_len = (long *)calloc(2, sizeof(long));
  s->wl_cap = (long *)calloc(2, sizeof(long));
  s->mark = (uint8_t *)calloc(2, 1);
  s->assign[0] = -1;
  s->level[0] = 0;
  s->phase[0] = 0;
  s->reason[0] = -1;
  s->wl[0] = 0; s->wl[1] = 0;
  s->var_cap = 0;
  repro_sat_ensure_vars(s, 16);
  s->arena_cap = 1024;
  s->arena = (int32_t *)malloc((size_t)s->arena_cap * 4);
  s->nvars = 0;
  return s;
}

void repro_sat_free(Sat *s) {
  long i;
  if (!s) return;
  for (i = 0; i < 2 * (s->var_cap + 1); ++i) free(s->wl[i]);
  free(s->wl); free(s->wl_len); free(s->wl_cap);
  free(s->assign); free(s->level); free(s->phase); free(s->reason);
  free(s->trail); free(s->popped); free(s->arena); free(s->mark);
  free(s);
}

static void arena_reserve(Sat *s, long need) {
  if (s->arena_len + need > s->arena_cap) {
    long cap = s->arena_cap ? s->arena_cap : 1024;
    while (s->arena_len + need > cap) cap *= 2;
    s->arena = (int32_t *)realloc(s->arena, (size_t)cap * 4);
    s->arena_cap = cap;
  }
}

/* Attach the size literals already written after the arena's end (the
 * caller reserved room): header, two watches (Python _attach).
 * watches[l] is visited when l becomes TRUE, hence the ^1; the
 * co-watched literal rides along as the blocker. */
static int64_t attach_tail(Sat *s, long size) {
  int64_t ref = s->arena_len;
  int32_t *lits = s->arena + ref + 1;
  s->arena[ref] = (int32_t)size;
  s->arena_len += size + 1;
  Watch w0; w0.ref = ref; w0.blocker = lits[1]; w0.pad = 0;
  Watch w1; w1.ref = ref; w1.blocker = lits[0]; w1.pad = 0;
  wl_push(s, lits[0] ^ 1, w0);
  wl_push(s, lits[1] ^ 1, w1);
  return ref;
}

/* A learnt clause: encoded literals (len >= 2), attached as given. */
int64_t repro_sat_attach(Sat *s, const int32_t *lits, long size) {
  arena_reserve(s, size + 1);
  memcpy(s->arena + s->arena_len + 1, lits, (size_t)size * 4);
  return attach_tail(s, size);
}

int repro_sat_enqueue(Sat *s, int32_t enc, int64_t reason, int32_t level) {
  int32_t var = enc >> 1;
  int8_t a = s->assign[var];
  if (a >= 0) return (a ^ (enc & 1)) == 1;
  s->assign[var] = (int8_t)((enc & 1) ^ 1);
  s->level[var] = level;
  s->reason[var] = reason;
  s->trail[s->trail_len++] = enc;
  return 1;
}

long repro_sat_backtrack(Sat *s, long bound) {
  long i, n = 0;
  for (i = s->trail_len - 1; i >= bound; --i) {
    int32_t var = s->trail[i] >> 1;
    s->phase[var] = s->assign[var];
    s->assign[var] = -1;
    s->reason[var] = -1;
    s->popped[n++] = var;
  }
  s->trail_len = bound;
  s->qhead = bound;
  return n;
}

/* Returns a conflict ref >= 0, -1 when the queue drained, or -2 when
 * max_props trail pops were spent with work remaining (the Python side
 * probes the deadline and calls again — the stride that keeps time
 * limits binding at zero conflicts). */
int64_t repro_sat_propagate(Sat *s, int32_t cur_level, int64_t max_props,
                            int64_t *props_out) {
  int64_t props = 0;
  int8_t *assign = s->assign;
  int32_t *arena = s->arena;
  while (s->qhead < s->trail_len) {
    if (props >= max_props) { *props_out = props; return -2; }
    int32_t p = s->trail[s->qhead++];
    props++;
    int32_t false_lit = p ^ 1;
    Watch *wl = s->wl[p];
    long i = 0, j = 0, n = s->wl_len[p];
    while (i < n) {
      Watch entry = wl[i];
      i++;
      int32_t blocker = entry.blocker;
      int8_t bv = assign[blocker >> 1];
      if (bv >= 0 && bv != (blocker & 1)) {
        /* blocker already true: clause satisfied, keep as-is */
        wl[j++] = entry;
        continue;
      }
      int64_t cref = entry.ref;
      int32_t *cls = arena + cref + 1;
      int32_t size = arena[cref];
      /* normalize: the false literal must sit in slot 1 */
      if (cls[0] == false_lit) { cls[0] = cls[1]; cls[1] = false_lit; }
      int32_t first = cls[0];
      int8_t fv = assign[first >> 1];
      if (fv >= 0 && fv != (first & 1)) {
        entry.blocker = first;
        wl[j++] = entry;
        continue;
      }
      int moved = 0;
      long k;
      for (k = 2; k < size; ++k) {
        int32_t lk = cls[k];
        int8_t v = assign[lk >> 1];
        if (v < 0 || v != (lk & 1)) {
          cls[1] = lk;
          cls[k] = false_lit;
          /* migrate the entry to the new watch list; lk != false_lit
           * (clause literals are distinct), so wl[p] never reallocs
           * under us */
          entry.blocker = first;
          wl_push(s, lk ^ 1, entry);
          moved = 1;
          break;
        }
      }
      if (moved) continue;
      entry.blocker = first;
      wl[j++] = entry;
      if (fv >= 0) {
        /* first is false: conflict.  Keep remaining watchers. */
        while (i < n) wl[j++] = wl[i++];
        s->wl_len[p] = j;
        s->qhead = s->trail_len;
        *props_out = props;
        return cref;
      }
      /* unit: first is unassigned here — enqueue inline */
      int32_t var = first >> 1;
      assign[var] = (int8_t)((first & 1) ^ 1);
      s->level[var] = cur_level;
      s->reason[var] = cref;
      s->trail[s->trail_len++] = first;
    }
    s->wl_len[p] = j;
  }
  *props_out = props;
  return -1;
}

/* Problem-clause intake: flat = [size, lit0..lit(size-1)]* in signed
 * DIMACS literals.  Each clause goes through a line-for-line mirror of
 * the Python Solver._add_clause: vars grown per literal, duplicate
 * literals dropped, a tautology skipped, and at decision level 0 false
 * literals dropped and a satisfied clause skipped; an empty clause makes
 * the formula UNSAT, a unit is enqueued and propagated at level 0, and
 * anything longer is attached.  Intake stops at the first clause that
 * makes the formula UNSAT (return 1), at a 0 literal (2), at a unit
 * above level 0 (3) or at a size word that overruns the buffer (4); 0
 * means every clause was taken.  refs[] receives
 * the attached clauses' refs; out[] = {propagations, refs written,
 * nvars}. */
long repro_sat_add_clauses(Sat *s, const int32_t *flat, long n,
                           int32_t level, int64_t *refs, int64_t *out) {
  long pos = 0, nrefs = 0, code = 0;
  int64_t props = 0;
  while (pos < n) {
    long size = flat[pos];
    if (size < 0 || pos + 1 + size > n) { code = 4; break; }
    const int32_t *lits = flat + pos + 1;
    pos += size + 1;
    /* build the kept literals in place after the arena's end */
    arena_reserve(s, size + 1);
    int32_t *cls = s->arena + s->arena_len + 1;
    long i, k = 0, end = size;
    int skip = 0;
    for (i = 0; i < size; ++i) {
      int32_t lit = lits[i];
      if (lit == 0) { code = 2; end = i; break; }
      int32_t var = lit > 0 ? lit : -lit;
      if (var > s->nvars) repro_sat_ensure_vars(s, var);
      int32_t enc = (var << 1) | (lit < 0);
      if (s->mark[enc ^ 1]) { skip = 1; end = i; break; }  /* x | -x */
      if (s->mark[enc]) continue;
      s->mark[enc] = 1;
      if (level == 0) {
        int8_t a = s->assign[var];
        if (a >= 0) {
          if ((a ^ (enc & 1)) == 1) { skip = 1; end = i + 1; break; }
          continue;
        }
      }
      cls[k++] = enc;
    }
    for (i = 0; i < end; ++i) {
      int32_t lit = lits[i];
      s->mark[lit > 0 ? lit << 1 : ((-lit) << 1) | 1] = 0;
    }
    if (code) break;
    if (skip) continue;
    if (k == 0) { code = 1; break; }
    if (k == 1) {
      if (level > 0) { code = 3; break; }
      int64_t p = 0;
      if (!repro_sat_enqueue(s, cls[0], -1, 0)) { code = 1; break; }
      int64_t conflict = repro_sat_propagate(s, 0, INT64_MAX, &p);
      props += p;
      if (conflict != -1) { code = 1; break; }
      continue;
    }
    refs[nrefs++] = attach_tail(s, k);
  }
  out[0] = props;
  out[1] = nrefs;
  out[2] = s->nvars;
  return code;
}

/* Learned-DB reduction GC: copy the live clauses (problem clauses plus
 * kept learnts, in caller order) into a fresh arena, leave a forwarding
 * address (-2 - new_ref) in each old header, then remap the reason
 * array and filter every watch list in place — order-preserving, like
 * the Python _reduce_db's list comprehension.  refs[] is rewritten in
 * place with the new arena offsets. */
long repro_sat_compact(Sat *s, int64_t *refs, long n) {
  int32_t *old = s->arena;
  int32_t *fresh = (int32_t *)malloc((size_t)s->arena_cap * 4);
  long new_len = 0;
  long i, v, lit;
  for (i = 0; i < n; ++i) {
    int64_t r = refs[i];
    int32_t size = old[r];
    fresh[new_len] = size;
    memcpy(fresh + new_len + 1, old + r + 1, (size_t)size * 4);
    old[r] = (int32_t)(-2 - new_len);
    refs[i] = new_len;
    new_len += size + 1;
  }
  for (v = 1; v <= s->nvars; ++v) {
    int64_t r = s->reason[v];
    if (r >= 0) {
      int32_t f = old[r];
      /* reasons are locked, so always among the kept clauses */
      s->reason[v] = (f < 0) ? (int64_t)(-2 - f) : -1;
    }
  }
  for (lit = 0; lit < 2 * (s->var_cap + 1); ++lit) {
    Watch *wl = s->wl[lit];
    long len = s->wl_len[lit], j = 0;
    for (i = 0; i < len; ++i) {
      int32_t f = old[wl[i].ref];
      if (f < 0) {
        wl[i].ref = -2 - f;
        wl[j++] = wl[i];
      }
    }
    s->wl_len[lit] = j;
  }
  free(old);
  s->arena = fresh;
  s->arena_len = new_len;
  return new_len;
}

/* flat-buffer accessors for the Python-side zero-copy views */
void *repro_sat_assign(Sat *s) { return s->assign; }
void *repro_sat_level(Sat *s) { return s->level; }
void *repro_sat_phase(Sat *s) { return s->phase; }
void *repro_sat_reason(Sat *s) { return s->reason; }
void *repro_sat_trail(Sat *s) { return s->trail; }
void *repro_sat_popped(Sat *s) { return s->popped; }
void *repro_sat_arena(Sat *s) { return s->arena; }
long repro_sat_trail_len(Sat *s) { return s->trail_len; }
long repro_sat_arena_len(Sat *s) { return s->arena_len; }
long repro_sat_arena_cap(Sat *s) { return s->arena_cap; }
""".replace("%(version)d", str(SOURCE_FORMAT_VERSION))


def core_source():
    """The C core translation unit (content-hashed for the cache)."""
    return _CORE_SOURCE


def native_enabled():
    """Whether the env permits this backend (``REPRO_NATIVE`` != 0 and
    ``REPRO_NATIVE_SOLVER`` != 0)."""
    return nativelib.native_enabled(COMPONENT)


def native_available():
    """True when the backend is enabled and a compiler is present."""
    return nativelib.native_available(COMPONENT)


_VOIDP = ctypes.c_void_p
_P32 = ctypes.POINTER(ctypes.c_int32)
_P64 = ctypes.POINTER(ctypes.c_int64)


def _configure(lib):
    lib.repro_sat_new.argtypes = []
    lib.repro_sat_new.restype = _VOIDP
    lib.repro_sat_free.argtypes = [_VOIDP]
    lib.repro_sat_free.restype = None
    lib.repro_sat_ensure_vars.argtypes = [_VOIDP, ctypes.c_long]
    lib.repro_sat_ensure_vars.restype = ctypes.c_long
    lib.repro_sat_attach.argtypes = [_VOIDP, _P32, ctypes.c_long]
    lib.repro_sat_attach.restype = ctypes.c_int64
    lib.repro_sat_add_clauses.argtypes = [
        _VOIDP, _VOIDP, ctypes.c_long, ctypes.c_int32, _VOIDP, _P64,
    ]
    lib.repro_sat_add_clauses.restype = ctypes.c_long
    lib.repro_sat_enqueue.argtypes = [
        _VOIDP, ctypes.c_int32, ctypes.c_int64, ctypes.c_int32,
    ]
    lib.repro_sat_enqueue.restype = ctypes.c_int
    lib.repro_sat_backtrack.argtypes = [_VOIDP, ctypes.c_long]
    lib.repro_sat_backtrack.restype = ctypes.c_long
    lib.repro_sat_propagate.argtypes = [
        _VOIDP, ctypes.c_int32, ctypes.c_int64, _P64,
    ]
    lib.repro_sat_propagate.restype = ctypes.c_int64
    lib.repro_sat_compact.argtypes = [_VOIDP, _P64, ctypes.c_long]
    lib.repro_sat_compact.restype = ctypes.c_long
    for name in ("assign", "level", "phase", "reason", "trail", "popped",
                 "arena"):
        fn = getattr(lib, f"repro_sat_{name}")
        fn.argtypes = [_VOIDP]
        fn.restype = _VOIDP
    for name in ("trail_len", "arena_len", "arena_cap"):
        fn = getattr(lib, f"repro_sat_{name}")
        fn.argtypes = [_VOIDP]
        fn.restype = ctypes.c_long


def _load_core(directory=None, cc=None):
    """Load (building on demand) the shared solver core library."""
    return nativelib.load_library(
        COMPONENT, core_source(), _configure, directory=directory, cc=cc
    )


def clear_core_cache():
    """Forget per-process load outcomes (tests toggling env knobs)."""
    nativelib.clear_cache(COMPONENT)


def last_error():
    """The most recent build failure message, or ``None``."""
    return nativelib.last_error(COMPONENT)


class NativeSolverCore:
    """One solver instance's C state, plus the zero-copy views over it.

    The var-indexed arrays (``assign``/``level``/``phase``) are exposed
    as ``ctypes`` views sized to the C capacity; they are rebuilt when
    :meth:`ensure_vars` grows the backing buffers (the old views would
    dangle), so holders must re-fetch them afterwards —
    :class:`~repro.sat.solver.Solver` rebinds in ``ensure_vars``.
    Arena views are refreshed lazily because learnt-clause appends can
    realloc mid-search.
    """

    def __init__(self, directory=None, cc=None):
        self._lib = None
        self._s = None
        lib = _load_core(directory=directory, cc=cc)
        handle = lib.repro_sat_new()
        if not handle:
            raise NativeUnavailable("repro_sat_new returned NULL")
        self._lib = lib
        self._s = handle
        self._var_cap = -1
        self._arena_dirty = True
        self._arena_view = None
        # Reused across propagate() calls: one allocation, not one per
        # decision (the byref box shows up in profiles otherwise).
        self._props_box = ctypes.c_int64(0)
        self._props_ref = ctypes.byref(self._props_box)
        self._intake_out = (ctypes.c_int64 * 3)()
        self._refresh_vars(lib.repro_sat_ensure_vars(handle, 0))

    # -- lifecycle -----------------------------------------------------
    def __del__(self):
        lib, s = self._lib, self._s
        if lib is not None and s:
            self._s = None
            lib.repro_sat_free(s)

    # -- variable arrays ----------------------------------------------
    def ensure_vars(self, n):
        """Grow the var tables to hold vars ``1..n``; True when the
        backing buffers moved (views were rebuilt)."""
        cap = self._lib.repro_sat_ensure_vars(self._s, n)
        if cap == self._var_cap:
            return False
        self._refresh_vars(cap)
        return True

    def _refresh_vars(self, cap):
        lib, s = self._lib, self._s
        self._var_cap = cap
        size = cap + 1
        self.assign = (ctypes.c_int8 * size).from_address(
            lib.repro_sat_assign(s))
        self.level = (ctypes.c_int32 * size).from_address(
            lib.repro_sat_level(s))
        self.phase = (ctypes.c_int8 * size).from_address(
            lib.repro_sat_phase(s))
        self.reason = (ctypes.c_int64 * size).from_address(
            lib.repro_sat_reason(s))
        self.trail = (ctypes.c_int32 * size).from_address(
            lib.repro_sat_trail(s))
        self.popped = (ctypes.c_int32 * size).from_address(
            lib.repro_sat_popped(s))

    # -- clauses -------------------------------------------------------
    def attach(self, lits):
        """Append a learnt clause ``lits`` (encoded, len >= 2) to the
        arena as given and attach its two watches; returns the clause
        ref (arena offset)."""
        arr = (ctypes.c_int32 * len(lits))(*lits)
        self._arena_dirty = True
        return self._lib.repro_sat_attach(self._s, arr, len(lits))

    def add_clauses(self, flat, level):
        """Take the problem clauses of ``flat`` (``[size, lit, ...]*``,
        signed DIMACS literals) at decision level ``level``.

        Returns ``(code, propagations, refs, nvars)``: ``code`` is 0 when
        every clause was taken, 1 when the formula became UNSAT, 2 on a
        ``0`` literal, 3 on a unit clause above level 0 and 4 on a size
        word that overruns the buffer; ``refs`` are
        the attached clauses in order and ``nvars`` the grown variable
        count (the caller rebinds its views through :meth:`ensure_vars`).
        """
        buf = array("i", flat)
        n = len(buf)
        refs = array("q", bytes(8 * (n // 3 + 1)))
        out = self._intake_out
        self._arena_dirty = True
        code = self._lib.repro_sat_add_clauses(
            self._s, buf.buffer_info()[0], n, level,
            refs.buffer_info()[0], out)
        return code, out[0], refs[:out[1]], out[2]

    def _arena(self):
        # Appends and compaction are the only realloc sources and both
        # run through this class, so a dirty flag (no foreign calls)
        # suffices to keep the view fresh — clause_lits sits on the
        # conflict-analysis hot path.
        if self._arena_dirty:
            lib, s = self._lib, self._s
            self._arena_view = (
                ctypes.c_int32 * lib.repro_sat_arena_cap(s)
            ).from_address(lib.repro_sat_arena(s))
            self._arena_dirty = False
        return self._arena_view

    def clause_lits(self, ref):
        """The clause's encoded literals (a fresh list)."""
        arena = self._arena()
        return arena[ref + 1 : ref + 1 + arena[ref]]

    def clause_size(self, ref):
        return self._arena()[ref]

    def reason_of(self, var):
        """The var's reason clause ref, or None (mirrors ``_reason``)."""
        r = self.reason[var]
        return r if r >= 0 else None

    def compact(self, refs):
        """GC the arena down to ``refs`` (in order); returns the new
        refs aligned with the input.  Reasons and watch lists are
        remapped in C, order-preserved."""
        n = len(refs)
        arr = (ctypes.c_int64 * max(1, n))(*(refs or [0]))
        self._arena_dirty = True
        self._lib.repro_sat_compact(self._s, arr, n)
        return list(arr[:n])

    # -- trail ---------------------------------------------------------
    def trail_len(self):
        return self._lib.repro_sat_trail_len(self._s)

    def enqueue(self, enc, reason, level):
        """Assign an encoded literal (mirrors Python ``_enqueue``)."""
        return bool(self._lib.repro_sat_enqueue(
            self._s, enc, -1 if reason is None else reason, level))

    def backtrack(self, bound):
        """Pop the trail down to ``bound`` (phase save, clear assign and
        reason, queue reset); returns the popped count, vars readable
        from :attr:`popped` in reverse trail order."""
        return self._lib.repro_sat_backtrack(self._s, bound)

    def propagate(self, cur_level, max_props):
        """One C propagation stride.  Returns ``(code, props)`` where
        code is a conflict ref >= 0, -1 for queue drained, or -2 for
        budget pause with work remaining."""
        code = self._lib.repro_sat_propagate(
            self._s, cur_level, max_props, self._props_ref)
        return code, self._props_box.value


def build_core(directory=None, cc=None):
    """Best-effort :class:`NativeSolverCore`.

    Returns ``None`` (and records :func:`last_error`) instead of
    raising: every failure mode must degrade to the Python loops.
    """
    if not native_enabled():
        return None
    try:
        return NativeSolverCore(directory=directory, cc=cc)
    except NativeUnavailable as exc:
        nativelib.record_error(COMPONENT, str(exc))
        return None
