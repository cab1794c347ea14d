"""Native (C-compiled) CDCL search core behind :class:`Solver`.

The whole search of one :meth:`Solver.solve` runs here, in one C call:
assumption levels, decisions, two-literal-watching propagation, 1UIP
conflict analysis with the "drop implied literals" minimisation,
backjumping, Luby restarts and learnt-database reduction.  The core owns
every piece of state that loop touches: a contiguous clause arena
(``int32`` words, clauses stored as ``[size, lit0..litN-1]`` and named
by their arena offset), per-encoded-literal watch arrays with blocker
literals, the trail and the assignment/level/phase/reason arrays, the
decision-level stack, the VSIDS activities and order heap, the learnt
clauses with their activities and the persistent learnt-database
limit.  Python keeps only the entry point, the counters and the clock.

Bit-identity contract
---------------------
The C search is a line-for-line mirror of the pure-Python
``Solver._search`` and everything it calls, which stays in
:mod:`repro.sat.solver` as the reference and as the backend of hosts
without a compiler:

* propagation visits blockers first, normalises the false literal into
  slot 1, migrates watch entries in place and compacts each watch list
  with a read/write cursor; on a conflict it keeps the remaining
  watchers and drains the queue;
* analysis walks the conflict and reason clauses in arena order, bumps
  activities in that order (rescaling everything by ``1e-100`` past
  ``1e100``) and drops learnt literals whose reason is implied by the
  rest; the backjump literal is the first one at the second-highest
  level;
* the order heap holds ``(-activity, var)`` keys with one live entry
  per variable (``queued``), dropping stale entries once it outgrows
  ``2 * nvars + 64``, rebuilding after a rescale at the next solve and
  scanning linearly when a rescale left no valid entry.  Keys of live
  entries are unique, so this binary heap pops exactly the sequence
  Python's ``heapq`` pops;
* the learnt-database reduction sorts the learnts stably by activity,
  drops the less active half except reasons and binaries, and compacts
  the arena (problem clauses first, then the kept learnts);
* the activity increments and decays arrive from Python as the same
  doubles and go back after every call.

Clause intake (``repro_sat_add_clauses``, one call per flat ``[size,
lit, ...]*`` buffer) mirrors ``Solver._add_clause`` the same way.  Same
intake, same visit order and the same floating-point operations mean
the same propagation counts, conflicts, learnt clauses and models on
both backends; ``tests/test_solver_differential.py``,
``tests/test_clause_intake.py`` and the pinned trajectories of
``tests/test_branching_order.py`` enforce it.

Deadlines
---------
An unbounded solve is one C call.  Under a bounded
:class:`repro.budget.Deadline` the search pauses — returns to Python
with all its state kept — before its first decision, every
``prop_stride`` trail pops and every ``conflict_stride`` conflicts (at
the point where the Python loop probes the clock after a conflict), so
Python can read the clock and either resume or abandon the search.

Caching, fallback, knobs
------------------------
Built and loaded through :mod:`repro.nativelib`: the core is
content-addressed under its cache directory, published atomically, and
every failure (no compiler, failed compile, corrupt cache entry)
degrades silently to the pure-Python loops, latched once per process.
``REPRO_NATIVE=0`` or ``REPRO_NATIVE_SOLVER=0`` disables it.
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
    "UNSAT",
    "SAT",
    "BUDGET",
    "PAUSE",
    "ROOT_UNSAT",
]

#: The per-component gate/latch name under :mod:`repro.nativelib`.
COMPONENT = "solver"

#: Bumped whenever the C core changes meaning; part of the source (hence
#: the content hash), so stale ``.so`` entries stop matching instead of
#: being loaded.
SOURCE_FORMAT_VERSION = 3

#: ``repro_sat_search`` outcomes: unsatisfiable under the assumptions,
#: satisfiable (the trail holds the model), out of conflicts, paused for
#: a clock probe, and unsatisfiable at level 0 (the formula itself).
UNSAT, SAT, BUDGET, PAUSE, ROOT_UNSAT = range(5)

_CORE_SOURCE = r"""
/* repro.sat.native — CDCL search core, v%(version)d
 *
 * Literal encoding mirrors repro.sat.solver: enc = 2*var + sign
 * (positive literals even); enc^1 negates; enc is true iff
 * assign[enc>>1] == (enc&1)^1.  Clauses live in one int32 arena as
 * [size, lit0..litN-1] and are named by their arena offset; watch
 * entry i of literal p is visited when p becomes true and carries a
 * blocker literal checked before the clause is touched at all.
 *
 * Every routine below is a line-for-line mirror of its namesake in the
 * Python Solver (_propagate, _analyze, _backtrack, _pick_branch_var,
 * _rebuild_heap, _queue_new_vars, _reduce_db, _search), because the
 * two backends are required to be bit-identical: same propagation
 * counts, same learnt clauses, same models.
 */
#define _POSIX_C_SOURCE 200809L
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

typedef struct {
  int64_t ref;      /* arena offset of the watched clause */
  int32_t blocker;  /* cached literal checked before the clause */
  int32_t pad;
} Watch;

typedef struct {
  double key;       /* -activity */
  int32_t var;
  int32_t pad;
} HeapEnt;

enum { S_UNSAT = 0, S_SAT = 1, S_BUDGET = 2, S_PAUSE = 3, S_ROOT_UNSAT = 4 };
enum { ST_START = 0, ST_LOOP = 1, ST_TAIL = 2 };

#define LOCKED 0x40000000  /* header flag while _reduce_db runs */

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
  long *trail_lim;  /* decision levels: trail length at each */
  long nlevels, lim_cap;
  Watch  **wl;      /* per encoded literal */
  long *wl_len;
  long *wl_cap;
  int32_t *arena;
  long arena_len;
  long arena_cap;
  uint8_t *mark;    /* per encoded literal: seen in the clause being taken */
  int64_t *clauses; /* problem-clause refs, intake order */
  long nclauses, clauses_cap;
  int64_t *learnts; /* learnt refs, in the order _reduce_db keeps them */
  double *learnt_act;
  long nlearnts, learnts_cap;
  long max_learnts; /* learned-DB limit, grows monotonically */
  /* VSIDS */
  double *activity;
  double *queued;   /* by var: activity of its live heap entry ... */
  uint8_t *live;    /* ... valid iff live[var] (Python: queued != None) */
  HeapEnt *heap;
  long heap_len, heap_cap;
  long heap_vars;   /* vars 1..n already handed to the heap */
  int rescaled;     /* activity rescale since the last rebuild */
  double var_inc, var_decay, cla_inc, cla_decay;
  /* conflict analysis */
  uint8_t *seen;    /* by var */
  int32_t *learnt;  /* the 1UIP clause, var_cap+1 */
  int32_t *kept;    /* its minimised form */
  /* one solve, kept across pauses */
  int32_t *assumps;
  long nassumps, assumps_cap;
  int64_t max_conflicts;      /* -1: none */
  int64_t prop_stride, conflict_stride;  /* 0: no clock probes */
  int64_t props_left;         /* trail pops until the next probe */
  double expires_at;          /* CLOCK_MONOTONIC seconds; < 0: caller's */
  int64_t solve_conflicts;
  long restart_round;
  int64_t restart_budget, restart_conflicts;
  int stage;
  int extend_resumed;         /* paused at the extend probe */
  /* counters: per call (conflicts, decisions, propagations), lifetime
   * (linear-scan picks, largest heap after a backtrack) */
  int64_t n_conflicts, n_decisions, n_props;
  int64_t scan_picks, heap_peak;
} Sat;

static void *grow(void *p, long *cap, long need, size_t item) {
  if (need <= *cap) return p;
  long c = *cap ? *cap : 16;
  while (c < need) c *= 2;
  *cap = c;
  return realloc(p, (size_t)c * item);
}

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
    long cap = s->var_cap > 0 ? s->var_cap : 16;
    while (cap < n) cap *= 2;
    long old = s->var_cap;
    size_t nv = (size_t)(cap + 1), nl = (size_t)(2 * (cap + 1));
    s->assign = (int8_t *)realloc(s->assign, nv);
    s->level = (int32_t *)realloc(s->level, nv * 4);
    s->phase = (int8_t *)realloc(s->phase, nv);
    s->reason = (int64_t *)realloc(s->reason, nv * 8);
    s->trail = (int32_t *)realloc(s->trail, nv * 4);
    s->activity = (double *)realloc(s->activity, nv * sizeof(double));
    s->queued = (double *)realloc(s->queued, nv * sizeof(double));
    s->live = (uint8_t *)realloc(s->live, nv);
    s->seen = (uint8_t *)realloc(s->seen, nv);
    s->learnt = (int32_t *)realloc(s->learnt, nv * 4);
    s->kept = (int32_t *)realloc(s->kept, nv * 4);
    s->wl = (Watch **)realloc(s->wl, nl * sizeof(Watch *));
    s->wl_len = (long *)realloc(s->wl_len, nl * sizeof(long));
    s->wl_cap = (long *)realloc(s->wl_cap, nl * sizeof(long));
    s->mark = (uint8_t *)realloc(s->mark, nl);
    /* initialize the whole fresh capacity region once, so growing
     * nvars within capacity later is free */
    long i;
    for (i = old + 1; i <= cap; ++i) {
      s->assign[i] = -1;
      s->level[i] = 0;
      s->phase[i] = 0;
      s->reason[i] = -1;
      s->activity[i] = 0.0;
      s->queued[i] = 0.0;
      s->live[i] = 0;
      s->seen[i] = 0;
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
  /* var 0 is the unused slot, mirroring the Python arrays; var_cap -1
   * makes the first ensure_vars initialize it with the rest */
  s->var_cap = -1;
  repro_sat_ensure_vars(s, 16);
  s->nvars = 0;
  s->arena_cap = 1024;
  s->arena = (int32_t *)malloc((size_t)s->arena_cap * 4);
  s->max_conflicts = -1;
  return s;
}

void repro_sat_free(Sat *s) {
  long i;
  if (!s) return;
  for (i = 0; i < 2 * (s->var_cap + 1); ++i) free(s->wl[i]);
  free(s->wl); free(s->wl_len); free(s->wl_cap);
  free(s->assign); free(s->level); free(s->phase); free(s->reason);
  free(s->trail); free(s->trail_lim); free(s->arena); free(s->mark);
  free(s->clauses); free(s->learnts); free(s->learnt_act);
  free(s->activity); free(s->queued); free(s->live); free(s->heap);
  free(s->seen); free(s->learnt); free(s->kept); free(s->assumps);
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

static int enqueue(Sat *s, int32_t enc, int64_t reason) {
  int32_t var = enc >> 1;
  int8_t a = s->assign[var];
  if (a >= 0) return (a ^ (enc & 1)) == 1;
  s->assign[var] = (int8_t)((enc & 1) ^ 1);
  s->level[var] = (int32_t)s->nlevels;
  s->reason[var] = reason;
  s->trail[s->trail_len++] = enc;
  return 1;
}

static void new_decision_level(Sat *s) {
  s->trail_lim = (long *)grow(s->trail_lim, &s->lim_cap, s->nlevels + 1,
                              sizeof(long));
  s->trail_lim[s->nlevels++] = s->trail_len;
}

/* ---- order heap: a binary min-heap over (key, var) ------------------ */

static int heap_less(const HeapEnt *a, const HeapEnt *b) {
  return a->key < b->key || (a->key == b->key && a->var < b->var);
}

static void heap_push(Sat *s, double key, int32_t var) {
  s->heap = (HeapEnt *)grow(s->heap, &s->heap_cap, s->heap_len + 1,
                            sizeof(HeapEnt));
  HeapEnt e; e.key = key; e.var = var; e.pad = 0;
  long i = s->heap_len++;
  while (i > 0) {
    long up = (i - 1) >> 1;
    if (!heap_less(&e, &s->heap[up])) break;
    s->heap[i] = s->heap[up];
    i = up;
  }
  s->heap[i] = e;
}

static void heap_sift_down(Sat *s, long i, HeapEnt e) {
  HeapEnt *h = s->heap;
  long n = s->heap_len;
  for (;;) {
    long c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && heap_less(&h[c + 1], &h[c])) c++;
    if (!heap_less(&h[c], &e)) break;
    h[i] = h[c];
    i = c;
  }
  h[i] = e;
}

static HeapEnt heap_pop(Sat *s) {
  HeapEnt top = s->heap[0];
  HeapEnt last = s->heap[--s->heap_len];
  if (s->heap_len > 0) heap_sift_down(s, 0, last);
  return top;
}

/* One heap entry per unassigned variable whose live entry is current —
 * with revive, per unassigned variable (Python _rebuild_heap). */
static void rebuild_heap(Sat *s, int revive) {
  long v, n = 0;
  s->heap = (HeapEnt *)grow(s->heap, &s->heap_cap, s->nvars, sizeof(HeapEnt));
  for (v = 1; v <= s->nvars; ++v) {
    double act = s->activity[v];
    if (s->assign[v] == -1 &&
        (revive || (s->live[v] && s->queued[v] == act))) {
      s->heap[n].key = -act;
      s->heap[n].var = (int32_t)v;
      s->heap[n].pad = 0;
      n++;
      s->live[v] = 1;
      s->queued[v] = act;
    } else {
      s->live[v] = 0;
    }
  }
  s->heap_len = n;
  for (v = n / 2 - 1; v >= 0; --v) heap_sift_down(s, v, s->heap[v]);
  if (revive) {
    s->heap_vars = s->nvars;
    s->rescaled = 0;
  }
}

/* Python _queue_new_vars. */
static void queue_new_vars(Sat *s) {
  long v;
  if (s->rescaled) { rebuild_heap(s, 1); return; }
  for (v = s->heap_vars + 1; v <= s->nvars; ++v) {
    if (s->assign[v] == -1) {
      double act = s->activity[v];
      s->live[v] = 1;
      s->queued[v] = act;
      heap_push(s, -act, (int32_t)v);
    }
  }
  s->heap_vars = s->nvars;
}

/* Python _backtrack: pop the trail down to the level's start (phase
 * save, clear assign and reason), pushing each variable whose live
 * entry is not at its current activity, in reverse trail order. */
static void backtrack(Sat *s, long level) {
  if (s->nlevels > level) {
    long i, bound = s->trail_lim[level];
    for (i = s->trail_len - 1; i >= bound; --i) {
      int32_t var = s->trail[i] >> 1;
      s->phase[var] = s->assign[var];
      s->assign[var] = -1;
      s->reason[var] = -1;
      double act = s->activity[var];
      if (!s->live[var] || s->queued[var] != act) {
        s->live[var] = 1;
        s->queued[var] = act;
        heap_push(s, -act, var);
      }
    }
    s->trail_len = bound;
    s->qhead = bound;
    s->nlevels = level;
    if (s->heap_len > 2 * s->nvars + 64) rebuild_heap(s, 0);
  }
  if (s->heap_len > s->heap_peak) s->heap_peak = s->heap_len;
}

void repro_sat_backtrack(Sat *s, long level) { backtrack(s, level); }
void repro_sat_new_decision_level(Sat *s) { new_decision_level(s); }

/* Python _pick_branch_var; 0 = no variable left. */
static int32_t pick_branch_var(Sat *s) {
  long v;
  if (s->trail_len == s->nvars) return 0;
  while (s->heap_len) {
    HeapEnt e = heap_pop(s);
    double act = -e.key;
    int32_t var = e.var;
    if (s->live[var] && act == s->queued[var]) s->live[var] = 0;
    if (s->assign[var] == -1 && act == s->activity[var]) return var;
  }
  /* only after a rescale mid-solve: the stale variables wait here until
   * a backtrack re-queues them or the next solve revives them */
  for (v = 1; v <= s->nvars; ++v) {
    if (s->assign[v] == -1) { s->scan_picks++; return (int32_t)v; }
  }
  return 0;
}

/* Returns a conflict ref >= 0, -1 when the queue drained, or -2 when
 * max_props trail pops were spent with work remaining. */
static int64_t repro_sat_propagate(Sat *s, int64_t max_props,
                                   int64_t *props_out) {
  int64_t props = 0;
  int8_t *assign = s->assign;
  int32_t *arena = s->arena;
  int32_t cur_level = (int32_t)s->nlevels;
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
 * anything longer is attached and appended to the problem clauses.
 * Intake stops at the first clause that makes the formula UNSAT
 * (return 1), at a 0 literal (2), at a unit above level 0 (3) or at a
 * size word that overruns the buffer (4); 0 means every clause was
 * taken.  out[] = {propagations, nvars}. */
long repro_sat_add_clauses(Sat *s, const int32_t *flat, long n,
                           int64_t *out) {
  long pos = 0, code = 0;
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
      if (s->nlevels == 0) {
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
      if (s->nlevels > 0) { code = 3; break; }
      int64_t p = 0;
      if (!enqueue(s, cls[0], -1)) { code = 1; break; }
      int64_t conflict = repro_sat_propagate(s, INT64_MAX, &p);
      props += p;
      if (conflict != -1) { code = 1; break; }
      continue;
    }
    s->clauses = (int64_t *)grow(s->clauses, &s->clauses_cap,
                                 s->nclauses + 1, 8);
    s->clauses[s->nclauses++] = attach_tail(s, k);
  }
  out[0] = props;
  out[1] = s->nvars;
  return code;
}

/* ---- conflict analysis (first UIP) ---------------------------------- */

static void bump_var(Sat *s, int32_t var) {
  s->activity[var] += s->var_inc;
  if (s->activity[var] > 1e100) {
    long v;
    for (v = 1; v <= s->nvars; ++v) s->activity[v] *= 1e-100;
    s->var_inc *= 1e-100;
    s->rescaled = 1;
  }
}

/* Python _analyze: the minimised learnt clause lands in s->kept (its
 * length returned), the backjump level in *bt_level. */
static long analyze(Sat *s, int64_t conflict, long *bt_level) {
  uint8_t *seen = s->seen;
  int32_t *level = s->level;
  int32_t *learnt = s->learnt;
  int32_t *kept = s->kept;
  long n = 1, kn, i, index = s->trail_len - 1;
  long counter = 0;
  int32_t p = -1;  /* sentinel: first round analyzes the whole clause */
  int32_t var;
  long current_level = s->nlevels;
  int64_t cref = conflict;
  learnt[0] = 0;
  for (;;) {
    int32_t skip = p ^ 1;
    int32_t *cls = s->arena + cref + 1;
    int32_t size = s->arena[cref];
    long k;
    for (k = 0; k < size; ++k) {
      int32_t q = cls[k];
      if (q == skip) continue;
      var = q >> 1;
      if (!seen[var] && level[var] > 0) {
        seen[var] = 1;
        bump_var(s, var);
        if (level[var] >= current_level) counter++;
        else learnt[n++] = q;
      }
    }
    while (!seen[s->trail[index] >> 1]) index--;
    p = s->trail[index] ^ 1;
    var = p >> 1;
    seen[var] = 0;
    index--;
    counter--;
    if (counter == 0) break;
    cref = s->reason[var];
  }
  learnt[0] = p;

  /* cheap minimization: drop literals implied by the rest */
  kept[0] = p;
  kn = 1;
  if (n > 1) {
    seen[p >> 1] = 1;
    for (i = 1; i < n; ++i) {
      int32_t q = learnt[i];
      int64_t r = s->reason[q >> 1];
      if (r >= 0) {
        int32_t *cls = s->arena + r + 1;
        int32_t size = s->arena[r], k;
        int implied = 1;
        for (k = 0; k < size; ++k) {
          int32_t x = cls[k];
          if (x == (q ^ 1)) continue;
          if (!(seen[x >> 1] || level[x >> 1] == 0)) { implied = 0; break; }
        }
        if (implied) continue;
      }
      kept[kn++] = q;
    }
  }
  for (i = 0; i < n; ++i) seen[learnt[i] >> 1] = 0;

  if (kn == 1) {
    *bt_level = 0;
  } else {
    /* second-highest decision level among learnt literals */
    long max_i = 1;
    for (i = 2; i < kn; ++i)
      if (level[kept[i] >> 1] > level[kept[max_i] >> 1]) max_i = i;
    int32_t t = kept[1]; kept[1] = kept[max_i]; kept[max_i] = t;
    *bt_level = level[kept[1] >> 1];
  }
  return kn;
}

/* ---- learnt database ------------------------------------------------ */

static void record_learnt(Sat *s, const int32_t *lits, long size) {
  arena_reserve(s, size + 1);
  memcpy(s->arena + s->arena_len + 1, lits, (size_t)size * 4);
  int64_t ref = attach_tail(s, size);
  if (s->nlearnts == s->learnts_cap) {
    long cap = s->learnts_cap ? 2 * s->learnts_cap : 64;
    s->learnts = (int64_t *)realloc(s->learnts, (size_t)cap * 8);
    s->learnt_act = (double *)realloc(s->learnt_act,
                                      (size_t)cap * sizeof(double));
    s->learnts_cap = cap;
  }
  s->learnts[s->nlearnts] = ref;
  /* Python _bump_clause: clause_act.get(key, 0.0) + cla_inc */
  s->learnt_act[s->nlearnts] = 0.0 + s->cla_inc;
  s->nlearnts++;
  enqueue(s, lits[0], ref);
}

/* Learned-DB reduction GC: copy the live clauses (problem clauses, then
 * kept learnts, in order) into a fresh arena, leave a forwarding
 * address (-2 - new_ref) in each old header, then remap the reason
 * array and filter every watch list in place, order-preserving. */
static void repro_sat_compact(Sat *s) {
  int32_t *old = s->arena;
  int32_t *fresh = (int32_t *)malloc((size_t)s->arena_cap * 4);
  long new_len = 0;
  long i, v, lit, part;
  for (part = 0; part < 2; ++part) {
    int64_t *refs = part ? s->learnts : s->clauses;
    long n = part ? s->nlearnts : s->nclauses;
    for (i = 0; i < n; ++i) {
      int64_t r = refs[i];
      int32_t size = old[r];
      fresh[new_len] = size;
      memcpy(fresh + new_len + 1, old + r + 1, (size_t)size * 4);
      old[r] = (int32_t)(-2 - new_len);
      refs[i] = new_len;
      new_len += size + 1;
    }
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
}

/* Stable merge sort of the learnts by activity (Python's list.sort). */
static void sort_learnts(Sat *s) {
  long n = s->nlearnts, width, i;
  int64_t *ra = s->learnts, *rb = (int64_t *)malloc((size_t)n * 8 + 8);
  double *aa = s->learnt_act;
  double *ab = (double *)malloc((size_t)n * sizeof(double) + 8);
  for (width = 1; width < n; width *= 2) {
    for (i = 0; i < n; i += 2 * width) {
      long lo = i, mid = i + width < n ? i + width : n;
      long hi = i + 2 * width < n ? i + 2 * width : n;
      long a = lo, b = mid, k = lo;
      while (a < mid && b < hi) {
        if (aa[b] < aa[a]) { rb[k] = ra[b]; ab[k++] = aa[b++]; }
        else { rb[k] = ra[a]; ab[k++] = aa[a++]; }
      }
      while (a < mid) { rb[k] = ra[a]; ab[k++] = aa[a++]; }
      while (b < hi) { rb[k] = ra[b]; ab[k++] = aa[b++]; }
    }
    int64_t *tr = ra; ra = rb; rb = tr;
    double *ta = aa; aa = ab; ab = ta;
  }
  if (ra != s->learnts) {
    memcpy(s->learnts, ra, (size_t)n * 8);
    memcpy(s->learnt_act, aa, (size_t)n * sizeof(double));
    free(ra); free(aa);
  } else {
    free(rb); free(ab);
  }
}

/* Python _reduce_db: throw away half of the least active learnts,
 * except reasons (locked) and binaries. */
static void reduce_db(Sat *s) {
  long v, i, j = 0, removed = 0;
  for (v = 1; v <= s->nvars; ++v)
    if (s->reason[v] >= 0) s->arena[s->reason[v]] |= LOCKED;
  sort_learnts(s);
  long keep_from = s->nlearnts / 2;
  for (i = 0; i < s->nlearnts; ++i) {
    int64_t ref = s->learnts[i];
    int32_t hdr = s->arena[ref];
    if (i < keep_from && !(hdr & LOCKED) && (hdr & ~LOCKED) > 2) {
      removed++;
    } else {
      s->learnts[j] = ref;
      s->learnt_act[j] = s->learnt_act[i];
      j++;
    }
  }
  s->nlearnts = j;
  for (v = 1; v <= s->nvars; ++v)
    if (s->reason[v] >= 0) s->arena[s->reason[v]] &= ~LOCKED;
  if (removed) repro_sat_compact(s);
}

/* ---- search --------------------------------------------------------- */

static long luby(long i) {
  long x = i - 1, size = 1, seq = 0;
  while (size < x + 1) { seq++; size = 2 * size + 1; }
  while (size - 1 != x) { size = (size - 1) / 2; seq--; x %= size; }
  return 1L << seq;
}

/* A clock probe: 0 to go on, S_BUDGET once the core's own clock is past
 * the expiry, S_PAUSE when only the caller can read the clock. */
static int probe(Sat *s) {
  if (s->expires_at < 0) return S_PAUSE;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec >= s->expires_at
             ? S_BUDGET : 0;
}

/* Propagate, probing the clock every prop_stride trail pops (the Python
 * loop's stride): a conflict ref, -1 when the queue drained, or -2 with
 * the probe's verdict in *stop. */
static int64_t propagate(Sat *s, int *stop) {
  int64_t props = 0, code;
  if (!s->prop_stride) {
    code = repro_sat_propagate(s, INT64_MAX, &props);
    s->n_props += props;
    return code;
  }
  for (;;) {
    code = repro_sat_propagate(s, s->props_left, &props);
    s->n_props += props;
    s->props_left -= props;
    if (code != -2) return code;
    if ((*stop = probe(s))) return -2;
    s->props_left = s->prop_stride;
  }
}

/* After a conflict's learnt is in place: restart, then reduce. */
static void conflict_tail(Sat *s) {
  if (s->restart_conflicts >= s->restart_budget) {
    s->restart_round++;
    s->restart_budget = 100 * luby(s->restart_round);
    s->restart_conflicts = 0;
    backtrack(s, 0);
  }
  if (s->nlearnts > s->max_learnts) {
    reduce_db(s);
    s->max_learnts = (long)((double)s->max_learnts * 1.2);
  }
}

static int search(Sat *s) {
  int64_t conflict;
  int stop = 0;
  if (s->stage == ST_START) {
    conflict = propagate(s, &stop);
    if (conflict == -2) return stop;
    if (conflict >= 0) return S_ROOT_UNSAT;
    queue_new_vars(s);
    /* warm learned-clause arena: the DB limit persists across solves */
    long limit = s->nclauses / 3 > 1000 ? s->nclauses / 3 : 1000;
    if (s->max_learnts < limit) s->max_learnts = limit;
    s->restart_round = 1;
    s->restart_budget = 100 * luby(1);
    s->restart_conflicts = 0;
    s->stage = ST_LOOP;
  } else if (s->stage == ST_TAIL) {
    conflict_tail(s);
    s->stage = ST_LOOP;
  }
  for (;;) {
    conflict = propagate(s, &stop);
    if (conflict == -2) return stop;
    if (conflict >= 0) {
      long bt_level, n;
      s->n_conflicts++;
      s->solve_conflicts++;
      s->restart_conflicts++;
      /* conflict at level 0: UNSAT independent of assumptions */
      if (s->nlevels == 0) return S_ROOT_UNSAT;
      n = analyze(s, conflict, &bt_level);
      backtrack(s, bt_level);
      if (n == 1) {
        if (!enqueue(s, s->kept[0], -1)) return S_UNSAT;
      } else {
        record_learnt(s, s->kept, n);
      }
      s->var_inc *= s->var_decay;
      s->cla_inc *= s->cla_decay;
      if (s->max_conflicts >= 0 && s->solve_conflicts >= s->max_conflicts)
        return S_BUDGET;
      /* the Python loop's amortized clock probe after a conflict */
      if (s->conflict_stride &&
          s->solve_conflicts % s->conflict_stride == 0 && (stop = probe(s))) {
        s->stage = ST_TAIL;
        return stop;
      }
      conflict_tail(s);
      continue;
    }

    /* no conflict: probe the clock, then extend the assignment */
    if (s->prop_stride) {
      if (s->extend_resumed) {
        s->extend_resumed = 0;
      } else if ((stop = probe(s))) {
        s->extend_resumed = 1;
        return stop;
      }
    }
    /* pending assumptions first, one decision level each */
    if (s->nlevels < s->nassumps) {
      int32_t enc = s->assumps[s->nlevels];
      int8_t a = s->assign[enc >> 1];
      if (a >= 0 && (a ^ (enc & 1)) == 1) { new_decision_level(s); continue; }
      if (a >= 0) return S_UNSAT;
      new_decision_level(s);
      enqueue(s, enc, -1);
      continue;
    }
    int32_t var = pick_branch_var(s);
    if (!var) return S_SAT;
    s->n_decisions++;
    new_decision_level(s);
    enqueue(s, (var << 1) | (s->phase[var] != 1), -1);
  }
}

/* One solve (resume = 0) or the rest of a paused one (resume = 1; the
 * other solve arguments are ignored).  With strides of 0 the solve is
 * unbounded; otherwise the clock is probed before every decision, every
 * prop_stride trail pops and every conflict_stride conflicts — by the
 * core itself for time_left >= 0 seconds, by the caller (the search
 * pauses, state kept) for time_left < 0.  incs[] = {var_inc, var_decay,
 * cla_inc, cla_decay} in, the increments written back; counts[] = this
 * call's {conflicts, decisions, propagations} and the learnt-database
 * limit after it.  The search stops where it ends — SAT with the model
 * on the trail — and the caller backtracks to level 0 once it has read
 * what it needs. */
int repro_sat_search(Sat *s, const int32_t *assumps, long nassumps,
                     int64_t max_conflicts, int64_t prop_stride,
                     int64_t conflict_stride, double time_left, int resume,
                     double *incs, int64_t *counts) {
  s->var_inc = incs[0]; s->var_decay = incs[1];
  s->cla_inc = incs[2]; s->cla_decay = incs[3];
  s->n_conflicts = s->n_decisions = s->n_props = 0;
  if (!resume) {
    s->assumps = (int32_t *)grow(s->assumps, &s->assumps_cap, nassumps,
                                 4);
    if (nassumps) memcpy(s->assumps, assumps, (size_t)nassumps * 4);
    s->nassumps = nassumps;
    s->max_conflicts = max_conflicts;
    s->prop_stride = prop_stride;
    s->conflict_stride = conflict_stride;
    s->expires_at = -1.0;
    if (time_left >= 0) {
      struct timespec ts;
      clock_gettime(CLOCK_MONOTONIC, &ts);
      s->expires_at = (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec
                      + time_left;
    }
    s->solve_conflicts = 0;
    s->extend_resumed = 0;
    s->stage = ST_START;
    backtrack(s, 0);
  }
  s->props_left = s->prop_stride;
  int code = search(s);
  incs[0] = s->var_inc;
  incs[2] = s->cla_inc;
  counts[0] = s->n_conflicts;
  counts[1] = s->n_decisions;
  counts[2] = s->n_props;
  counts[3] = s->max_learnts;
  return code;
}

/* flat-buffer accessors for the Python-side views */
void *repro_sat_assign(Sat *s) { return s->assign; }
void *repro_sat_seen(Sat *s) { return s->seen; }
void *repro_sat_trail(Sat *s) { return s->trail; }
void *repro_sat_arena(Sat *s) { return s->arena; }
void *repro_sat_clauses(Sat *s) { return s->clauses; }
void *repro_sat_learnts(Sat *s) { return s->learnts; }
long repro_sat_trail_len(Sat *s) { return s->trail_len; }
long repro_sat_arena_cap(Sat *s) { return s->arena_cap; }
long repro_sat_nclauses(Sat *s) { return s->nclauses; }
long repro_sat_nlearnts(Sat *s) { return s->nlearnts; }
long repro_sat_scan_picks(Sat *s) { return (long)s->scan_picks; }
long repro_sat_heap_peak(Sat *s) { return (long)s->heap_peak; }
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
_P64 = ctypes.POINTER(ctypes.c_int64)
_PDBL = ctypes.POINTER(ctypes.c_double)
_LONG = ctypes.c_long

#: The C arrays the Python-side views read: (pointer, length, type).
_ARRAYS = {
    "trail": ("trail", "trail_len", ctypes.c_int32),
    "clauses": ("clauses", "nclauses", ctypes.c_int64),
    "learnts": ("learnts", "nlearnts", ctypes.c_int64),
}


def _configure(lib):
    lib.repro_sat_new.argtypes = []
    lib.repro_sat_new.restype = _VOIDP
    lib.repro_sat_free.argtypes = [_VOIDP]
    lib.repro_sat_free.restype = None
    lib.repro_sat_ensure_vars.argtypes = [_VOIDP, _LONG]
    lib.repro_sat_ensure_vars.restype = _LONG
    lib.repro_sat_add_clauses.argtypes = [_VOIDP, _VOIDP, _LONG, _P64]
    lib.repro_sat_add_clauses.restype = _LONG
    lib.repro_sat_backtrack.argtypes = [_VOIDP, _LONG]
    lib.repro_sat_backtrack.restype = None
    lib.repro_sat_new_decision_level.argtypes = [_VOIDP]
    lib.repro_sat_new_decision_level.restype = None
    lib.repro_sat_search.argtypes = [
        _VOIDP, _VOIDP, _LONG, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_double, ctypes.c_int, _PDBL, _P64,
    ]
    lib.repro_sat_search.restype = ctypes.c_int
    for name in ("assign", "seen", "trail", "arena", "clauses", "learnts"):
        fn = getattr(lib, f"repro_sat_{name}")
        fn.argtypes = [_VOIDP]
        fn.restype = _VOIDP
    for name in ("trail_len", "arena_cap", "nclauses", "nlearnts",
                 "scan_picks", "heap_peak"):
        fn = getattr(lib, f"repro_sat_{name}")
        fn.argtypes = [_VOIDP]
        fn.restype = _LONG


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
    """One solver instance's C state, plus the views Python reads.

    :attr:`assign` and :attr:`seen` (the conflict-analysis marks) are
    zero-copy ``ctypes`` views sized to the C capacity; they are rebuilt
    when :meth:`ensure_vars` grows the backing buffers (the old views
    would dangle), so holders must re-fetch them afterwards —
    :class:`~repro.sat.solver.Solver` rebinds in ``ensure_vars``.
    :meth:`array` and :meth:`clause_lits` build fresh views on every
    call: a search may move the arena and the ref arrays.
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
        # Reused across calls: one allocation each, not one per solve.
        self.incs = (ctypes.c_double * 4)()
        self.counts = (ctypes.c_int64 * 4)()
        self._intake_out = (ctypes.c_int64 * 2)()
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
        backing buffers moved (the views were rebuilt)."""
        cap = self._lib.repro_sat_ensure_vars(self._s, n)
        if cap == self._var_cap:
            return False
        self._refresh_vars(cap)
        return True

    def _refresh_vars(self, cap):
        lib, s = self._lib, self._s
        self._var_cap = cap
        self.assign = (ctypes.c_int8 * (cap + 1)).from_address(
            lib.repro_sat_assign(s))
        self.seen = (ctypes.c_uint8 * (cap + 1)).from_address(
            lib.repro_sat_seen(s))

    def array(self, name):
        """A view of ``trail``, ``clauses`` (problem-clause refs) or
        ``learnts`` (learnt refs) at its current length."""
        ptr, length, ctype = _ARRAYS[name]
        lib, s = self._lib, self._s
        n = getattr(lib, f"repro_sat_{length}")(s)
        if n == 0:
            return []
        return (ctype * n).from_address(getattr(lib, f"repro_sat_{ptr}")(s))

    @property
    def scan_picks(self):
        """Branching picks that found no valid heap entry and fell back
        to the linear scan, over the core's lifetime."""
        return self._lib.repro_sat_scan_picks(self._s)

    @property
    def heap_peak(self):
        """The largest order heap left by any backtrack so far."""
        return self._lib.repro_sat_heap_peak(self._s)

    # -- clauses -------------------------------------------------------
    def add_clauses(self, flat):
        """Take the problem clauses of ``flat`` (``[size, lit, ...]*``,
        signed DIMACS literals) at the current decision level.

        Returns ``(code, propagations, nvars)``: ``code`` is 0 when
        every clause was taken, 1 when the formula became UNSAT, 2 on a
        ``0`` literal, 3 on a unit clause above level 0 and 4 on a size
        word that overruns the buffer; ``nvars`` is the grown variable
        count (the caller rebinds its view through :meth:`ensure_vars`).
        """
        buf = array("i", flat)
        out = self._intake_out
        code = self._lib.repro_sat_add_clauses(
            self._s, buf.buffer_info()[0], len(buf), out)
        return code, out[0], out[1]

    def clause_lits(self, ref):
        """The clause's encoded literals (a fresh list)."""
        lib, s = self._lib, self._s
        arena = (ctypes.c_int32 * lib.repro_sat_arena_cap(s)).from_address(
            lib.repro_sat_arena(s))
        return arena[ref + 1 : ref + 1 + arena[ref]]

    # -- search --------------------------------------------------------
    def search(self, assumptions, max_conflicts, prop_stride=0,
               conflict_stride=0, time_left=-1.0):
        """Start one solve over encoded ``assumptions``; returns one of
        :data:`UNSAT`, :data:`SAT`, :data:`BUDGET`, :data:`PAUSE` or
        :data:`ROOT_UNSAT`, with this call's work and the learnt-database
        limit in :attr:`counts` and the increments in :attr:`incs` (read
        before, written after).  ``max_conflicts`` None is no limit (a
        negative one stops at the first conflict, as 0 does).
        With nonzero strides the clock is probed before every decision,
        every ``prop_stride`` propagations and every ``conflict_stride``
        conflicts: by the core when ``time_left`` (seconds) is >= 0,
        else by pausing for the caller, who then calls :meth:`resume`
        or abandons the solve."""
        buf = array("i", assumptions)
        return self._lib.repro_sat_search(
            self._s, buf.buffer_info()[0], len(buf),
            -1 if max_conflicts is None else max(0, max_conflicts),
            prop_stride, conflict_stride, time_left, 0, self.incs,
            self.counts)

    def resume(self):
        """Continue a paused solve; same outcomes as :meth:`search`."""
        return self._lib.repro_sat_search(
            self._s, None, 0, 0, 0, 0, -1.0, 1, self.incs, self.counts)

    def backtrack(self, level):
        """Undo every decision level above ``level``."""
        self._lib.repro_sat_backtrack(self._s, level)

    def new_decision_level(self):
        """Open a decision level (what a decision does first)."""
        self._lib.repro_sat_new_decision_level(self._s)


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
