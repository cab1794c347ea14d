"""A CDCL SAT solver in pure Python (MiniSat-style).

This is the reproduction's substitute for cryptominisat [30]: a
conflict-driven clause-learning solver with two-literal watching, 1-UIP
conflict analysis, VSIDS branching with phase saving, Luby restarts, and
learned-clause database reduction.  It supports incremental use (add
clauses between ``solve`` calls) and solving under assumptions, which the
attacks rely on heavily.

The public interface speaks signed DIMACS literals (``-3`` = variable 3
negated).  Internally every literal is the flat index ``2*var + sign``
(positive literals even), so the hot loops never call ``abs()`` or build
tuples: clauses are lists of encoded ints, the watch lists are indexed by
encoded literal and carry *blocker literals* (a cached literal of the
clause checked before the clause is touched at all — most watch visits
end there), and propagation compacts each watch list in place with a
read/write cursor instead of rebuilding it.

When the native propagation core (:mod:`repro.sat.native`) is available
it takes over the propagation-rate-bound state behind the same encoded
literal API: clauses live in a contiguous C arena (named by arena
offsets instead of list objects), the watch lists / trail / assignment
arrays are flat C buffers, and ``_propagate``, clause intake (one call
per :meth:`Solver.add_clauses` buffer), learnt attach, and trail
backjump cross into C.  Decide / analyze / 1-UIP / restart logic stays
in this file, reading the C state through zero-copy ``ctypes`` views.
The two modes are bit-identical by construction — same propagation
counts, same learnt clauses, same models — and ``Solver(native=False)``
(or ``REPRO_NATIVE=0`` / ``REPRO_NATIVE_SOLVER=0``, or any compile
failure) runs today's pure-Python loops untouched.

Allocation discipline: the hot loops reuse memory instead of
reallocating it.  Watch entries are two-slot lists that *migrate*
between watch lists (a watched-literal move rewrites the entry in place
and appends the same object elsewhere — zero allocations per
propagation step); conflict analysis marks variables in one persistent
``seen`` byte array (cleared via the learnt clause, not reallocated per
conflict — the per-conflict ``[False] * num_vars`` list this replaces
dominated analysis time on large instances); and the learned-clause
arena — clause activities and the database limit — survives across
``solve()`` calls, so the assumption-driven call patterns the attacks
generate (CEGAR refinement, SCOPE windows, DIP mining) keep their
learned heat instead of re-deriving it every call.  The VSIDS order
heap holds one live entry per variable: ``_queued[var]`` is the
activity of that entry, ``_backtrack`` pushes a variable only when its
activity differs from it, and popping the live entry clears it.  A
solve pushes only the variables added since the last one (a full
rebuild follows only an activity rescale), stale entries are dropped
once the heap outgrows ``2 * num_vars + 64``, and branching stops as
soon as the trail covers every variable instead of draining the heap.
A pick still returns the best *valid* entry (unassigned, at its current
activity) and that set is exactly the one a per-solve rebuild with a
push on every backtrack keeps — rescale quirk included — so the
branching order is unchanged (``tests/test_branching_order.py``).

``solve`` returns one of three values:

* ``True``   — satisfiable; :meth:`model` yields a satisfying assignment;
* ``False``  — unsatisfiable (under the given assumptions);
* ``None``   — undecided because the conflict or time budget ran out.

The solver is deterministic for a fixed clause insertion order.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

from ..budget import Deadline

__all__ = ["Solver", "SolveResult", "luby"]

_UNASSIGNED = -1

#: Trail pops between deadline probes inside :meth:`Solver._propagate`.
#: Each pop scans a watch list, so a stride costs far more than the one
#: clock read it amortizes — the limit binds even on conflict-free,
#: propagation-heavy instances.
_PROPS_PER_TIME_CHECK = 4096
_NEVER_CHECK = float("inf")

#: Stride for native propagation with no deadline: one C call drains the
#: whole queue (2**62 pops is unreachable).
_UNBOUNDED_PROPS = 1 << 62

_UNIT_ABOVE_ROOT = "unit clauses must be added at decision level 0"


def _identity(clause):
    """Python-mode clause handle -> literals: the handle IS the list."""
    return clause


class _TrailView:
    """Read-only ``list``-shaped window over the native core's trail.

    The search/analysis code indexes and measures the trail
    (``trail[i]``, ``len(trail)``); in native mode those hit the C
    buffer through this shim so the surrounding logic is shared
    verbatim with the Python mode.
    """

    __slots__ = ("_core",)

    def __init__(self, core):
        self._core = core

    def __len__(self):
        return self._core.trail_len()

    def __getitem__(self, index):
        return self._core.trail[index]


def luby(i):
    """The Luby restart sequence 1,1,2,1,1,2,4,... (``i`` is 1-indexed)."""
    if i < 1:
        raise ValueError("luby sequence is 1-indexed")
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class SolveResult:
    """Outcome of one :meth:`Solver.solve` call: its status and the
    conflicts, decisions and propagations of that call alone (the
    running totals live on the :class:`Solver`)."""

    def __init__(self, status, conflicts, decisions, propagations, elapsed):
        self.status = status
        self.conflicts = conflicts
        self.decisions = decisions
        self.propagations = propagations
        self.elapsed = elapsed

    def __repr__(self):
        return (
            f"SolveResult(status={self.status}, conflicts={self.conflicts}, "
            f"decisions={self.decisions}, elapsed={self.elapsed:.3f}s)"
        )


class Solver:
    """Incremental CDCL SAT solver.

    Internal literal encoding: ``enc = 2*var + sign`` with ``sign = 1``
    for negative literals; ``enc ^ 1`` negates.  An encoded literal is
    true iff ``_assign[enc >> 1] == (enc & 1) ^ 1``, false iff it equals
    ``enc & 1``, and unassigned iff the slot is ``-1``.
    """

    def __init__(self, native=None):
        self._num_vars = 0
        self._clauses = []  # native mode: arena refs instead of lists
        self._learnts = []
        self._watches = [[], []]  # indexed by encoded literal; slots 0/1 unused
        self._assign = [_UNASSIGNED]  # by var; -1 / 0 / 1
        self._level = [0]
        self._reason = [None]
        self._activity = [0.0]
        self._phase = [0]
        self._trail = []  # encoded literals
        self._trail_lim = []
        self._qhead = 0
        self._order_heap = []
        self._queued = [None]  # by var: activity of its live heap entry
        self._heap_vars = 0  # vars 1..n already handed to the heap
        self._rescaled = False  # activity rescale since the last rebuild
        # ``native=None`` auto-engages the C propagation core when it is
        # enabled and buildable; False pins the pure-Python loops (the
        # REPRO_NATIVE=0 behavior); True requests it but still degrades
        # silently — check :attr:`backend` to see what engaged.
        self._native = None
        if native is None or native:
            from . import native as sat_native

            core = sat_native.build_core()
            if core is not None:
                self._native = core
                self._assign = core.assign
                self._level = core.level
                self._phase = core.phase
                self._reason = None  # C-owned; use core.reason_of
                self._watches = None  # C-owned
                self._trail = _TrailView(core)
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        self._ok = True
        self._deadline = None  # active Deadline while inside solve()
        self._budget_hit = False  # set by _propagate on deadline expiry
        self._seen = bytearray(1)  # conflict-analysis marks, by var
        self._clause_act = {}  # id(learnt clause) -> activity, warm
        self._max_learnts = 0  # learned-DB limit, grows monotonically
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.last_result = None
        self._model = None

    # ------------------------------------------------------------------
    # problem construction
    # ------------------------------------------------------------------
    def new_var(self):
        """Allocate and return a fresh variable (positive int)."""
        if self._native is not None:
            self.ensure_vars(self._num_vars + 1)
            return self._num_vars
        self._num_vars += 1
        self._assign.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._queued.append(None)
        self._phase.append(0)
        self._seen.append(0)
        self._watches.append([])
        self._watches.append([])
        return self._num_vars

    def ensure_vars(self, n):
        """Grow the variable table so variables 1..n exist."""
        core = self._native
        if core is None:
            while self._num_vars < n:
                self.new_var()
            return
        if n <= self._num_vars:
            return
        grow = n - self._num_vars
        if core.ensure_vars(n):
            # The C buffers moved: rebind the zero-copy views (the old
            # ones dangle over freed memory).
            self._assign = core.assign
            self._level = core.level
            self._phase = core.phase
        self._activity.extend([0.0] * grow)
        self._queued.extend([None] * grow)
        self._seen.extend(b"\x00" * grow)
        self._num_vars = n

    @property
    def num_vars(self):
        return self._num_vars

    @property
    def backend(self):
        """Where propagation runs right now: ``native`` or ``python``."""
        return "native" if self._native is not None else "python"

    @staticmethod
    def _encode(lit):
        """Signed DIMACS literal -> flat ``2*var + sign`` index."""
        return (lit << 1) if lit > 0 else ((-lit) << 1) | 1

    def _enc_value(self, enc):
        """Value of an encoded literal: 1 true, 0 false, -1 unassigned."""
        v = self._assign[enc >> 1]
        if v < 0:
            return _UNASSIGNED
        return v ^ (enc & 1)

    def _lit_value(self, lit):
        """Value of a signed literal (compat shim over :meth:`_enc_value`)."""
        v = self._assign[abs(lit)]
        if v == _UNASSIGNED:
            return _UNASSIGNED
        return v ^ (lit < 0)

    def add_clause(self, literals):
        """Add a problem clause (signed literals); False if now UNSAT."""
        if self._native is not None:
            lits = list(literals)
            return self._intake([len(lits), *lits])
        return self._add_clause(literals)

    def add_clauses(self, flat):
        """Add every clause of the flat buffer ``[size, lit, ...]*``
        (signed literals); False if now UNSAT.

        The bulk intake the circuit encoders use: exactly the state a
        loop of :meth:`add_clause` over the same clauses leaves, with
        one native call instead of one per clause.  Intake stops at the
        clause that makes the formula UNSAT.
        """
        if self._native is not None:
            return self._intake(flat)
        if not self._ok:
            return False
        pos, n = 0, len(flat)
        while pos < n:
            end = pos + 1 + flat[pos]
            if flat[pos] < 0 or end > n:
                raise ValueError("clause size overruns the flat buffer")
            if not self._add_clause(flat[pos + 1:end]):
                return False
            pos = end
        return True

    def add_cnf(self, cnf):
        """Add every clause of a :class:`repro.sat.cnf.CNF`."""
        self.ensure_vars(cnf.num_vars)
        flat = []
        for clause in cnf.clauses:
            flat.append(len(clause))
            flat.extend(clause)
        return self.add_clauses(flat)

    def _add_clause(self, literals):
        """The reference intake of one clause, which the native
        ``repro_sat_add_clauses`` mirrors line for line."""
        if not self._ok:
            return False
        seen = set()
        clause = []
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            var = abs(lit)
            self.ensure_vars(var)
            enc = (var << 1) | (lit < 0)
            if enc ^ 1 in seen:
                return True  # tautology: x | -x
            if enc in seen:
                continue
            seen.add(enc)
            # Drop literals already false at level 0; satisfied at level 0
            # makes the clause redundant.
            if not self._trail_lim:
                val = self._enc_value(enc)
                if val == 1:
                    return True
                if val == 0:
                    continue
            clause.append(enc)

        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if self._trail_lim:
                raise RuntimeError(_UNIT_ABOVE_ROOT)
            if not self._enqueue(clause[0], None):
                self._ok = False
                return False
            if self._propagate() is not None:
                self._ok = False
                return False
            return True
        self._clauses.append(clause)
        self._attach(clause)
        return True

    def _intake(self, flat):
        """Native-mode intake: one ``repro_sat_add_clauses`` call."""
        if not self._ok:
            return False
        core = self._native
        code, props, refs, nvars = core.add_clauses(flat, len(self._trail_lim))
        self.propagations += props
        self._clauses.extend(refs)
        self.ensure_vars(nvars)  # rebinds the views if the C buffers moved
        if code == 0:
            return True
        if code == 1:
            self._ok = False
            return False
        if code == 2:
            raise ValueError("0 is not a valid literal")
        if code == 3:
            raise RuntimeError(_UNIT_ABOVE_ROOT)
        raise ValueError("clause size overruns the flat buffer")

    def _attach(self, clause):
        # watches[l] is visited when l becomes TRUE; a clause watching
        # literal w must be visited when ~w becomes true, hence the ^1.
        # The co-watched literal rides along as the blocker.  Entries are
        # two-slot *lists*: propagation refreshes blockers and migrates
        # watchers by mutating the entry in place instead of allocating
        # a replacement tuple.
        self._watches[clause[0] ^ 1].append([clause[1], clause])
        self._watches[clause[1] ^ 1].append([clause[0], clause])

    # ------------------------------------------------------------------
    # trail management
    # ------------------------------------------------------------------
    def _enqueue(self, enc, reason):
        """Assign an encoded literal.  ``reason`` is a clause handle —
        a literal list in Python mode, an arena ref in native mode — or
        ``None`` for decisions/assumptions/units."""
        if self._native is not None:
            return self._native.enqueue(enc, reason, len(self._trail_lim))
        val = self._enc_value(enc)
        if val != _UNASSIGNED:
            return val == 1
        var = enc >> 1
        self._assign[var] = (enc & 1) ^ 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(enc)
        return True

    def _new_decision_level(self):
        self._trail_lim.append(len(self._trail))

    def _backtrack(self, level):
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        core = self._native
        activity = self._activity
        queued = self._queued
        heap = self._order_heap
        if core is not None:
            # C pops the trail (phase save, clear assign/reason, queue
            # reset) and reports the vars in reverse trail order — the
            # exact heap push sequence of the Python loop below.
            n_popped = core.backtrack(bound)
            for var in core.popped[:n_popped]:
                act = activity[var]
                if queued[var] != act:
                    queued[var] = act
                    heappush(heap, (-act, var))
            del self._trail_lim[level:]
        else:
            for i in range(len(self._trail) - 1, bound - 1, -1):
                var = self._trail[i] >> 1
                self._phase[var] = self._assign[var]
                self._assign[var] = _UNASSIGNED
                self._reason[var] = None
                act = activity[var]
                if queued[var] != act:
                    queued[var] = act
                    heappush(heap, (-act, var))
            del self._trail[bound:]
            del self._trail_lim[level:]
            self._qhead = len(self._trail)
        if len(heap) > 2 * self._num_vars + 64:
            self._rebuild_heap(revive=False)

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _propagate_native(self):
        """Drive the C propagation loop, preserving Deadline semantics.

        With an active deadline the C core pauses every
        ``_PROPS_PER_TIME_CHECK`` trail pops (returning ``-2`` with work
        remaining) and the clock is probed here — the same cadence as
        the Python loop's stride counter, so limits bind even at zero
        conflicts.  Returns the conflict clause ref (an int, possibly
        0) or ``None``, mirroring the Python ``_propagate``.
        """
        core = self._native
        cur_level = len(self._trail_lim)
        deadline = self._deadline
        budget = (
            _PROPS_PER_TIME_CHECK if deadline is not None else _UNBOUNDED_PROPS
        )
        while True:
            code, props = core.propagate(cur_level, budget)
            self.propagations += props
            if code == -2:
                if deadline.expired():
                    self._budget_hit = True
                    return None
                continue
            return None if code == -1 else code

    def _propagate(self):
        if self._native is not None:
            return self._propagate_native()
        trail = self._trail
        assign = self._assign
        watches = self._watches
        level = self._level
        reason = self._reason
        trail_lim = self._trail_lim
        props = 0
        check_at = (
            _PROPS_PER_TIME_CHECK if self._deadline is not None else _NEVER_CHECK
        )
        while self._qhead < len(trail):
            if props >= check_at:
                check_at = props + _PROPS_PER_TIME_CHECK
                if self._deadline.expired():
                    self._budget_hit = True
                    self.propagations += props
                    return None
            p = trail[self._qhead]
            self._qhead += 1
            props += 1
            false_lit = p ^ 1
            wl = watches[p]
            i = j = 0
            n = len(wl)
            while i < n:
                entry = wl[i]
                i += 1
                blocker = entry[0]
                bv = assign[blocker >> 1]
                if bv >= 0 and bv != blocker & 1:
                    # Blocker already true: clause satisfied, keep as-is.
                    wl[j] = entry
                    j += 1
                    continue
                clause = entry[1]
                # Normalize: the false literal must sit in slot 1.
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                fv = assign[first >> 1]
                if fv >= 0 and fv != first & 1:
                    entry[0] = first
                    wl[j] = entry
                    j += 1
                    continue
                moved = False
                for k in range(2, len(clause)):
                    lk = clause[k]
                    v = assign[lk >> 1]
                    if v < 0 or v != lk & 1:
                        clause[1] = lk
                        clause[k] = false_lit
                        # Migrate the entry object to the new watch list.
                        entry[0] = first
                        watches[lk ^ 1].append(entry)
                        moved = True
                        break
                if moved:
                    continue
                entry[0] = first
                wl[j] = entry
                j += 1
                if fv >= 0:
                    # first is false: conflict.  Keep remaining watchers.
                    while i < n:
                        wl[j] = wl[i]
                        j += 1
                        i += 1
                    del wl[j:]
                    self._qhead = len(trail)
                    self.propagations += props
                    return clause
                # Unit: first is unassigned here — enqueue inline.
                var = first >> 1
                assign[var] = (first & 1) ^ 1
                level[var] = len(trail_lim)
                reason[var] = clause
                trail.append(first)
            del wl[j:]
        self.propagations += props
        return None

    # ------------------------------------------------------------------
    # conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _bump_var(self, var):
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            self._rescaled = True

    def _bump_clause(self, handle):
        clause_act = self._clause_act
        key = handle if self._native is not None else id(handle)
        clause_act[key] = clause_act.get(key, 0.0) + self._cla_inc

    def _analyze(self, conflict):
        learnt = [0]
        # Persistent mark array: only the entries set here are cleared at
        # the end, so one conflict costs O(clause sizes) instead of the
        # O(num_vars) a fresh list per conflict would.
        seen = self._seen
        level = self._level
        # Clause handles are literal lists (Python mode) or arena refs
        # (native mode); these accessors are the only difference.  The
        # native branch binds the raw ctypes trail view (stable for the
        # duration: no ensure_vars mid-analyze) rather than paying a
        # _TrailView method call per trail probe.
        core = self._native
        if core is not None:
            lits_of = core.clause_lits
            reason_of = core.reason_of
            trail = core.trail
            index = core.trail_len() - 1
        else:
            lits_of = _identity
            reason_of = self._reason.__getitem__
            trail = self._trail
            index = len(trail) - 1
        counter = 0
        p = -1  # sentinel: first round analyzes the whole conflict clause
        current_level = len(self._trail_lim)

        clause = lits_of(conflict)
        while True:
            skip = p ^ 1
            for q in clause:
                # Skip the literal this reason clause asserted (~p).
                if q == skip:
                    continue
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    self._bump_var(var)
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index] ^ 1
            var = p >> 1
            seen[var] = 0
            index -= 1
            counter -= 1
            if counter == 0:
                break
            clause = lits_of(reason_of(var))
        learnt[0] = p

        # Cheap clause minimization: drop literals implied by the rest.
        # The still-set seen[] marks double as the membership test; the
        # asserting literal's var is re-marked for the duration.
        full = learnt
        if len(learnt) > 1:
            seen[learnt[0] >> 1] = 1
            kept = [learnt[0]]
            for q in learnt[1:]:
                reason = reason_of(q >> 1)
                if reason is not None and all(
                    seen[r >> 1] or level[r >> 1] == 0
                    for r in lits_of(reason)
                    if r != q ^ 1
                ):
                    continue
                kept.append(q)
            learnt = kept

        # Clear every mark this conflict set (learnt tail + asserting var;
        # current-level vars were unmarked by the trail walk above).
        for q in full:
            seen[q >> 1] = 0

        if len(learnt) == 1:
            bt_level = 0
        else:
            # Second-highest decision level among learnt literals.
            max_i = 1
            for i in range(2, len(learnt)):
                if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = level[learnt[1] >> 1]
        return learnt, bt_level

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _pick_branch_var(self):
        if len(self._trail) == self._num_vars:
            return None  # full assignment: nothing to pop
        heap = self._order_heap
        assign = self._assign
        activity = self._activity
        queued = self._queued
        while heap:
            neg_act, var = heappop(heap)
            act = -neg_act
            if act == queued[var]:
                queued[var] = None
            if assign[var] == _UNASSIGNED and act == activity[var]:
                return var
        # Only after a rescale mid-solve: the stale variables wait here
        # until a backtrack re-queues them or the next solve revives them.
        for var in range(1, self._num_vars + 1):
            if assign[var] == _UNASSIGNED:
                return var
        return None

    def _rebuild_heap(self, revive):
        """One heap entry per unassigned variable whose live entry is
        current — with ``revive``, per unassigned variable, the heap a
        solve starts from.  Without it the valid entries (and so the
        branching order) are exactly those before the call."""
        activity = self._activity
        assign = self._assign
        queued = self._queued
        heap = self._order_heap
        heap.clear()
        for v in range(1, self._num_vars + 1):
            act = activity[v]
            if assign[v] == _UNASSIGNED and (revive or queued[v] == act):
                heap.append((-act, v))
                queued[v] = act
            else:
                queued[v] = None
        heap.sort()
        if revive:
            self._heap_vars = self._num_vars
            self._rescaled = False

    def _queue_new_vars(self):
        """Bring the order heap to solve-start state: every unassigned
        variable has a valid entry.  Backtracking keeps that true except
        for the variables added since the last solve and, after an
        activity rescale, the stale ones — only the latter cost a
        rebuild."""
        if self._rescaled:
            self._rebuild_heap(revive=True)
            return
        heap = self._order_heap
        assign = self._assign
        queued = self._queued
        for v in range(self._heap_vars + 1, self._num_vars + 1):
            if assign[v] == _UNASSIGNED:
                act = self._activity[v]
                queued[v] = act
                heappush(heap, (-act, v))
        self._heap_vars = self._num_vars

    def _record_learnt(self, learnt):
        """Store a learnt clause (len >= 2); returns its handle — the
        list itself in Python mode, the arena ref in native mode."""
        if self._native is not None:
            ref = self._native.attach(learnt)
            self._learnts.append(ref)
            return ref
        self._learnts.append(learnt)
        self._attach(learnt)
        return learnt

    def _reduce_db_native(self):
        """Native-mode DB reduction: the same stable sort / keep policy
        over arena refs, then one C compaction pass that rebuilds the
        arena and filters every watch list order-preserved."""
        core = self._native
        clause_act = self._clause_act
        locked = set()
        reason = core.reason
        for var in range(1, self._num_vars + 1):
            r = reason[var]
            if r >= 0:
                locked.add(r)
        self._learnts.sort(key=lambda ref: clause_act.get(ref, 0.0))
        keep_from = len(self._learnts) // 2
        removed = []
        kept = []
        for i, ref in enumerate(self._learnts):
            if i < keep_from and ref not in locked and core.clause_size(ref) > 2:
                removed.append(ref)
            else:
                kept.append(ref)
        self._learnts = kept
        if removed:
            for ref in removed:
                clause_act.pop(ref, None)
            # One GC pass remaps every surviving ref (problem clauses
            # first, then kept learnts, preserving order), the reason
            # array, the watch lists, and the activity keys.
            new_refs = core.compact(self._clauses + kept)
            n_problem = len(self._clauses)
            self._clauses = new_refs[:n_problem]
            new_learnts = new_refs[n_problem:]
            self._clause_act = {
                new: clause_act[old]
                for old, new in zip(kept, new_learnts)
                if old in clause_act
            }
            self._learnts = new_learnts

    def _reduce_db(self):
        """Throw away half of the least active learned clauses."""
        if self._native is not None:
            self._reduce_db_native()
            return
        clause_act = self._clause_act
        locked = set()
        for var in range(1, self._num_vars + 1):
            reason = self._reason[var]
            if reason is not None:
                locked.add(id(reason))
        self._learnts.sort(key=lambda c: clause_act.get(id(c), 0.0))
        keep_from = len(self._learnts) // 2
        removed = []
        kept = []
        for i, clause in enumerate(self._learnts):
            if i < keep_from and id(clause) not in locked and len(clause) > 2:
                removed.append(clause)
            else:
                kept.append(clause)
        self._learnts = kept
        if removed:
            dead = set(id(c) for c in removed)
            # Drop dead activity entries with the clauses: the arena is
            # persistent now, and a recycled id() must not inherit a
            # ghost's activity.
            for clause_id in dead:
                clause_act.pop(clause_id, None)
            for idx in range(2, len(self._watches)):
                self._watches[idx] = [
                    entry for entry in self._watches[idx] if id(entry[1]) not in dead
                ]

    def solve(self, assumptions=(), max_conflicts=None, time_limit=None):
        """Run CDCL search; returns True / False / None (budget exceeded).

        ``time_limit`` is either float seconds or a shared
        :class:`repro.budget.Deadline`; expiry is detected on a
        propagation-count stride (every ``_PROPS_PER_TIME_CHECK`` trail
        pops) as well as between decisions, so the limit binds even on
        conflict-free instances.
        """
        start = time.monotonic()
        since = (self.conflicts, self.decisions, self.propagations)
        if not self._ok:
            self._record(False, start, since)
            return False

        deadline = Deadline.of(time_limit)
        if not deadline.bounded:
            deadline = None

        enc_assumptions = []
        for lit in assumptions:
            self.ensure_vars(abs(lit))
            enc_assumptions.append(self._encode(lit))

        self._deadline = deadline
        self._budget_hit = False
        try:
            return self._search(
                enc_assumptions, deadline, max_conflicts, start, since
            )
        finally:
            self._deadline = None
            self._budget_hit = False

    def _record(self, status, start, since):
        """Set :attr:`last_result`: the work of this call alone."""
        conflicts, decisions, propagations = since
        self.last_result = SolveResult(
            status,
            self.conflicts - conflicts,
            self.decisions - decisions,
            self.propagations - propagations,
            time.monotonic() - start,
        )

    def _search(self, enc_assumptions, deadline, max_conflicts, start, since):
        start_conflicts = since[0]
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            self._record(False, start, since)
            return False
        if self._budget_hit:
            self._record(None, start, since)
            return None

        self._queue_new_vars()
        # Warm learned-clause arena: the DB limit (like the clause
        # activities) persists across solve() calls, so an incremental
        # caller's learnt set is not re-thrashed from the initial limit
        # on every assumption probe.
        self._max_learnts = max(
            self._max_learnts, 1000, len(self._clauses) // 3
        )
        max_learnts = self._max_learnts
        restart_round = 1
        restart_budget = 100 * luby(restart_round)
        conflicts_this_restart = 0
        status = None

        while status is None:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_this_restart += 1
                if not self._trail_lim:
                    # Conflict at level 0: UNSAT independent of assumptions.
                    self._ok = False
                    status = False
                    break
                learnt, bt_level = self._analyze(conflict)
                # Never backtrack past assumption levels blindly: if the
                # asserting literal contradicts an assumption context we
                # re-derive that at re-assumption time below.
                self._backtrack(bt_level)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        status = False
                        break
                else:
                    handle = self._record_learnt(learnt)
                    self._bump_clause(handle)
                    self._enqueue(learnt[0], handle)
                self._var_inc *= self._var_decay
                self._cla_inc *= self._cla_decay

                if max_conflicts is not None and (
                    self.conflicts - start_conflicts
                ) >= max_conflicts:
                    status = "budget"
                    break
                # Amortized: reads the clock every 64th conflict.  The
                # propagation-stride probe inside _propagate covers the
                # conflict-free case this counter can never reach.
                if deadline is not None and deadline.check(every_n=64):
                    status = "budget"
                    break
                if conflicts_this_restart >= restart_budget:
                    restart_round += 1
                    restart_budget = 100 * luby(restart_round)
                    conflicts_this_restart = 0
                    self._backtrack(0)
                if len(self._learnts) > max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.2)
                    self._max_learnts = max_learnts
                continue

            # No conflict: extend the assignment.
            if deadline is not None and (self._budget_hit or deadline.expired()):
                status = "budget"
                break

            # Apply pending assumptions first, one decision level each.
            level = len(self._trail_lim)
            if level < len(enc_assumptions):
                enc = enc_assumptions[level]
                val = self._enc_value(enc)
                if val == 1:
                    self._new_decision_level()
                    continue
                if val == 0:
                    status = False
                    break
                self._new_decision_level()
                self._enqueue(enc, None)
                continue

            var = self._pick_branch_var()
            if var is None:
                status = True
                break
            self.decisions += 1
            self._new_decision_level()
            enc = (var << 1) | (self._phase[var] != 1)
            self._enqueue(enc, None)

        if status is True:
            self._model = list(self._assign)
            result = True
        elif status is False:
            self._model = None
            result = False
        else:
            self._model = None
            result = None
        self._backtrack(0)
        self._record(result, start, since)
        return result

    # ------------------------------------------------------------------
    # model access
    # ------------------------------------------------------------------
    def model(self):
        """Assignment from the last SAT answer: dict var -> bool."""
        if self._model is None:
            raise RuntimeError("no model available (last solve was not SAT)")
        return {
            var: bool(self._model[var])
            for var in range(1, self._num_vars + 1)
            if self._model[var] != _UNASSIGNED
        }

    def model_value(self, var):
        """Value of ``var`` in the last model (unassigned vars read False)."""
        if self._model is None:
            raise RuntimeError("no model available (last solve was not SAT)")
        value = self._model[var] if var < len(self._model) else _UNASSIGNED
        return value == 1

    def stats_snapshot(self):
        """Cumulative counters as a dict."""
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
        }


def solve_cnf(cnf, assumptions=(), max_conflicts=None, time_limit=None):
    """One-shot convenience: solve a :class:`CNF`; returns (status, model)."""
    solver = Solver()
    if not solver.add_cnf(cnf):
        return False, None
    status = solver.solve(
        assumptions, max_conflicts=max_conflicts, time_limit=time_limit
    )
    model = solver.model() if status is True else None
    return status, model
