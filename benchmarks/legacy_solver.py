"""Pre-overhaul CDCL solver, kept verbatim as an independent oracle.

This is the seed revision of ``repro.sat.solver`` (signed literals with
``abs()`` in the inner loops, no blocker literals, per-propagation watch
list rebuilds).  ``tests/test_solver_differential.py`` runs it against
the current solver on random and attack-generated CNFs and requires the
same verdicts.  Not part of the library; do not import it from
``repro``.
"""


from __future__ import annotations

import time
from heapq import heappop, heappush

__all__ = ["Solver", "SolveResult", "luby"]

_UNASSIGNED = -1


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
    """Outcome of a :meth:`Solver.solve` call with statistics."""

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
    """Incremental CDCL SAT solver."""

    def __init__(self):
        self._num_vars = 0
        self._clauses = []
        self._learnts = []
        self._watches = [[], []]  # indexed by literal index; slots 0/1 unused
        self._assign = [_UNASSIGNED]  # by var; -1 / 0 / 1
        self._level = [0]
        self._reason = [None]
        self._activity = [0.0]
        self._phase = [0]
        self._trail = []
        self._trail_lim = []
        self._qhead = 0
        self._order_heap = []
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        self._ok = True
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
        self._num_vars += 1
        self._assign.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(0)
        self._watches.append([])
        self._watches.append([])
        return self._num_vars

    def ensure_vars(self, n):
        """Grow the variable table so variables 1..n exist."""
        while self._num_vars < n:
            self.new_var()

    @property
    def num_vars(self):
        return self._num_vars

    @staticmethod
    def _lit_index(lit):
        return (abs(lit) << 1) | (lit < 0)

    def _lit_value(self, lit):
        v = self._assign[abs(lit)]
        if v == _UNASSIGNED:
            return _UNASSIGNED
        return v ^ (lit < 0)

    def add_clause(self, literals):
        """Add a problem clause; returns False if the formula became UNSAT."""
        if not self._ok:
            return False
        seen = {}
        clause = []
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            var = abs(lit)
            self.ensure_vars(var)
            if -lit in seen:
                return True  # tautology: x | -x
            if lit in seen:
                continue
            seen[lit] = True
            # Drop literals already false at level 0; satisfied at level 0
            # makes the clause redundant.
            if not self._trail_lim:
                val = self._lit_value(lit)
                if val == 1:
                    return True
                if val == 0:
                    continue
            clause.append(lit)

        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if self._trail_lim:
                raise RuntimeError("unit clauses must be added at decision level 0")
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

    def add_cnf(self, cnf):
        """Add every clause of a :class:`repro.sat.cnf.CNF`."""
        self.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            if not self.add_clause(clause):
                return False
        return True

    def _attach(self, clause):
        self._watches[self._lit_index(-clause[0])].append(clause)
        self._watches[self._lit_index(-clause[1])].append(clause)

    # ------------------------------------------------------------------
    # trail management
    # ------------------------------------------------------------------
    def _enqueue(self, lit, reason):
        val = self._lit_value(lit)
        if val != _UNASSIGNED:
            return val == 1
        var = abs(lit)
        self._assign[var] = 0 if lit < 0 else 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _new_decision_level(self):
        self._trail_lim.append(len(self._trail))

    def _backtrack(self, level):
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        for i in range(len(self._trail) - 1, bound - 1, -1):
            lit = self._trail[i]
            var = abs(lit)
            self._phase[var] = self._assign[var]
            self._assign[var] = _UNASSIGNED
            self._reason[var] = None
            heappush(self._order_heap, (-self._activity[var], var))
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _propagate(self):
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            self.propagations += 1
            widx = self._lit_index(lit)
            watch_list = self._watches[widx]
            new_list = []
            i = 0
            n = len(watch_list)
            conflict = None
            while i < n:
                clause = watch_list[i]
                i += 1
                # Normalize: the false literal must sit in slot 1.
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._lit_value(first) == 1:
                    new_list.append(clause)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != 0:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches[self._lit_index(-clause[1])].append(clause)
                        moved = True
                        break
                if moved:
                    continue
                new_list.append(clause)
                if self._lit_value(first) == 0:
                    # Conflict: keep the remaining watchers and bail out.
                    new_list.extend(watch_list[i:])
                    conflict = clause
                    break
                self._enqueue(first, clause)
            self._watches[widx] = new_list
            if conflict is not None:
                self._qhead = len(self._trail)
                return conflict
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

    def _bump_clause(self, clause_act, clause):
        clause_act[id(clause)] = clause_act.get(id(clause), 0.0) + self._cla_inc

    def _analyze(self, conflict):
        learnt = [0]
        seen = [False] * (self._num_vars + 1)
        counter = 0
        p = None
        index = len(self._trail) - 1
        current_level = len(self._trail_lim)

        clause = conflict
        while True:
            for q in clause:
                # Skip the literal this reason clause asserted (-p): the
                # first round (p is None) analyzes the whole conflict clause.
                if p is not None and q == -p:
                    continue
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self._trail[index])]:
                index -= 1
            p = -self._trail[index]
            var = abs(p)
            seen[var] = False
            index -= 1
            counter -= 1
            if counter == 0:
                break
            clause = self._reason[var]
        learnt[0] = p

        # Cheap clause minimization: drop literals implied by the rest.
        if len(learnt) > 1:
            marked = set(abs(l) for l in learnt)
            kept = [learnt[0]]
            for q in learnt[1:]:
                reason = self._reason[abs(q)]
                if reason is not None and all(
                    abs(r) in marked or self._level[abs(r)] == 0
                    for r in reason
                    if r != -q
                ):
                    continue
                kept.append(q)
            learnt = kept

        if len(learnt) == 1:
            bt_level = 0
        else:
            # Second-highest decision level among learnt literals.
            max_i = 1
            for i in range(2, len(learnt)):
                if self._level[abs(learnt[i])] > self._level[abs(learnt[max_i])]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = self._level[abs(learnt[1])]
        return learnt, bt_level

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _pick_branch_var(self):
        while self._order_heap:
            neg_act, var = heappop(self._order_heap)
            if self._assign[var] == _UNASSIGNED and -neg_act == self._activity[var]:
                return var
        for var in range(1, self._num_vars + 1):
            if self._assign[var] == _UNASSIGNED:
                return var
        return None

    def _rebuild_heap(self):
        self._order_heap = [
            (-self._activity[v], v)
            for v in range(1, self._num_vars + 1)
            if self._assign[v] == _UNASSIGNED
        ]
        self._order_heap.sort()

    def _reduce_db(self, clause_act):
        """Throw away half of the least active learned clauses."""
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
            for idx in range(2, len(self._watches)):
                self._watches[idx] = [
                    c for c in self._watches[idx] if id(c) not in dead
                ]

    def solve(self, assumptions=(), max_conflicts=None, time_limit=None):
        """Run CDCL search; returns True / False / None (budget exceeded)."""
        start = time.monotonic()
        start_conflicts = self.conflicts
        if not self._ok:
            self.last_result = SolveResult(False, 0, 0, 0, 0.0)
            return False

        assumptions = list(assumptions)
        for lit in assumptions:
            self.ensure_vars(abs(lit))

        self._backtrack(0)
        if self._propagate() is not None:
            self._ok = False
            self.last_result = SolveResult(False, 0, 0, 0, time.monotonic() - start)
            return False

        self._rebuild_heap()
        clause_act = {}
        max_learnts = max(1000, len(self._clauses) // 3)
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
                    self._learnts.append(learnt)
                    self._attach(learnt)
                    self._bump_clause(clause_act, learnt)
                    self._enqueue(learnt[0], learnt)
                self._var_inc *= self._var_decay
                self._cla_inc *= self._cla_decay

                if max_conflicts is not None and (
                    self.conflicts - start_conflicts
                ) >= max_conflicts:
                    status = "budget"
                    break
                if time_limit is not None and (self.conflicts % 64 == 0) and (
                    time.monotonic() - start > time_limit
                ):
                    status = "budget"
                    break
                if conflicts_this_restart >= restart_budget:
                    restart_round += 1
                    restart_budget = 100 * luby(restart_round)
                    conflicts_this_restart = 0
                    self._backtrack(0)
                if len(self._learnts) > max_learnts:
                    self._reduce_db(clause_act)
                    max_learnts = int(max_learnts * 1.2)
                continue

            # No conflict: extend the assignment.
            if time_limit is not None and time.monotonic() - start > time_limit:
                status = "budget"
                break

            # Apply pending assumptions first, one decision level each.
            level = len(self._trail_lim)
            if level < len(assumptions):
                lit = assumptions[level]
                val = self._lit_value(lit)
                if val == 1:
                    self._new_decision_level()
                    continue
                if val == 0:
                    status = False
                    break
                self._new_decision_level()
                self._enqueue(lit, None)
                continue

            var = self._pick_branch_var()
            if var is None:
                status = True
                break
            self.decisions += 1
            self._new_decision_level()
            lit = var if self._phase[var] == 1 else -var
            self._enqueue(lit, None)

        elapsed = time.monotonic() - start
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
        self.last_result = SolveResult(
            result,
            self.conflicts - start_conflicts,
            self.decisions,
            self.propagations,
            elapsed,
        )
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
