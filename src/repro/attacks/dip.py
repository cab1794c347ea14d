"""Distinguishing-input machinery shared by the oracle-guided baselines.

The SAT attack [3] and its descendants all revolve around one object: a
*miter* over two key copies of the locked netlist that share the primary
inputs.  A satisfying assignment is a distinguishing input pattern (DIP):
an input on which two keys that agree with all observations so far still
produce different outputs.  Each oracle query then pins both key copies
to the observed behaviour, shrinking the surviving key space.

:func:`dip_loop` is that loop, shared by the SAT attack (one DIP per
round) and Double-DIP (two); it drives any engine handed to it.  Two
engines implement the interface it uses:

* :class:`DipEngine` — the production path.  ONE persistent
  :class:`~repro.sat.solver.Solver` per attack: Tseitin allocation is
  stable across iterations (a :class:`~repro.sat.tseitin.VarRegistry`
  owns the name -> variable map), each discovered DIP lands as new
  permanent clauses, and every query — find-DIP, termination,
  key-hypothesis, key extraction — is an assumption probe against the
  same instance, so learned clauses and branching heat survive from one
  iteration to the next.
* :class:`ScratchDipEngine` — the from-scratch reference the
  differential suite grades the incremental path against, by handing it
  to :func:`dip_loop` in place of a :class:`DipEngine`.  Every query
  rebuilds the entire formula (base miter + all accumulated IO
  constraints) into a cold solver, the way the classic attack
  re-encodes each iteration.  No attack builds one.

Because a CDCL solver's *model* depends on its search history, raw DIPs
from a warm and a cold solver need not match even though both are valid.
``canonical=True`` makes the answer a pure function of the formula: the
lexicographically-smallest satisfying pattern, computed by fixing one
bit per assumption probe.  Under canonical extraction the two engines
provably visit the same DIP sequence and recover the same key — which
is exactly what ``tests/test_incremental_differential.py`` asserts.
"""

from __future__ import annotations

from ..budget import Deadline
from ..sat.solver import Solver
from ..sat.tseitin import VarRegistry, encode_into_solver
from .metrics import AttackResult

__all__ = ["DipEngine", "ScratchDipEngine", "dip_loop"]


def dip_loop(
    engine,
    oracle,
    attack,
    dips_per_round=1,
    time_limit=60.0,
    max_rounds=None,
    technique="?",
    canonical=False,
    record_dips=False,
    started=None,
):
    """The oracle-guided DIP loop behind the SAT and Double-DIP attacks.

    Each round resolves up to ``dips_per_round`` DIPs: find one on
    ``engine``, query ``oracle`` on it, pin both key copies to the
    answer.  The loop ends when no DIP is left (the surviving key is
    extracted), when ``time_limit`` (float seconds or a shared
    :class:`repro.budget.Deadline`) runs out, or when ``max_rounds``
    rounds have started (a time-out with ``details["reason"]`` set to
    ``"iteration limit"``).  The clock is checked before every DIP
    search, and the same deadline bounds every solver call.  ``started``
    is the clock reading the attack began at (default: now), so an entry
    point that builds ``engine`` first can count the build in
    ``elapsed``.

    ``canonical`` and ``record_dips`` are described in
    :func:`~repro.attacks.sat_attack.sat_attack`.

    Returns ``(result, rounds)``: an :class:`AttackResult` whose
    ``iterations`` counts the DIPs resolved, and the number of rounds
    started, counting the round that found no DIP or ran out of budget.
    """
    deadline = Deadline.of(time_limit)
    start = deadline.now() if started is None else started
    queries_before = oracle.query_count
    outputs = engine.circuit.outputs
    details = {"dips": []} if record_dips else {}
    rounds = resolved = 0
    key = None
    while not deadline.expired():
        if resolved % dips_per_round == 0:
            if max_rounds is not None and rounds >= max_rounds:
                details["reason"] = "iteration limit"
                break
            rounds += 1
        status, x = engine.find_dip(time_limit=deadline, canonical=canonical)
        if status is None:
            break
        if status is False:
            key = engine.extract_key(time_limit=deadline, canonical=canonical)
            break
        resolved += 1
        y = oracle.query(x)
        if record_dips:
            details["dips"].append((
                tuple(bool(x[s]) for s in engine.data_inputs),
                tuple(bool(y[o]) for o in outputs),
            ))
        engine.add_io_constraint(x, y)

    result = AttackResult(
        attack=attack,
        technique=technique,
        circuit=engine.circuit.name,
        key=key or {},
        success=key is not None,
        timed_out=key is None,
        iterations=resolved,
        elapsed=deadline.now() - start,
        time_limit=deadline.limit,
        oracle_queries=oracle.query_count - queries_before,
        details=details,
    )
    return result, rounds


class DipEngine:
    """Incremental two-copy miter over a locked netlist.

    Parameters
    ----------
    circuit:
        The locked netlist (a :class:`~repro.netlist.circuit.Circuit`
        including key inputs).
    key_inputs:
        Names of the key inputs inside ``circuit``.
    solver_factory:
        Constructor for the persistent solver instance (tests inject
        recording/instrumented solvers here).
    """

    def __init__(self, circuit, key_inputs, solver_factory=Solver):
        self.circuit = circuit
        self.key_inputs = list(key_inputs)
        key_set = set(self.key_inputs)
        self.data_inputs = [s for s in circuit.inputs if s not in key_set]

        self.solver = solver_factory()
        self.registry = VarRegistry(self.solver)
        self.x_vars = {
            s: self.registry.bind(s, self.solver.new_var())
            for s in self.data_inputs
        }
        self.k1_vars = {
            s: self.registry.bind(s + "#k1", self.solver.new_var())
            for s in self.key_inputs
        }
        self.k2_vars = {
            s: self.registry.bind(s + "#k2", self.solver.new_var())
            for s in self.key_inputs
        }

        shared1 = dict(self.x_vars)
        shared1.update(self.k1_vars)
        shared2 = dict(self.x_vars)
        shared2.update(self.k2_vars)
        map1 = encode_into_solver(
            self.solver, circuit, shared1, suffix="#m1", registry=self.registry
        )
        map2 = encode_into_solver(
            self.solver, circuit, shared2, suffix="#m2", registry=self.registry
        )

        # diff <-> outputs differ somewhere; asserted by assumption only,
        # so the same solver answers both "find DIP" and "find key".
        diff_bits = []
        for out in circuit.outputs:
            d = self.registry.bind(out + "#diff", self.solver.new_var())
            a, b = map1[out], map2[out]
            # d = a XOR b
            self.solver.add_clause([-a, -b, -d])
            self.solver.add_clause([a, b, -d])
            self.solver.add_clause([a, -b, d])
            self.solver.add_clause([-a, b, d])
            diff_bits.append(d)
        self.diff_var = self.registry.bind("#diff", self.solver.new_var())
        self.solver.add_clause([-self.diff_var] + diff_bits)
        for d in diff_bits:
            self.solver.add_clause([-d, self.diff_var])

        self._copy_count = 0

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def num_vars(self):
        """Current solver variable count (monotone across iterations)."""
        return self.solver.num_vars

    def varmap_snapshot(self):
        """Qualified signal name -> solver variable, for every copy."""
        return self.registry.snapshot()

    # ------------------------------------------------------------------
    # queries (assumption probes against the one persistent instance)
    # ------------------------------------------------------------------
    def find_dip(self, time_limit=None, max_conflicts=None, canonical=False):
        """Search for a DIP.

        Returns ``(status, x_assignment)``: status True with the input
        pattern, False when no DIP exists (key space settled), or None on
        budget exhaustion.

        ``canonical=True`` returns the lexicographically-smallest DIP
        (in ``data_inputs`` order, 0 < 1), computed with one assumption
        probe per input bit — a pure function of the formula, identical
        across warm and cold solvers.
        """
        base = [self.diff_var]
        status = self.solver.solve(
            base, time_limit=time_limit, max_conflicts=max_conflicts
        )
        if status is not True:
            return status, None
        if not canonical:
            value = self.solver.model_value
            return True, {s: value(v) for s, v in self.x_vars.items()}
        x = self._canonical_assignment(
            [(s, self.x_vars[s]) for s in self.data_inputs],
            base,
            time_limit=time_limit,
            max_conflicts=max_conflicts,
        )
        if x is None:
            return None, None
        return True, x

    def _canonical_assignment(self, named_vars, base, time_limit=None,
                              max_conflicts=None):
        """Lex-min satisfying values for ``named_vars`` under ``base``.

        Fixes one bit per assumption probe, preferring 0.  The caller
        guarantees ``base`` is satisfiable; returns None only when a
        probe exhausts its budget.
        """
        assumptions = list(base)
        out = {}
        for name, var in named_vars:
            status = self.solver.solve(
                assumptions + [-var],
                time_limit=time_limit,
                max_conflicts=max_conflicts,
            )
            if status is None:
                return None
            bit = status is not True
            out[name] = bit
            assumptions.append(var if bit else -var)
        return out

    def add_io_constraint(self, x, y):
        """Pin both key copies to the oracle observation ``y`` at input ``x``.

        Adds two fresh circuit copies with inputs fixed to ``x`` whose
        outputs are forced to the observed values.  The copies are
        permanent clauses in the persistent solver — this is the
        incremental step; nothing is ever re-encoded.
        """
        self._copy_count += 1
        fix = {s: bool(x[s]) for s in self.data_inputs}
        for kvars, tag in ((self.k1_vars, "a"), (self.k2_vars, "b")):
            shared = dict(kvars)
            varmap = encode_into_solver(
                self.solver,
                self.circuit,
                shared,
                fix=fix,
                suffix=f"#io{self._copy_count}{tag}",
                registry=self.registry,
            )
            for out in self.circuit.outputs:
                lit = varmap[out]
                self.solver.add_clause([lit if y[out] else -lit])

    def extract_key(self, time_limit=None, max_conflicts=None, canonical=False):
        """Any key consistent with all observations (after UNSAT miter).

        ``canonical=True`` returns the lexicographically-smallest
        consistent key (``key_inputs`` order), making the recovered key
        identical between the incremental and from-scratch engines.
        """
        status = self.solver.solve(
            time_limit=time_limit, max_conflicts=max_conflicts
        )
        if status is not True:
            return None
        if not canonical:
            value = self.solver.model_value
            return {s: value(v) for s, v in self.k1_vars.items()}
        return self._canonical_assignment(
            [(s, self.k1_vars[s]) for s in self.key_inputs],
            [],
            time_limit=time_limit,
            max_conflicts=max_conflicts,
        )

    def key_candidate(self):
        """Current candidate key (used by AppSAT between rounds)."""
        return self.extract_key()

    def check_key(self, key, time_limit=None, max_conflicts=None):
        """Key-hypothesis probe: is ``key`` consistent with every
        observation so far?  Pure assumption query — True / False / None
        (budget), no clause is added and the instance stays reusable."""
        return self.solver.solve(
            [v if key[s] else -v for s, v in self.k1_vars.items()],
            time_limit=time_limit,
            max_conflicts=max_conflicts,
        )


class ScratchDipEngine:
    """From-scratch reference loop: re-encode everything on every query.

    Same interface as :class:`DipEngine`, but each ``find_dip`` /
    ``extract_key`` / ``check_key`` call rebuilds the complete formula —
    base miter plus every accumulated IO constraint, in the original
    insertion order — into a fresh cold solver.  Variable numbering is
    identical to the incremental engine's (same encoding order, same
    :class:`~repro.sat.tseitin.VarRegistry` discipline), which the
    allocation-stability tests assert directly.

    This is the differential baseline that
    ``tests/test_incremental_differential.py`` grades :class:`DipEngine`
    against; it is O(iterations^2) in total encoding work by
    construction.
    """

    def __init__(self, circuit, key_inputs, solver_factory=Solver):
        self.circuit = circuit
        self.key_inputs = list(key_inputs)
        key_set = set(self.key_inputs)
        self.data_inputs = [s for s in circuit.inputs if s not in key_set]
        self._solver_factory = solver_factory
        self._constraints = []  # ordered (x, y) observations
        self.builds = 0  # fresh encodes performed (test observability)
        self._engine = self._rebuild()

    def _rebuild(self):
        """Encode the whole accumulated formula into a cold solver."""
        engine = DipEngine(
            self.circuit, self.key_inputs, solver_factory=self._solver_factory
        )
        for x, y in self._constraints:
            engine.add_io_constraint(x, y)
        self.builds += 1
        self._engine = engine
        return engine

    @property
    def num_vars(self):
        return self._engine.num_vars

    def varmap_snapshot(self):
        return self._engine.varmap_snapshot()

    def find_dip(self, time_limit=None, max_conflicts=None, canonical=False):
        return self._rebuild().find_dip(
            time_limit=time_limit,
            max_conflicts=max_conflicts,
            canonical=canonical,
        )

    def add_io_constraint(self, x, y):
        self._constraints.append((dict(x), dict(y)))

    def extract_key(self, time_limit=None, max_conflicts=None, canonical=False):
        return self._rebuild().extract_key(
            time_limit=time_limit,
            max_conflicts=max_conflicts,
            canonical=canonical,
        )

    def key_candidate(self):
        return self.extract_key()

    def check_key(self, key, time_limit=None, max_conflicts=None):
        return self._rebuild().check_key(
            key, time_limit=time_limit, max_conflicts=max_conflicts
        )
