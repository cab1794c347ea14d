"""2QBF solving via counterexample-guided abstraction refinement (CEGAR).

This module is the reproduction's stand-in for DepQBF [29].  KRATT only
ever poses formulas of the shape::

    EXISTS K . FORALL PPI . unit(PPI, K) == c

so we provide a *circuit-level* CEGAR solver: a candidate SAT solver
proposes key assignments, a verifier SAT solver searches for a universal
counterexample, and each counterexample is fed back by instantiating a
fresh copy of the circuit at that universal assignment.  For complementary
point-function locking units the loop converges in a handful of
iterations, matching the paper's observation that the QBF step finishes in
under a minute (here: milliseconds).

Refutations are the slow direction: for a DFLT restore unit (TTLock, CAC,
SFLL-HD) plain CEGAR rules out one wrong key per counterexample.  When
the caller supplies a ``strategy_hint`` (universal input -> existential
input, KRATT's PPI -> key association), the first counterexample the
verifier finds -- a pair (K*, PPI*) with the output off target, from the
dominator probe or the first CEGAR round -- is *lifted* to a universal
strategy ``PPI_p := K_hint(p) xor m_p`` with ``m_p = PPI*_p xor
K*_hint(p)`` (unhinted PPIs keep PPI*_p).
One SAT call over a single unit copy then checks whether that strategy
defeats every key.  If it does, the formula is refuted and the strategy
is returned as the certificate; otherwise CEGAR continues unchanged.  The
lift can only prove refutations, never invent one.  It applies whenever
the unit's output depends on PPI and key only through the hinted pairs'
differences (point functions and Hamming-distance restore units); with
two keys per PPI in an inconsistent column order (SFLL-Flex) the lifted
strategy fails and plain CEGAR decides the formula, or runs out of
budget, as before.

A generic prenex 2QBF entry point (:func:`solve_2qbf`) using universal
expansion over the CNF matrix is included for QDIMACS-level formulas and
for property tests against brute force.
"""

from __future__ import annotations

import itertools
import logging

from ..budget import Deadline
from ..sat.solver import Solver
from ..sat.tseitin import encode_into_solver
from .formula import EXISTS, FORALL, QBF

__all__ = [
    "QBFResult",
    "solve_exists_forall_circuit",
    "solve_2qbf",
    "circuit_to_qbf",
    "DOMINATOR_ROOT_CAP",
]

_LOG = logging.getLogger(__name__)

#: Upper bound on how many key-only roots the dominator-constant probe
#: examines (two SAT calls each, deepest cones first).  When roots are
#: dropped the solver logs how many, so the cap is never silent.
DOMINATOR_ROOT_CAP = 48


class QBFResult:
    """Outcome of a 2QBF solve.

    Attributes
    ----------
    status:
        ``True`` (satisfiable: a witness for the existential block exists),
        ``False`` (unsatisfiable), or ``None`` (budget exhausted).
    witness:
        Mapping from existential variable name to bool when ``status`` is
        ``True``.
    iterations:
        Number of CEGAR refinement rounds.
    elapsed:
        Wall-clock seconds.
    strategy:
        When a lifted counterexample refuted the formula: the refuting
        universal strategy, mapping each universal input to either
        ``(existential_input, flip)`` (play that input, inverted when
        ``flip``) or a constant bool.  ``None`` otherwise.
    """

    def __init__(self, status, witness, iterations, elapsed, strategy=None):
        self.status = status
        self.witness = witness
        self.iterations = iterations
        self.elapsed = elapsed
        self.strategy = strategy

    def __bool__(self):
        return self.status is True

    def __repr__(self):
        return (
            f"QBFResult(status={self.status}, iterations={self.iterations}, "
            f"elapsed={self.elapsed:.3f}s)"
        )


def _subgraph(circuit, gate_names, input_names):
    """A sub-circuit containing exactly ``gate_names`` over ``input_names``."""
    from ..netlist.circuit import Circuit

    sub = Circuit(f"{circuit.name}_shared")
    wanted = set(gate_names)
    for name in input_names:
        if name in circuit:
            sub.add_input(name)
    for name in circuit.topological_order():
        if name in wanted:
            sub._gates[name] = circuit.gate(name)
    sub._invalidate()
    return sub


def _lift_counterexample(circuit, exist_inputs, forall_inputs, output,
                         target_value, strategy_hint, point, deadline):
    """Lift a counterexample to a universal strategy.

    ``point`` assigns every input such that ``output != target_value``.
    Returns the strategy when one SAT call proves that it keeps
    ``output`` away from ``target_value`` for every existential
    assignment, else ``None`` (strategy beaten, or budget spent).
    """
    solver = Solver()
    key_vars = {name: solver.new_var() for name in exist_inputs}
    shared = dict(key_vars)
    strategy, fix = {}, {}
    for name in forall_inputs:
        key = strategy_hint.get(name)
        if key in key_vars:
            flip = point[name] != point[key]
            strategy[name] = (key, flip)
            shared[name] = -key_vars[key] if flip else key_vars[key]
        else:
            strategy[name] = fix[name] = point[name]
    lit = encode_into_solver(solver, circuit, shared, fix=fix)[output]
    solver.add_clause([lit if target_value else -lit])
    return strategy if solver.solve(time_limit=deadline) is False else None


def solve_exists_forall_circuit(
    circuit,
    exist_inputs,
    forall_inputs,
    output,
    target_value,
    max_iterations=10_000,
    time_limit=None,
    strategy_hint=None,
):
    """Decide ``EXISTS exist . FORALL forall . circuit[output] == target``.

    Parameters
    ----------
    circuit:
        The (locking unit) circuit.  Its primary inputs must be exactly
        ``exist_inputs + forall_inputs``.
    output:
        Name of the output signal constrained to ``target_value``.
    target_value:
        0 or 1.
    strategy_hint:
        Optional map from universal to existential input.  When given,
        the first counterexample is lifted to a universal strategy (see
        the module docstring); a refutation found this way carries the
        strategy in :attr:`QBFResult.strategy`.

    Returns a :class:`QBFResult`; on success ``witness`` maps each
    existential input to its value.

    ``time_limit`` accepts float seconds or a shared
    :class:`repro.budget.Deadline`.  An expired budget returns
    ``QBFResult(None, ...)`` immediately — no solver call is granted a
    grace slice once the budget is spent.
    """
    deadline = Deadline.of(time_limit)
    start = deadline.now()

    def out_of_budget(iterations):
        return QBFResult(None, None, iterations, deadline.now() - start)

    if deadline.expired():
        return out_of_budget(0)
    exist_inputs = list(exist_inputs)
    forall_inputs = list(forall_inputs)
    missing = set(exist_inputs + forall_inputs) ^ set(circuit.inputs)
    if missing:
        raise ValueError(f"quantifier blocks do not partition inputs: {sorted(missing)}")

    # Candidate solver: owns one variable per existential input, grows one
    # instantiated circuit copy per counterexample.
    candidate = Solver()
    exist_vars = {name: candidate.new_var() for name in exist_inputs}

    # Signals whose support is purely existential are identical across all
    # instantiated copies; encode them once and share their variables.
    # (For SARLock this is the key mask — sharing it lets the candidate
    # solver branch "mask = 0" and propagate straight to the secret key,
    # instead of refuting wrong keys one counterexample at a time.)
    exist_set = set(exist_inputs)
    exist_pure = {}
    for name in circuit.topological_order():
        gate = circuit.gate(name)
        if gate.is_input:
            exist_pure[name] = name in exist_set
        elif gate.is_constant:
            exist_pure[name] = True
        else:
            exist_pure[name] = all(exist_pure[s] for s in gate.fanins)
    shared_gate_names = [
        name
        for name in circuit.topological_order()
        if exist_pure[name] and not circuit.gate(name).is_input
    ]
    shared_candidate_vars = dict(exist_vars)
    for name in shared_gate_names:
        shared_candidate_vars[name] = candidate.new_var()
    # Emit the shared (key-only) gate definitions exactly once.
    if shared_gate_names:
        encode_into_solver(
            candidate,
            _subgraph(circuit, shared_gate_names, exist_set),
            shared_candidate_vars,
        )

    # Verifier solver: full circuit with free inputs, output pinned to the
    # *wrong* value; a model under assumptions E=e is a counterexample.
    verifier = Solver()
    all_vars = {name: verifier.new_var() for name in circuit.inputs}
    out_vars = encode_into_solver(verifier, circuit, all_vars, suffix="#v")
    out_var = out_vars[output]
    verifier.add_clause([-out_var if target_value else out_var])

    def verify_witness(key_guess):
        # The shared deadline (not a per-call duration) bounds the solve.
        assumptions = [
            all_vars[name] if key_guess[name] else -all_vars[name]
            for name in exist_inputs
        ]
        return verifier.solve(assumptions, time_limit=deadline)

    lift_pending = strategy_hint is not None

    def lift_refutation():
        # Lift the verifier's current model, the first counterexample.
        nonlocal lift_pending
        lift_pending = False
        point = {
            name: verifier.model_value(var) for name, var in all_vars.items()
        }
        strategy = _lift_counterexample(
            circuit, exist_inputs, forall_inputs, output, target_value,
            strategy_hint, point, deadline,
        )
        if strategy is None:
            return None
        return QBFResult(False, None, iterations, deadline.now() - start,
                         strategy=strategy)

    # --- Dominator-constant probe -------------------------------------
    # If some key-only internal signal r pinned to a constant provably
    # forces the output to the target for every universal assignment
    # (SARLock's key mask is the canonical case), then any key achieving
    # r = v is a witness.  This resolves in two SAT calls what plain
    # CEGAR would grind through one counterexample per wrong key.
    fanout = circuit.fanout_map()
    levels = circuit.levels()
    roots = []
    for name in shared_gate_names:
        sinks = fanout.get(name, ())
        if name == output or any(not exist_pure[t] for t in sinks):
            roots.append(name)
    # Deep key-only cones first: a SARLock-style mask is the deepest
    # existential-only structure in the unit.
    roots.sort(key=lambda n: -levels[n])
    verifier_vars = {name: out_vars[name] for name in roots if name in out_vars}
    iterations = 0
    root_cap = DOMINATOR_ROOT_CAP
    if len(roots) > root_cap:
        _LOG.info(
            "dominator-constant probe: examining %d of %d key-only roots",
            root_cap, len(roots),
        )
    for root in roots[:root_cap]:
        rv_ver = verifier_vars.get(root)
        if rv_ver is None:
            continue
        for value in (False, True):
            if deadline.expired():
                return out_of_budget(iterations)
            status = verifier.solve(
                [rv_ver if value else -rv_ver],
                max_conflicts=20_000,
                time_limit=deadline,
            )
            if status is True and lift_pending:
                refuted = lift_refutation()
                if refuted is not None:
                    return refuted
            if status is not False:
                continue
            # r == value forces the output to target; find a key doing it.
            rv_cand = shared_candidate_vars[root]
            status = candidate.solve(
                [rv_cand if value else -rv_cand], time_limit=deadline
            )
            if status is not True:
                continue
            key_guess = {
                name: candidate.model_value(var)
                for name, var in exist_vars.items()
            }
            if verify_witness(key_guess) is False:
                return QBFResult(
                    True, key_guess, iterations, deadline.now() - start
                )

    while True:
        if iterations >= max_iterations:
            return out_of_budget(iterations)
        if deadline.expired():
            return out_of_budget(iterations)
        iterations += 1

        status = candidate.solve(time_limit=deadline)
        if status is None:
            return out_of_budget(iterations)
        if status is False:
            return QBFResult(False, None, iterations, deadline.now() - start)
        key_guess = {
            name: candidate.model_value(var) for name, var in exist_vars.items()
        }

        assumptions = [
            var if key_guess[name] else -var for name, var in exist_vars.items()
            for var in [all_vars[name]]
        ]
        status = verifier.solve(assumptions, time_limit=deadline)
        if status is None:
            return out_of_budget(iterations)
        if status is False:
            # No universal counterexample: key_guess is a true witness.
            return QBFResult(True, key_guess, iterations, deadline.now() - start)

        if lift_pending:
            refuted = lift_refutation()
            if refuted is not None:
                return refuted
        cex = {
            name: verifier.model_value(all_vars[name]) for name in forall_inputs
        }

        # Refinement: candidate must satisfy the constraint at this cex.
        out_vars_c = encode_into_solver(
            candidate,
            circuit,
            shared_candidate_vars,
            fix=cex,
            suffix=f"#c{iterations}",
            skip_gates=shared_gate_names,
        )
        lit = out_vars_c[output]
        candidate.add_clause([lit if target_value else -lit])


def circuit_to_qbf(circuit, exist_inputs, forall_inputs, output, target_value):
    """Build the explicit prenex 2QBF KRATT would hand to DepQBF.

    Returns ``(qbf, varmap)`` where the prefix is
    ``EXISTS keys . FORALL ppis . EXISTS tseitin`` and the matrix contains
    the unit's Tseitin encoding plus the output constraint.  Useful for
    exporting instances (QDIMACS) and for cross-checking the CEGAR engine.
    """
    from ..sat.tseitin import encode_circuit

    cnf, varmap = encode_circuit(circuit)
    lit = varmap[output]
    cnf.add_clause([lit if target_value else -lit])
    qbf = QBF(cnf)
    qbf.add_block(EXISTS, [varmap[n] for n in exist_inputs])
    qbf.add_block(FORALL, [varmap[n] for n in forall_inputs])
    qbf.close()
    return qbf, varmap


def solve_2qbf(qbf, max_universals=20, time_limit=None):
    """Decide a prenex ``EXISTS..FORALL..[EXISTS..]`` QBF by expansion.

    The universal block is fully expanded: for every universal assignment
    the matrix is instantiated (with fresh copies of inner-existential
    variables) and the conjunction is handed to the SAT solver.  Intended
    for small universal blocks (tests, QDIMACS-level checks) — KRATT's
    production path is :func:`solve_exists_forall_circuit`.

    Returns a :class:`QBFResult` whose witness maps existential *variable
    numbers* to bools.  ``time_limit`` accepts float seconds or a shared
    :class:`repro.budget.Deadline`.
    """
    deadline = Deadline.of(time_limit)
    start = deadline.now()
    if deadline.expired():
        # Report real elapsed time, consistent with every other return
        # path (an already-spent shared Deadline arrives expired but the
        # clock keeps moving).
        return QBFResult(None, None, 0, deadline.now() - start)
    blocks = qbf.prefix
    if not blocks or blocks[0][0] != EXISTS:
        # Tolerate a leading universal block by prepending an empty E block.
        blocks = [(EXISTS, [])] + list(blocks)
    if len(blocks) > 3 or (len(blocks) >= 2 and blocks[1][0] != FORALL):
        raise ValueError("solve_2qbf handles EXISTS-FORALL(-EXISTS) prefixes only")

    outer = list(blocks[0][1])
    universal = list(blocks[1][1]) if len(blocks) > 1 else []
    inner = set(blocks[2][1]) if len(blocks) > 2 else set()
    inner |= qbf.free_vars()

    if len(universal) > max_universals:
        raise ValueError(
            f"universal block of {len(universal)} variables exceeds the "
            f"expansion limit ({max_universals}); use the circuit-level solver"
        )

    solver = Solver()
    outer_vars = {v: solver.new_var() for v in outer}
    _TRUE, _FALSE = "T", "F"

    for assignment in itertools.product((False, True), repeat=len(universal)):
        umap = dict(zip(universal, assignment))
        copy_vars = {}

        def lit_map(lit):
            var = abs(lit)
            if var in outer_vars:
                new = outer_vars[var]
            elif var in umap:
                value = umap[var] == (lit > 0)
                return _TRUE if value else _FALSE
            else:
                if var not in copy_vars:
                    copy_vars[var] = solver.new_var()
                new = copy_vars[var]
            return new if lit > 0 else -new

        for clause in qbf.matrix.clauses:
            mapped = []
            satisfied = False
            for lit in clause:
                m = lit_map(lit)
                if m == _TRUE:
                    satisfied = True
                    break
                if m == _FALSE:
                    continue
                mapped.append(m)
            if satisfied:
                continue
            if not mapped:
                return QBFResult(False, None, 0, deadline.now() - start)
            solver.add_clause(mapped)
        if deadline.expired():
            return QBFResult(None, None, 0, deadline.now() - start)

    status = solver.solve(time_limit=deadline)
    if status is True:
        witness = {v: solver.model_value(outer_vars[v]) for v in outer}
        return QBFResult(True, witness, 1, deadline.now() - start)
    if status is False:
        return QBFResult(False, None, 1, deadline.now() - start)
    return QBFResult(None, None, 1, deadline.now() - start)
