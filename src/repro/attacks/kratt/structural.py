"""KRATT step 6: structural analysis of the locked subcircuit.

Section III-C of the paper.  Inside the functionality stripped circuit
the perturb unit survives as logic cones whose support consists solely of
protected primary inputs (the hardwired comparator against the protected
pattern).  KRATT:

1. finds every maximal logic cone supported only by PPIs;
2. for each cone output ``lco_i``, SAT-solves ``lco_i = 0`` and
   ``lco_i = 1`` to obtain *promising* PPI value sets (a maxterm and a
   minterm of the cone), leaving PPIs outside the cone's support
   unspecified (``X``);
3. augments the sets with single-PPI patterns (one input pinned, all
   others ``X``) when not already present;
4. sorts all sets by the number of unspecified values, most-specified
   first — the order the oracle exploration consumes them.

Each root's cone is encoded once (:class:`~repro.sat.tseitin.ConeEncoder`
over one snapshot of the subcircuit, no cone copy) and that one clause
buffer is replayed into a fresh solver per value.  Solving both values
under assumptions on one shared solver would be cheaper, but its learnt
clauses and saved phases would change the models, and with them the
candidate list.
"""

from __future__ import annotations

from ...netlist.cone import _cones_with_supports
from ...sat.solver import Solver
from ...sat.tseitin import ConeEncoder

__all__ = ["candidate_pattern_sets"]


def _cone_patterns(cone, value, ppis, ppi_set, limit):
    """Replay ``cone`` (a :class:`~repro.sat.tseitin.ConeCNF`) into a
    fresh solver, pin its root to ``value`` and enumerate up to
    ``limit`` assignments of its PPIs.

    Each returned dict assigns 0/1 to the PPIs in the cone's support and
    ``None`` (X) to every other PPI; solutions are told apart by
    blocking clauses over the support variables.
    """
    support = [(sig, var) for sig, var in zip(cone.inputs, cone.input_vars)
               if sig in ppi_set]
    if not support:
        return []
    solver = Solver()
    solver.ensure_vars(cone.num_vars)
    solver.add_clauses(cone.clauses)
    target = cone.root_var
    solver.add_clause([target if value else -target])
    patterns = []
    while len(patterns) < limit:
        status = solver.solve(max_conflicts=100_000)
        if status is not True:
            break
        assignment = {ppi: None for ppi in ppis}
        blocking = []
        for sig, var in support:
            bit = 1 if solver.model_value(var) else 0
            assignment[sig] = bit
            blocking.append(-var if bit else var)
        patterns.append(assignment)
        solver.add_clause(blocking)
    return patterns


def candidate_pattern_sets(subcircuit, ppis, per_cone_limit=2, min_support=2,
                           max_cones=None):
    """The ordered list of promising PPI value sets (paper step 6).

    Considers every PPI-supported cone, nested ones included (the paper's
    ``lco1``/``lco2`` in Fig. 5c), widest support first, capped at
    ``max_cones``.  Returns a list of dicts mapping each PPI to 0/1/None,
    sorted by the number of unspecified entries ascending (most-specified
    first), with duplicates removed and single-PPI augmentation applied.
    """
    ppis = list(ppis)
    ppi_set = set(ppis)
    cones = _cones_with_supports(subcircuit, ppis, min_support,
                                 maximal_only=False)
    cones.sort(key=lambda pair: -len(pair[1]))
    if max_cones is None:
        max_cones = max(16, 6 * len(ppis))
    encoder = ConeEncoder(subcircuit)
    candidates = []
    seen = set()

    def push(assignment):
        key = tuple(assignment.get(p) for p in ppis)
        if key not in seen:
            seen.add(key)
            candidates.append(assignment)

    for root, _ in cones[:max_cones]:
        cone = encoder.encode(root)
        for value in (0, 1):
            for pattern in _cone_patterns(cone, value, ppis, ppi_set,
                                          per_cone_limit):
                push(pattern)

    # Single-PPI augmentation: cover each input pinned alone, both ways.
    for ppi in ppis:
        for value in (0, 1):
            assignment = {p: None for p in ppis}
            assignment[ppi] = value
            push(assignment)

    def unspecified(assignment):
        return sum(1 for p in ppis if assignment.get(p) is None)

    candidates.sort(key=unspecified)
    return candidates
