"""KRATT step 7: oracle-guided exhaustive exploration of promising patterns.

Section III-C of the paper.  For each candidate PPI value set (most
specified first) KRATT expands the unspecified entries, drives all other
primary inputs to logic 0, queries the **oracle**, and queries the
**locked netlist with the key inputs set to the candidate pattern's
values** (through the PPI/key association).  Following the paper's Fig. 2
reasoning:

* comparator restore units (TTLock, CAC — ``h = 0``): the locked netlist
  under key ``p`` at input ``p`` computes ``orig XOR [p == s] XOR 1``, so
  a *match* against the oracle identifies ``p`` as the protected pattern
  — and the secret key is ``p`` itself;
* Hamming-distance units (SFLL-HD, ``h > 0``): the restore unit is off at
  ``HD(p, p) = 0 != h``, so a *mismatch* marks ``p`` as protected; each
  such pattern contributes the constraint ``HD(p, s) == h`` and enough of
  them pin the secret down to a SAT-enumerable handful of candidates.

The expansion budget bounds worst-case exponential candidate blow-up
(the paper's final_v2 row shows that cost in the wild).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...budget import Deadline
from ...netlist.blocks import add_equals_const, add_popcount
from ...netlist.circuit import Circuit
from ...netlist.gate import GateType
from ...sat.solver import Solver
from ...sat.tseitin import encode_into_solver

__all__ = ["OgSearchResult", "og_exhaustive_search", "infer_key_from_hd_constraints"]


@dataclass
class OgSearchResult:
    key: dict = None
    protected_patterns: list = field(default_factory=list)
    patterns_tested: int = 0
    oracle_queries: int = 0
    elapsed: float = 0.0
    exhausted_budget: bool = False

    @property
    def success(self):
        return self.key is not None


def _completions(assignment, ppis, cap):
    """Expand X entries of a candidate set, all-zeros expansion first."""
    unspecified = [p for p in ppis if assignment.get(p) is None]
    total = 1 << len(unspecified) if len(unspecified) < 63 else cap + 1
    count = min(total, cap)
    specified = {p: assignment[p] for p in ppis if assignment.get(p) is not None}
    for value in range(count):
        full = dict(specified)
        for i, p in enumerate(unspecified):
            full[p] = (value >> i) & 1
        yield full


def _verify_key(locked, key_inputs, key, oracle, samples=128, extra_patterns=()):
    """Cheap oracle-based key validation (random + targeted patterns).

    All candidate-side evaluations run as one wide-word pass through the
    compiled engine instead of one scalar evaluation per pattern, and the
    oracle answers as output words, so the check is one XOR per output.
    """
    import random as _random

    rng = _random.Random(411)
    key_fixed = {k: int(bool(v)) for k, v in key.items()}
    data_inputs = [s for s in locked.inputs if s not in set(key_inputs)]
    patterns = [dict(p) for p in extra_patterns]
    # Targeted probes: point-function corruption tends to sit on extreme
    # patterns (e.g. an unset second cube of SFLL-Flex fires at all-zeros).
    patterns.append({s: 0 for s in data_inputs})
    patterns.append({s: 1 for s in data_inputs})
    for _ in range(samples):
        patterns.append({s: rng.getrandbits(1) for s in data_inputs})
    observed = oracle.query_batch(patterns, words=True)

    engine = locked.compiled()
    words, mask = engine.pack_input_words(patterns, fixed=key_fixed)
    got_words = engine.output_words_from_list(words, mask)
    return not any(
        (word ^ observed[o]) & mask
        for o, word in zip(engine.output_names, got_words)
    )


def _key_sources(ppis, key_of_ppi):
    """Key input -> the PPI whose value it mirrors: the first key each
    PPI is associated with (the last such PPI wins)."""
    source = {}
    for ppi in ppis:
        for k in key_of_ppi.get(ppi, ())[:1]:
            source[k] = ppi
    return source


def _mirrored_key(key_inputs, key_source, values):
    """Key assignment mirroring PPI ``values`` through the association
    (key inputs no PPI claims stay False)."""
    key = dict.fromkeys(key_inputs, False)
    for k, ppi in key_source.items():
        key[k] = bool(values[ppi])
    return key


def og_exhaustive_search(
    oracle,
    candidates,
    ppis,
    key_of_ppi,
    locked,
    key_inputs,
    h=0,
    pattern_budget=1 << 14,
    batch_size=256,
    time_limit=None,
    min_hd_constraints=None,
):
    """Drive the candidate sets against the oracle; recover the secret key.

    Parameters mirror the paper: ``candidates`` come from the structural
    analysis (step 6), ``key_of_ppi`` from the removal step, ``h`` from
    the restore-unit classification (0 for comparator units).
    ``time_limit`` accepts float seconds or a shared
    :class:`repro.budget.Deadline`; expiry marks the result
    ``exhausted_budget`` and also bounds the final HD-inference solve.
    """
    deadline = Deadline.of(time_limit)
    start = deadline.now()
    ppis = list(ppis)
    key_set = set(key_inputs)
    data_inputs = [s for s in locked.inputs if s not in key_set]
    engine = locked.compiled()
    locked_outputs = engine.output_names
    # Where each locked-netlist input takes its bit (paper step 7): a
    # data input that is a PPI from that PPI, every other data input
    # from logic 0, and each key input from the PPI it is associated
    # with (key inputs no PPI claims stay 0).
    key_source = _key_sources(ppis, key_of_ppi)
    ppi_set = set(ppis)
    source = {s: s for s in data_inputs if s in ppi_set}
    source.update(key_source)
    input_sources = [source.get(name) for name in engine.input_names]

    result = OgSearchResult()
    queries_before = oracle.query_count

    def batches():
        pending = []
        produced = 0
        for assignment in candidates:
            remaining = pattern_budget - produced
            if remaining <= 0:
                result.exhausted_budget = True
                break
            for full in _completions(assignment, ppis, cap=remaining):
                pending.append(full)
                produced += 1
                if len(pending) >= batch_size:
                    yield pending
                    pending = []
        if pending:
            yield pending

    done = False
    for batch in batches():
        if done:
            break
        if deadline.expired():
            result.exhausted_budget = True
            break
        result.patterns_tested += len(batch)

        # One oracle query and one locked-netlist evaluation per pattern,
        # keys set through the PPI/key association (paper step 7).  The
        # oracle drives its inputs outside the pattern to logic 0; the
        # locked netlist's input words come straight from the PPI bits.
        oracle_words = oracle.query_batch(batch, words=True)
        ppi_words = dict.fromkeys(ppis, 0)
        for j, ppi_values in enumerate(batch):
            for ppi, value in ppi_values.items():
                if value:
                    ppi_words[ppi] |= 1 << j
        mask = (1 << len(batch)) - 1
        locked_words = engine.output_words_from_list(
            [ppi_words.get(src, 0) for src in input_sources], mask
        )

        # Bit j of ``differ`` is set iff pattern j's outputs differ
        # somewhere; walk only the patterns that matter, in batch order.
        differ = 0
        for o, word in zip(locked_outputs, locked_words):
            differ |= word ^ oracle_words[o]
        hits = (differ if h else ~differ) & mask
        while hits:
            low = hits & -hits
            hits ^= low
            protected = {p: batch[low.bit_length() - 1][p] for p in ppis}
            if h == 0:
                # Match => p is the protected pattern and the secret key.
                key = _mirrored_key(key_inputs, key_source, protected)
                result.protected_patterns.append(protected)
                if _verify_key(locked, key_inputs, key, oracle):
                    result.key = key
                    done = True
                    break
            else:
                # Mismatch => p lies on the protected Hamming shell.
                result.protected_patterns.append(protected)
                needed = min_hd_constraints or max(8, 2 * len(ppis) // 3)
                if len(result.protected_patterns) >= needed:
                    key = infer_key_from_hd_constraints(
                        result.protected_patterns, h, ppis, key_of_ppi,
                        locked, key_inputs, oracle, time_limit=deadline,
                    )
                    if key is not None:
                        result.key = key
                        done = True
                        break

    # Hamming case: try inference with whatever patterns were collected
    # (the shared deadline also bounds this final SAT enumeration).
    if result.key is None and h > 0 and result.protected_patterns:
        result.key = infer_key_from_hd_constraints(
            result.protected_patterns, h, ppis, key_of_ppi,
            locked, key_inputs, oracle, time_limit=deadline,
        )

    result.oracle_queries = oracle.query_count - queries_before
    result.elapsed = deadline.now() - start
    return result


def infer_key_from_hd_constraints(
    protected_patterns, h, ppis, key_of_ppi, locked, key_inputs, oracle,
    max_solutions=16, time_limit=None,
):
    """Solve ``HD(p_i, s) == h`` for the secret center ``s`` by SAT.

    Builds one popcount-equality constraint circuit per collected
    protected pattern over shared secret variables, enumerates satisfying
    centers, and oracle-verifies each candidate key.
    """
    ppis = list(ppis)
    constraint = Circuit("hd_inference")
    svars = {}
    for ppi in ppis:
        svars[ppi] = constraint.add_input(f"s_{ppi}")
    roots = []
    for idx, pattern in enumerate(protected_patterns):
        diffs = []
        for i, ppi in enumerate(ppis):
            name = f"c{idx}_d{i}"
            gtype = GateType.NOT if pattern[ppi] else GateType.BUF
            constraint.add_gate(name, gtype, (svars[ppi],))
            diffs.append(name)
        count = add_popcount(constraint, f"c{idx}_pc", diffs)
        roots.append(add_equals_const(constraint, f"c{idx}_eq", count, h))
    constraint.set_outputs(roots)
    constraint.validate()

    solver = Solver()
    varmap = encode_into_solver(solver, constraint, {}, suffix="#hd")
    for root in roots:
        solver.add_clause([varmap[root]])

    key_source = _key_sources(ppis, key_of_ppi)
    for _ in range(max_solutions):
        status = solver.solve(max_conflicts=500_000, time_limit=time_limit)
        if status is not True:
            return None
        center = {ppi: solver.model_value(varmap[svars[ppi]]) for ppi in ppis}
        key = _mirrored_key(key_inputs, key_source, center)
        if _verify_key(locked, key_inputs, key, oracle):
            return key
        solver.add_clause(
            [
                -varmap[svars[ppi]] if center[ppi] else varmap[svars[ppi]]
                for ppi in ppis
            ]
        )
    return None
