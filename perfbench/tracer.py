"""In-memory span tracer for the benchmark's traced pass.

The tracer wraps public entry points of the ``repro`` package from the
outside.  Each wrapper is rebound where the *caller* looks the name up
(``repro.attacks.kratt.flow.qbf_key_search``, not
``qbf_attack.qbf_key_search``), or on the class for methods, so the
program under test is unchanged.  A span records its name, start, end,
parent span and cell id, plus counter deltas read around the call.
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

__all__ = ["Tracer", "install", "layer_table", "cell_coverage"]


class Tracer:
    def __init__(self):
        # Each span: [name, start, end, parent index, cell id, counters].
        self.spans = []
        self.cell = None
        self._stack = []
        self._patches = []

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1,
                           self.cell, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index, counters=None):
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = counters
        self._stack.pop()

    @contextmanager
    def span(self, name, cell=None):
        """A benchmark-level span (one timed cell or a set-up phase)."""
        previous = self.cell
        if cell is not None:
            self.cell = cell
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self.cell = previous

    def patch(self, owner, attr, name, before=None, after=None):
        """Rebind ``owner.attr`` to a span-recording wrapper.

        ``before(args)`` snapshots state ahead of the call and
        ``after(snapshot, args, result)`` turns it into a counter dict.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            snapshot = before(args) if before is not None else None
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(index)
                raise
            tracer._close(index, after(snapshot, args, result) if after else None)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "cell",
                                  "counters"], "spans": self.spans}, handle)


def _mod(name):
    # importlib, because ``repro.attacks.sat_attack`` is shadowed by the
    # function of the same name on the package.
    return importlib.import_module(name)


def _solver_state(args):
    s = args[0]
    return s.conflicts, s.propagations


def _solver_delta(snap, args, result):
    s = args[0]
    return {"calls": 1, "conflicts": s.conflicts - snap[0],
            "propagations": s.propagations - snap[1]}


def _oracle_state(args):
    return args[0].query_count


def _oracle_delta(snap, args, result):
    return {"queries": args[0].query_count - snap}


def _polarity(snap, args, result):
    return {"attempted": 1, "iterations": result.iterations,
            "out_of_time": int(result.status is None),
            "settled": int(result.status is not None)}


def install(tracer):
    """Wrap every traced layer; :meth:`Tracer.restore` undoes it."""
    flow = _mod("repro.attacks.kratt.flow")
    qbf = _mod("repro.attacks.kratt.qbf_attack")
    dip = _mod("repro.attacks.dip")
    p = tracer.patch
    p(flow, "extract_unit", "removal")
    p(flow, "qbf_key_search", "qbf",
      after=lambda s, a, r: {"cegar_iterations": r.iterations})
    p(qbf, "solve_exists_forall_circuit", "qbf.polarity", after=_polarity)
    p(qbf, "tied_unit_is_constant", "qbf.complementarity")
    p(flow, "classify_restore_unit", "classify")
    p(flow, "locked_subcircuit", "extraction")
    p(flow, "modified_locking_unit", "modification")
    p(flow, "modified_dflt_subcircuit", "modification")
    p(flow, "candidate_pattern_sets", "structural",
      after=lambda s, a, r: {"candidate_sets": len(r)})
    p(flow, "og_exhaustive_search", "exhaustive",
      after=lambda s, a, r: {"patterns_tested": r.patterns_tested,
                             "protected": len(r.protected_patterns)})
    scope_counts = (lambda s, a, r: {"keys": len(a[1]),
                                     "deciphered": len(r.deciphered)})
    p(flow, "scope_attack", "scope", after=scope_counts)
    p(_mod("repro.attacks.scope"), "scope_attack", "scope", after=scope_counts)
    oracle = _mod("repro.attacks.oracle").Oracle
    p(oracle, "query", "oracle", _oracle_state, _oracle_delta)
    p(oracle, "query_batch", "oracle", _oracle_state, _oracle_delta)
    # ScratchDipEngine delegates every query to a DipEngine it rebuilds,
    # so wrapping DipEngine alone counts each call once in either mode
    # and charges every rebuild to dip.encode.
    p(dip.DipEngine, "__init__", "dip.encode")
    p(dip.DipEngine, "find_dip", "dip.find_dip",
      after=lambda s, a, r: {"dips": int(r[0] is True)})
    p(dip.DipEngine, "check_key", "dip.check_key")
    p(dip.DipEngine, "add_io_constraint", "dip.add_io")
    p(dip.DipEngine, "extract_key", "dip.extract_key")
    p(dip.DipEngine, "key_candidate", "dip.extract_key")
    p(_mod("repro.sat.solver").Solver, "solve", "sat.solve",
      _solver_state, _solver_delta)
    engine = _mod("repro.netlist.engine").CompiledCircuit
    p(engine, "__init__", "netlist.compile")
    for method in ("evaluate", "output_words_from_list", "exhaustive_outputs"):
        p(engine, method, "netlist.sim")
    harness = _mod("repro.experiments.harness")
    p(harness, "prepare_locked", "prep")
    p(harness, "resynthesize", "prep.resynth")
    p(_mod("repro.attacks.metrics"), "score_key", "score")


def _child_time(spans):
    covered = [0.0] * len(spans)
    for name, start, end, parent, _cell, _c in spans:
        if parent >= 0:
            covered[parent] += end - start
    return covered


def layer_table(spans):
    """Per span name: calls, inclusive and self seconds, summed counters."""
    covered = _child_time(spans)
    table = {}
    for i, (name, start, end, _parent, _cell, counters) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - covered[i]
        for key, value in (counters or {}).items():
            row[key] = row.get(key, 0) + value
    return table


def cell_coverage(spans, root_prefix="attack:"):
    """Per timed cell (all its calls): root wall time and the share its
    direct children, the top-level stages, cover."""
    covered = _child_time(spans)
    cells = {}
    for i, (name, start, end, _parent, cell, _c) in enumerate(spans):
        if name.startswith(root_prefix):
            c = cells.setdefault(cell, {"wall_s": 0.0, "stages_s": 0.0})
            c["wall_s"] += end - start
            c["stages_s"] += covered[i]
    for c in cells.values():
        c["coverage"] = c["stages_s"] / c["wall_s"]
    return cells
