#!/usr/bin/env python
"""Micro perf benchmarks: evaluation, SAT hot path, end-to-end KRATT.

Emits ``benchmarks/results/BENCH_micro.json`` (machine-readable, see
``repro.perf.write_bench_json``) so every perf PR has a recorded
trajectory to beat.  Sections:

* **evaluation** — wide-word exhaustive sweeps over registry hosts, the
  dict-keyed reference interpreter (``Circuit.evaluate_interpreted``)
  versus the compiled engine (chunked sweep).  Results must be
  bit-identical; the script exits non-zero otherwise.
* **solver** — the overhauled CDCL versus the seed-revision baseline
  (``benchmarks/legacy_solver.py``) on identical instances: a random
  3-SAT instance near the phase transition and an UNSAT self-miter.
  Records propagations/sec and conflicts/sec for both.
* **kratt_flow** — end-to-end ``kratt_ol_attack`` / ``kratt_og_attack``
  wall time on locked registry hosts.
* **native_eval** — the native (C) backend versus the exec-compiled
  Python engine on the verify/SCOPE-shaped workload: single-output
  self-miter sweeps, where gate compute dominates the language-boundary
  traffic.  Rows must be bit-identical; the section is skipped (and
  recorded as such) on hosts without a C toolchain or with
  ``REPRO_NATIVE=0``.
* **solver_native** — the native (C) propagation core versus the pure
  Python propagation loop on the solver-section instances.  Both must
  replay the identical trajectory (statuses, event counts, models are
  gated FATAL); the headline is props/s through the propagation loop
  itself with a 3x floor, plus the Amdahl-bounded end-to-end wall
  speedup.  Skipped (and recorded as such) on hosts without a C
  toolchain or with ``REPRO_NATIVE[_SOLVER]=0``.
* **solver_reuse** — CEGAR-style repeated assumption solves on one
  incremental solver (warm watch lists / learned-clause arena) versus
  the seed-revision baseline driven identically.
* **sat_attack** — the incremental DIP loop (one persistent solver per
  attack, ``mode="incremental"``) versus the classic from-scratch loop
  (``mode="scratch"``, re-encode the whole grown miter every iteration)
  on seeded locked circuits, end to end.  Reports attack wall time and
  iterations/s; gated on status agreement plus an exhaustive
  equivalence check that both recovered keys unlock the circuit.
* **corpus_attack** — ``sat_attack`` (incremental vs scratch) on a
  locked checked-in ``.bench`` corpus netlist (``corpus:c432``), so the
  file-backed circuit source is exercised end to end, not just the
  generator registry.  The host has 36 primary inputs — past exhaustive
  reach — so recovered keys are checked by random-pattern equivalence;
  gated on status agreement plus both keys passing that check.
* **scope_sweep** — the SCOPE per-key sweep with the structural memo
  (cone walks + pinned features, ``repro.netlist.cone``) disabled (cold)
  versus enabled (warm); guesses must be identical and the warm sweep is
  expected to hold a healthy speedup.
* **prep_store** — ``prepare_locked`` against a fresh disk store (cold
  compute + publish) versus a warm hit served from the store
  (``repro.experiments.prepstore``).

Run from the repo root (any of)::

    PYTHONPATH=src python benchmarks/bench_micro.py
    REPRO_SCALE=small PYTHONPATH=src python benchmarks/bench_micro.py --repeat 5
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import sys
import time

_HERE = pathlib.Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
for entry in (str(_SRC), str(_HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import legacy_solver  # noqa: E402  (benchmarks-local baseline)

from repro.attacks.kratt.flow import kratt_og_attack, kratt_ol_attack  # noqa: E402
from repro.attacks.oracle import Oracle  # noqa: E402
from repro.benchgen.registry import generate_host, resolve_scale, scaled_key_width  # noqa: E402
from repro.locking import TECHNIQUES  # noqa: E402
from repro.netlist.simulate import exhaustive_patterns  # noqa: E402
from repro.netlist.verify import build_miter  # noqa: E402
from repro.perf import Timer, best_of, rate, write_bench_json  # noqa: E402
from repro.sat.solver import Solver  # noqa: E402
from repro.sat.tseitin import encode_circuit  # noqa: E402

#: Per-scale knobs: (registry circuits, sweep width in inputs, 3-SAT vars).
#: Sweep width stays at 13-14 bits at every scale: beyond ~2**14-bit
#: words the raw bigint work dominates both evaluators and the
#: comparison stops measuring dispatch overhead (chunking exists exactly
#: so wider sweeps mean more chunks, not wider words).
_SCALE_CONFIG = {
    "tiny": (["c2670", "c5315", "c6288"], 13, 120),
    "small": (["c2670", "c5315", "c6288", "b14_C"], 14, 180),
    "paper": (["c2670", "c5315", "c6288", "b14_C", "b15_C"], 14, 260),
}

CHUNK_BITS = 13


def bench_evaluation(circuits, sweep_bits, repeat):
    from repro.netlist.engine import CompiledCircuit

    rows = []
    for name in circuits:
        circuit = generate_host(name)
        inputs = list(circuit.inputs)
        sub = inputs[: min(sweep_bits, len(inputs))]
        patterns = 1 << len(sub)

        assignment, mask = exhaustive_patterns(sub)
        for sig in inputs:
            assignment.setdefault(sig, 0)

        interp_s, interp_out = best_of(
            lambda: circuit.evaluate_interpreted(assignment, mask, outputs_only=True),
            repeat,
        )
        # Pin the native backend off: this section tracks the
        # exec-compiled Python engine's trajectory; bench_native_eval
        # owns the native-vs-python comparison.
        engine = CompiledCircuit(circuit, native=False)
        # Warm past the lazy-codegen threshold so the timed reps measure
        # the compiled kernels, not the interpreted warmup runs.
        for _ in range(3):
            engine.exhaustive_outputs(sub, chunk_bits=CHUNK_BITS)
        engine_s, engine_out = best_of(
            lambda: engine.exhaustive_outputs(sub, chunk_bits=CHUNK_BITS)[0],
            repeat,
        )
        identical = all(interp_out[o] == engine_out[o] for o in circuit.outputs)
        gate_evals = circuit.num_gates * patterns
        rows.append(
            {
                "circuit": name,
                "gates": circuit.num_gates,
                "swept_inputs": len(sub),
                "patterns": patterns,
                "interpreter_s": interp_s,
                "engine_s": engine_s,
                "speedup": interp_s / engine_s if engine_s else float("inf"),
                "interpreter_gate_evals_per_s": rate(gate_evals, interp_s),
                "engine_gate_evals_per_s": rate(gate_evals, engine_s),
                "bit_identical": identical,
            }
        )
    return rows


def bench_native_eval(circuits, repeat):
    """Native C engine vs the Python engine on single-output miter sweeps.

    The workload is the shape verify and the KRATT removal/SCOPE stages
    hammer: a gate-heavy netlist observed through one output (a
    self-miter here), swept exhaustively.  Gate compute dominates, so
    the native backend's advantage is visible instead of being hidden
    under bigint<->bytes boundary traffic (output-heavy truth-table
    materialization is intentionally *not* this section — the cost model
    in repro.netlist.engine keeps such circuits on the Python kernels).
    """
    from repro.netlist.engine import CompiledCircuit
    from repro.netlist.native import last_error, native_available

    if not native_available():
        return [], last_error() or "native backend unavailable"

    rows = []
    for name in circuits:
        circuit = generate_host(name)
        miter = build_miter(circuit, circuit, share_common=False)
        sub = list(miter.inputs)[: min(CHUNK_BITS, len(miter.inputs))]
        patterns = 1 << len(sub)

        python_engine = CompiledCircuit(miter, native=False)
        python_s, python_out = best_of(
            lambda: python_engine.exhaustive_outputs(sub, chunk_bits=CHUNK_BITS)[0],
            max(3, repeat),
        )
        native_engine = CompiledCircuit(miter, native=True)
        if not native_engine.ensure_native(force=True):
            return rows, last_error() or "native bind failed"
        native_engine.exhaustive_outputs(sub, chunk_bits=CHUNK_BITS)  # warm
        native_s, native_out = best_of(
            lambda: native_engine.exhaustive_outputs(sub, chunk_bits=CHUNK_BITS)[0],
            max(3, repeat),
        )
        gate_evals = miter.num_gates * patterns
        rows.append(
            {
                "circuit": name,
                "gates": miter.num_gates,
                "swept_inputs": len(sub),
                "patterns": patterns,
                "python_s": python_s,
                "native_s": native_s,
                "speedup": python_s / native_s if native_s else float("inf"),
                "python_gate_evals_per_s": rate(gate_evals, python_s),
                "native_gate_evals_per_s": rate(gate_evals, native_s),
                "bit_identical": python_out == native_out,
            }
        )
    return rows, None


def bench_solver_reuse(circuits, rounds=24, repeat=3):
    """CEGAR-style assumption probes: warm incremental solver vs seed.

    One solver per backend ingests the self-miter CNF once, then runs
    ``rounds`` solve-under-assumptions probes (each pinning two inputs),
    the call pattern the QBF CEGAR loop and SCOPE windows generate.  The
    overhauled solver keeps watch lists, conflict-analysis marks, and
    the learned-clause arena warm across calls.
    """
    import random as _random

    num_vars, clauses = _miter_instance(circuits[0])
    rng = _random.Random("solver-reuse")
    probes = [
        (rng.randrange(1, num_vars + 1), rng.randrange(1, num_vars + 1))
        for _ in range(rounds)
    ]

    def run(factory):
        best = None
        for _ in range(max(1, repeat)):
            solver = factory()
            solver.ensure_vars(num_vars)
            for clause in clauses:
                solver.add_clause(clause)
            statuses = []
            with Timer() as t:
                for a, b in probes:
                    statuses.append(
                        solver.solve((a, -b), max_conflicts=4000)
                    )
            if best is None or t.elapsed < best["elapsed_s"]:
                best = {
                    "elapsed_s": t.elapsed,
                    "statuses": statuses,
                    "propagations": solver.propagations,
                    "props_per_s": rate(solver.propagations, t.elapsed),
                }
        return best

    current = run(Solver)
    legacy = run(legacy_solver.Solver)
    return {
        "instance": f"self-miter-{circuits[0]}",
        "rounds": rounds,
        "current": {k: v for k, v in current.items() if k != "statuses"},
        "legacy": {k: v for k, v in legacy.items() if k != "statuses"},
        "status_agreement": current["statuses"] == legacy["statuses"],
        # The headline is the propagation *rate* ratio: the two solvers
        # take different search trajectories on the probe sequence (VSIDS
        # details differ), so total wall time confounds hot-path
        # efficiency with exploration luck; props/s does not.
        "prop_rate_ratio": (
            current["props_per_s"] / legacy["props_per_s"]
            if legacy["props_per_s"]
            else float("inf")
        ),
        "speedup": (
            legacy["elapsed_s"] / current["elapsed_s"]
            if current["elapsed_s"]
            else float("inf")
        ),
    }


def _attack_host(n_inputs=8, n_gates=60, n_outputs=3, seed=9):
    """Seeded random DAG host for the sat_attack section.

    Registry hosts keep >= 12 key bits at every scale (so the paper's
    OoT behaviour survives scaling), which is exactly wrong for a bench
    that must run both loops to completion — so this section locks a
    small local host instead.
    """
    import random as _random

    from repro.netlist import Circuit

    rng = _random.Random(("bench-sat-attack", seed, n_inputs, n_gates).__str__())
    circuit = Circuit(f"satbench{seed}")
    signals = [circuit.add_input(f"x{i}") for i in range(n_inputs)]
    choices = ["AND", "OR", "NAND", "NOR", "XOR", "XNOR"]
    for g in range(n_gates):
        a, b = rng.sample(signals, 2)
        circuit.add_gate(f"g{g}", rng.choice(choices), (a, b))
        signals.append(f"g{g}")
    circuit.set_outputs(signals[-n_outputs:])
    return circuit.validate()


def bench_sat_attack(repeat):
    """End-to-end sat_attack: persistent incremental solver vs scratch."""
    from repro.attacks.sat_attack import sat_attack

    rows = []
    for technique, key_width in [("xor_lock", 8), ("sarlock", 5)]:
        host = _attack_host()
        locked = TECHNIQUES[technique](host, key_width, seed=9)
        data_inputs = [
            s for s in locked.circuit.inputs
            if s not in set(locked.key_inputs)
        ]
        want, _ = locked.original.compiled().exhaustive_outputs(data_inputs)

        def unlocks(key):
            if not key:
                return False
            got, _ = locked.circuit.compiled().exhaustive_outputs(
                data_inputs, fixed={k: bool(v) for k, v in key.items()}
            )
            return got == want

        def run(mode):
            best = None
            for _ in range(max(1, repeat)):
                oracle = Oracle(locked.original)
                with Timer() as t:
                    result = sat_attack(
                        locked.circuit, locked.key_inputs, oracle,
                        time_limit=None, mode=mode, technique=technique,
                    )
                if best is None or t.elapsed < best[0]:
                    best = (t.elapsed, result)
            return best

        inc_s, inc = run("incremental")
        scr_s, scr = run("scratch")
        rows.append(
            {
                "technique": technique,
                "key_width": key_width,
                "gates": locked.circuit.num_gates,
                "iterations": inc.iterations,
                "scratch_iterations": scr.iterations,
                "incremental_s": inc_s,
                "scratch_s": scr_s,
                "speedup": scr_s / inc_s if inc_s else float("inf"),
                "incremental_iters_per_s": rate(inc.iterations, inc_s),
                "scratch_iters_per_s": rate(scr.iterations, scr_s),
                "status_agreement": (
                    (inc.success, inc.timed_out) == (scr.success, scr.timed_out)
                ),
                "keys_functional": unlocks(inc.key) and unlocks(scr.key),
            }
        )
    return rows


def bench_corpus_attack(repeat):
    """sat_attack on a locked corpus (file-backed) netlist, end to end.

    Unlike bench_sat_attack's local random host, the circuit here comes
    through the ``repro.corpus`` registry from a checked-in ``.bench``
    file, so resolve/parse/validate sit on the measured path.  With 36
    data inputs an exhaustive unlock check is infeasible; recovered keys
    are validated against the original on packed random patterns (not a
    proof, but 2^:patterns: chances to disagree).
    """
    from repro.attacks.sat_attack import sat_attack
    from repro.corpus import resolve_circuit
    from repro.netlist.simulate import random_patterns

    patterns = 256
    rows = []
    for circuit_id, technique, key_width in [("corpus:c432", "xor_lock", 8)]:
        resolved = resolve_circuit(circuit_id)
        locked = TECHNIQUES[technique](resolved.circuit, key_width, seed=17)
        key_set = set(locked.key_inputs)
        data_inputs = [s for s in locked.circuit.inputs if s not in key_set]
        words, mask = random_patterns(
            data_inputs, patterns, random.Random("bench-corpus-attack")
        )
        want = locked.original.evaluate_interpreted(
            dict(words), mask, outputs_only=True
        )

        def unlocks(key):
            if not key:
                return False
            assignment = dict(words)
            for name, value in key.items():
                assignment[name] = mask if value else 0
            got = locked.circuit.evaluate_interpreted(
                assignment, mask, outputs_only=True
            )
            return all(got[o] == want[o] for o in locked.original.outputs)

        def run(mode):
            best = None
            for _ in range(max(1, repeat)):
                oracle = Oracle(locked.original)
                with Timer() as t:
                    result = sat_attack(
                        locked.circuit, locked.key_inputs, oracle,
                        time_limit=None, mode=mode, technique=technique,
                    )
                if best is None or t.elapsed < best[0]:
                    best = (t.elapsed, result)
            return best

        inc_s, inc = run("incremental")
        scr_s, scr = run("scratch")
        rows.append(
            {
                "circuit": resolved.id.qualified,
                "digest": resolved.digest[:12],
                "technique": technique,
                "key_width": key_width,
                "data_inputs": len(data_inputs),
                "gates": locked.circuit.num_gates,
                "check_patterns": patterns,
                "iterations": inc.iterations,
                "scratch_iterations": scr.iterations,
                "incremental_s": inc_s,
                "scratch_s": scr_s,
                "speedup": scr_s / inc_s if inc_s else float("inf"),
                "status_agreement": (
                    (inc.success, inc.timed_out) == (scr.success, scr.timed_out)
                ),
                "keys_functional": unlocks(inc.key) and unlocks(scr.key),
            }
        )
    return rows


def _random_3sat(num_vars, seed, ratio=4.2):
    rng = random.Random(("bench3sat", seed, num_vars).__str__())
    clauses = []
    for _ in range(int(num_vars * ratio)):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def _miter_instance(circuit_name):
    """UNSAT instance: miter of a host against itself, cones unshared."""
    circuit = generate_host(circuit_name)
    miter = build_miter(circuit, circuit, share_common=False)
    cnf, varmap = encode_circuit(miter)
    clauses = [list(c) for c in cnf.clauses]
    clauses.append([varmap["miter_out"]])
    return cnf.num_vars, clauses


def _run_solver(factory, num_vars, clauses, max_conflicts, repeat=3):
    """Best-of-``repeat`` timing (fresh solver each rep: solving mutates)."""
    best = None
    for _ in range(max(1, repeat)):
        solver = factory()
        solver.ensure_vars(num_vars)
        with Timer() as t:
            ok = True
            for clause in clauses:
                if not solver.add_clause(clause):
                    ok = False
                    break
            status = solver.solve(max_conflicts=max_conflicts) if ok else False
        if best is None or t.elapsed < best["elapsed_s"]:
            best = {
                "status": status,
                "elapsed_s": t.elapsed,
                "conflicts": solver.conflicts,
                "decisions": solver.decisions,
                "propagations": solver.propagations,
                "props_per_s": rate(solver.propagations, t.elapsed),
                "conflicts_per_s": rate(solver.conflicts, t.elapsed),
            }
    return best


def bench_solver(circuits, sat_vars, max_conflicts=20_000, repeat=3):
    instances = [
        ("random-3sat", sat_vars, _random_3sat(sat_vars, seed=1)),
    ]
    num_vars, clauses = _miter_instance(circuits[0])
    instances.append((f"self-miter-{circuits[0]}", num_vars, clauses))

    rows = []
    for name, nv, cls in instances:
        current = _run_solver(Solver, nv, cls, max_conflicts, repeat)
        legacy = _run_solver(legacy_solver.Solver, nv, cls, max_conflicts, repeat)
        rows.append(
            {
                "instance": name,
                "vars": nv,
                "clauses": len(cls),
                "status_agreement": current["status"] == legacy["status"],
                "current": current,
                "legacy": legacy,
                "prop_rate_ratio": (
                    current["props_per_s"] / legacy["props_per_s"]
                    if legacy["props_per_s"]
                    else float("inf")
                ),
            }
        )
    return rows


def _run_solver_instrumented(native, num_vars, clauses, max_conflicts, repeat):
    """Best-of-``repeat`` run with the propagation loop timed separately.

    Wraps ``solver._propagate`` with a perf_counter accumulator (one
    wrapper call per decision/conflict — noise next to the hundreds of
    trail pops each call performs) so the section can report props/s
    through the propagation loop itself, the code the C core replaces.
    Returns ``(row, model)`` for the best rep.
    """
    best = None
    for _ in range(max(1, repeat)):
        solver = Solver(native=native)
        solver.ensure_vars(num_vars)
        orig = solver._propagate
        loop = [0.0]

        def timed(orig=orig, loop=loop):
            t0 = time.perf_counter()
            result = orig()
            loop[0] += time.perf_counter() - t0
            return result

        solver._propagate = timed
        with Timer() as t:
            ok = True
            for clause in clauses:
                if not solver.add_clause(clause):
                    ok = False
                    break
            status = solver.solve(max_conflicts=max_conflicts) if ok else False
        row = {
            "backend": solver.backend,
            "status": status,
            "elapsed_s": t.elapsed,
            "prop_loop_s": loop[0],
            "conflicts": solver.conflicts,
            "decisions": solver.decisions,
            "propagations": solver.propagations,
            "prop_loop_props_per_s": rate(solver.propagations, loop[0]),
            "props_per_s": rate(solver.propagations, t.elapsed),
        }
        model = solver.model() if status is True else None
        if best is None or t.elapsed < best[0]["elapsed_s"]:
            best = (row, model)
    return best


def bench_solver_native(circuits, sat_vars, max_conflicts=20_000, repeat=3):
    """Native (C) propagation core versus the pure-Python loop.

    Both backends must replay the *identical* CDCL trajectory — same
    statuses, event counts (propagations/conflicts/decisions), and
    models — so any divergence is a correctness failure, not noise.
    The headline number is props/s through the propagation loop itself
    (time inside ``_propagate``), which is what moved to C; end-to-end
    wall speedup is reported alongside but is Amdahl-bounded by the
    conflict-analysis / branching work that stays in Python by design.
    Returns ``(rows, skip_reason)``; skipped (and recorded as such) on
    hosts without a C toolchain or with ``REPRO_NATIVE[_SOLVER]=0``.
    """
    from repro.sat.native import last_error, native_available

    if not native_available():
        return [], last_error() or "native solver core unavailable"

    instances = [
        ("random-3sat", sat_vars, _random_3sat(sat_vars, seed=1)),
    ]
    num_vars, clauses = _miter_instance(circuits[0])
    instances.append((f"self-miter-{circuits[0]}", num_vars, clauses))

    rows = []
    for name, nv, cls in instances:
        python, py_model = _run_solver_instrumented(
            False, nv, cls, max_conflicts, repeat)
        native, nat_model = _run_solver_instrumented(
            True, nv, cls, max_conflicts, repeat)
        if native["backend"] != "native":
            return rows, last_error() or "native core failed to bind"
        rows.append(
            {
                "instance": name,
                "vars": nv,
                "clauses": len(cls),
                "status_agreement": python["status"] == native["status"],
                "counts_identical": all(
                    python[k] == native[k]
                    for k in ("propagations", "conflicts", "decisions")
                ),
                "models_identical": py_model == nat_model,
                "python": python,
                "native": native,
                "prop_loop_ratio": (
                    native["prop_loop_props_per_s"]
                    / python["prop_loop_props_per_s"]
                    if python["prop_loop_props_per_s"]
                    else float("inf")
                ),
                "wall_speedup": (
                    python["elapsed_s"] / native["elapsed_s"]
                    if native["elapsed_s"]
                    else float("inf")
                ),
            }
        )
    return rows, None


def bench_kratt_flow(circuits):
    rows = []
    host_name = circuits[0]
    combos = [("ttlock", "ol"), ("sarlock", "og")]
    for technique, mode in combos:
        host = generate_host(host_name)
        width = scaled_key_width(_spec(host_name))
        locked = TECHNIQUES[technique](host, width, seed=3)
        with Timer() as t:
            if mode == "ol":
                result = kratt_ol_attack(
                    locked.circuit, locked.key_inputs, qbf_time_limit=5.0
                )
            else:
                oracle = Oracle(locked.oracle_circuit())
                result = kratt_og_attack(
                    locked.circuit,
                    locked.key_inputs,
                    oracle,
                    qbf_time_limit=5.0,
                    time_limit=60.0,
                )
        rows.append(
            {
                "circuit": host_name,
                "technique": technique,
                "mode": mode,
                "elapsed_s": t.elapsed,
                "success": bool(result.success),
                "method": result.details.get("method"),
            }
        )
    return rows


def _spec(name):
    from repro.benchgen.registry import SPECS

    return SPECS[name]


def bench_scope_sweep(circuits, repeat):
    """SCOPE key sweep, cold (structural memo off) vs warm (memo on)."""
    from repro.attacks.scope import scope_attack
    from repro.netlist import cone
    from repro.synth.resynth import resynthesize

    rows = []
    for host_name, technique in [(circuits[0], "sarlock"),
                                 (circuits[0], "antisat")]:
        host = generate_host(host_name)
        width = scaled_key_width(_spec(host_name))
        locked = TECHNIQUES[technique](host, width, seed=7)
        netlist = resynthesize(locked.circuit, seed=1, effort=2)
        kwargs = {"rule": "preserve", "use_implications": False,
                  "power_patterns": 16}

        previous = cone.set_cone_memo(False)
        try:
            cold_s, cold_res = best_of(
                lambda: scope_attack(netlist, locked.key_inputs, **kwargs),
                repeat,
            )
        finally:
            cone.set_cone_memo(previous)
        # Populate the memo once, then time the warm sweep.
        scope_attack(netlist, locked.key_inputs, **kwargs)
        warm_s, warm_res = best_of(
            lambda: scope_attack(netlist, locked.key_inputs, **kwargs),
            repeat,
        )
        rows.append(
            {
                "circuit": host_name,
                "technique": technique,
                "keys": len(locked.key_inputs),
                "gates": netlist.num_gates,
                "cold_s": cold_s,
                "warm_s": warm_s,
                "speedup": cold_s / warm_s if warm_s else float("inf"),
                "guesses_identical": cold_res.guesses == warm_res.guesses,
            }
        )
    return rows


def bench_prep_store(repeat):
    """prepare_locked against a fresh disk store: cold compute vs warm hit."""
    import shutil
    import tempfile

    from repro.experiments.harness import clear_prep_cache, prepare_locked
    from repro.experiments.prepstore import PrepStore
    from repro.netlist.bench import write_bench

    rows = []
    tmp = tempfile.mkdtemp(prefix="repro-bench-prepstore-")
    try:
        store = PrepStore(root=tmp, capacity=16, enabled=True)
        for circuit, technique in [("c2670", "ttlock"), ("c6288", "sarlock")]:
            clear_prep_cache()
            with Timer() as t_cold:
                cold = prepare_locked(circuit, technique, cache=False,
                                      store=store)
            best = None
            for _ in range(max(1, repeat)):
                clear_prep_cache()
                with Timer() as t_warm:
                    warm = prepare_locked(circuit, technique, cache=False,
                                          store=store)
                if best is None or t_warm.elapsed < best:
                    best = t_warm.elapsed
            rows.append(
                {
                    "circuit": circuit,
                    "technique": technique,
                    "cold_s": t_cold.elapsed,
                    "warm_s": best,
                    "speedup": t_cold.elapsed / best if best else float("inf"),
                    "bit_identical": (
                        write_bench(cold.netlist) == write_bench(warm.netlist)
                    ),
                }
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        default=None,
        help="repro scale (tiny/small/paper); default from REPRO_SCALE or tiny",
    )
    parser.add_argument("--repeat", type=int, default=3, help="best-of repetitions")
    parser.add_argument(
        "--out",
        default=str(_HERE / "results" / "BENCH_micro.json"),
        help="output JSON path",
    )
    parser.add_argument(
        "--skip-flow", action="store_true", help="skip the end-to-end KRATT section"
    )
    args = parser.parse_args(argv)

    os.environ.setdefault("REPRO_SCALE", "tiny")
    if args.scale:
        os.environ["REPRO_SCALE"] = args.scale
    scale = resolve_scale()
    circuits, sweep_bits, sat_vars = _SCALE_CONFIG[scale]

    print(f"bench_micro: scale={scale} circuits={circuits}")
    evaluation = bench_evaluation(circuits, sweep_bits, args.repeat)
    for row in evaluation:
        print(
            f"  eval {row['circuit']:>8}: {row['speedup']:5.1f}x "
            f"({row['engine_gate_evals_per_s']:.3g} gate-evals/s, "
            f"bit_identical={row['bit_identical']})"
        )
    native_eval, native_skip = bench_native_eval(circuits, args.repeat)
    for row in native_eval:
        print(
            f"  native {row['circuit']:>8}: {row['speedup']:5.1f}x "
            f"({row['native_gate_evals_per_s']:.3g} gate-evals/s, "
            f"bit_identical={row['bit_identical']})"
        )
    if native_skip:
        print(f"  native section skipped: {native_skip}")
    solver = bench_solver(circuits, sat_vars, repeat=args.repeat)
    for row in solver:
        print(
            f"  sat {row['instance']:>20}: props/s "
            f"{row['current']['props_per_s']:.3g} vs legacy "
            f"{row['legacy']['props_per_s']:.3g} "
            f"({row['prop_rate_ratio']:.2f}x)"
        )
    solver_native, solver_native_skip = bench_solver_native(
        circuits, sat_vars, repeat=args.repeat
    )
    for row in solver_native:
        print(
            f"  sat-native {row['instance']:>20}: prop-loop "
            f"{row['native']['prop_loop_props_per_s']:.3g} vs python "
            f"{row['python']['prop_loop_props_per_s']:.3g} props/s "
            f"({row['prop_loop_ratio']:.2f}x loop, "
            f"{row['wall_speedup']:.2f}x wall, "
            f"identical={row['counts_identical'] and row['models_identical']})"
        )
    if solver_native_skip:
        print(f"  sat-native section skipped: {solver_native_skip}")
    solver_reuse = bench_solver_reuse(circuits, repeat=args.repeat)
    print(
        f"  sat-reuse {solver_reuse['rounds']} probes: props/s "
        f"{solver_reuse['prop_rate_ratio']:.2f}x vs seed "
        f"(agreement={solver_reuse['status_agreement']})"
    )
    sat_attack_rows = bench_sat_attack(args.repeat)
    for row in sat_attack_rows:
        print(
            f"  sat-attack {row['technique']:>8}/k{row['key_width']}: "
            f"{row['speedup']:5.1f}x incremental "
            f"({row['scratch_s']:.3f}s -> {row['incremental_s']:.3f}s, "
            f"{row['iterations']} iters, "
            f"agreement={row['status_agreement']}, "
            f"keys_ok={row['keys_functional']})"
        )
    corpus_attack = bench_corpus_attack(args.repeat)
    for row in corpus_attack:
        print(
            f"  corpus-attack {row['circuit']}/{row['technique']}"
            f"/k{row['key_width']}: {row['speedup']:5.1f}x incremental "
            f"({row['scratch_s']:.3f}s -> {row['incremental_s']:.3f}s, "
            f"{row['iterations']} iters, "
            f"agreement={row['status_agreement']}, "
            f"keys_ok={row['keys_functional']})"
        )
    flow = [] if args.skip_flow else bench_kratt_flow(circuits)
    for row in flow:
        print(
            f"  kratt-{row['mode']} {row['technique']:>8}: "
            f"{row['elapsed_s']:.2f}s success={row['success']}"
        )
    scope_sweep = bench_scope_sweep(circuits, args.repeat)
    for row in scope_sweep:
        print(
            f"  scope {row['technique']:>8}: {row['speedup']:5.1f}x warm "
            f"({row['cold_s']:.3f}s -> {row['warm_s']:.3f}s, "
            f"identical={row['guesses_identical']})"
        )
    prep_store = bench_prep_store(args.repeat)
    for row in prep_store:
        print(
            f"  prep {row['circuit']:>8}/{row['technique']}: "
            f"{row['speedup']:5.1f}x warm ({row['cold_s']:.3f}s -> "
            f"{row['warm_s']:.3f}s, identical={row['bit_identical']})"
        )

    payload = {
        "bench": "micro",
        "schema_version": 2,
        "scale": scale,
        "evaluation": evaluation,
        "native_eval": native_eval,
        "native_eval_skipped": native_skip,
        "solver": solver,
        "solver_native": solver_native,
        "solver_native_skipped": solver_native_skip,
        "solver_reuse": solver_reuse,
        "sat_attack": sat_attack_rows,
        "corpus_attack": corpus_attack,
        "kratt_flow": flow,
        "scope_sweep": scope_sweep,
        "prep_store": prep_store,
        "summary": {
            "eval_min_speedup": min(r["speedup"] for r in evaluation),
            "eval_all_bit_identical": all(r["bit_identical"] for r in evaluation),
            "native_min_speedup": (
                min(r["speedup"] for r in native_eval) if native_eval else None
            ),
            "native_all_bit_identical": (
                all(r["bit_identical"] for r in native_eval)
                if native_eval
                else None
            ),
            "solver_min_prop_rate_ratio": min(
                r["prop_rate_ratio"] for r in solver
            ),
            "solver_status_agreement": all(r["status_agreement"] for r in solver),
            "solver_native_min_prop_ratio": (
                min(r["prop_loop_ratio"] for r in solver_native)
                if solver_native
                else None
            ),
            "solver_native_identical": (
                all(
                    r["status_agreement"]
                    and r["counts_identical"]
                    and r["models_identical"]
                    for r in solver_native
                )
                if solver_native
                else None
            ),
            "solver_reuse_prop_rate_ratio": solver_reuse["prop_rate_ratio"],
            "solver_reuse_status_agreement": solver_reuse["status_agreement"],
            "sat_attack_min_speedup": min(
                r["speedup"] for r in sat_attack_rows
            ),
            "sat_attack_status_agreement": all(
                r["status_agreement"] and r["keys_functional"]
                for r in sat_attack_rows
            ),
            "corpus_attack_min_speedup": min(
                r["speedup"] for r in corpus_attack
            ),
            "corpus_attack_status_agreement": all(
                r["status_agreement"] and r["keys_functional"]
                for r in corpus_attack
            ),
            "scope_sweep_min_speedup": min(r["speedup"] for r in scope_sweep),
            "scope_sweep_guesses_identical": all(
                r["guesses_identical"] for r in scope_sweep
            ),
            "prep_store_min_speedup": min(r["speedup"] for r in prep_store),
            "prep_store_bit_identical": all(
                r["bit_identical"] for r in prep_store
            ),
        },
    }
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_bench_json(out, payload)
    print(f"wrote {out}")
    print(json.dumps(payload["summary"], indent=2, sort_keys=True))

    if not payload["summary"]["eval_all_bit_identical"]:
        print("FATAL: engine results differ from the reference interpreter")
        return 1
    if payload["summary"]["native_all_bit_identical"] is False:
        print("FATAL: native backend results differ from the Python engine")
        return 1
    if not payload["summary"]["solver_status_agreement"]:
        print("FATAL: overhauled solver disagrees with the baseline solver")
        return 1
    if payload["summary"]["solver_native_identical"] is False:
        print("FATAL: native propagation core diverged from the Python "
              "loop (status, event counts, or models differ)")
        return 1
    ratio = payload["summary"]["solver_native_min_prop_ratio"]
    if ratio is not None and ratio < 3.0:
        print(f"FATAL: native propagation loop only {ratio:.2f}x the "
              "Python loop (floor: 3x props/s)")
        return 1
    if not payload["summary"]["solver_reuse_status_agreement"]:
        print("FATAL: incremental solver reuse changed solve outcomes")
        return 1
    if not payload["summary"]["sat_attack_status_agreement"]:
        print("FATAL: incremental sat_attack disagrees with the scratch loop")
        return 1
    if not payload["summary"]["corpus_attack_status_agreement"]:
        print("FATAL: sat_attack on the corpus netlist disagrees or "
              "recovered a non-functional key")
        return 1
    if not payload["summary"]["scope_sweep_guesses_identical"]:
        print("FATAL: memoized SCOPE sweep changed the guesses")
        return 1
    if not payload["summary"]["prep_store_bit_identical"]:
        print("FATAL: warm prep-store netlist differs from cold compute")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
