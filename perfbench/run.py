"""KRATT end-to-end benchmark: attack grid, DIP baselines, table campaign.

    python3 perfbench/run.py --workload attacks --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload attacks --ablate REPRO_SAT_MODE=scratch
    python3 perfbench/run.py --workload attacks --seed 0 --record

Run from the root of a checkout.  Each workload runs in a child process
whose environment this script sets: ``PYTHONHASHSEED`` from the seed,
``REPRO_SCALE=tiny``, and every cache and temporary directory inside
``.perfbench/`` of the checkout.  The script prints every metric with
its unit, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("attacks", "campaign")
#: Layer knobs ``--ablate`` may turn off, with the value that does it.
ABLATIONS = {
    "REPRO_CONE_MEMO": "0",
    "REPRO_PREP_STORE": "0",
    "REPRO_NATIVE_SIM": "0",
    "REPRO_NATIVE_SOLVER": "0",
    "REPRO_SAT_MODE": "scratch",
}
BUILD_TIMEOUT_S = 900
#: A workload child runs set-up, then passes until ``--seconds`` are
#: measured, so at most one pass past them; a traced run makes half an
#: untraced pass and one traced pass.  Each cell is bounded by its own
#: budget, so this margin (about four times the longest pass on a 2-CPU
#: host, room for an ablated native core on a slow host) only catches a
#: hung child.
PASS_MARGIN_S = 300


def calibrate():
    """Seconds for a fixed pure-Python loop: a host-speed stamp."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def child_env(seed, tmp, knobs):
    # Inherited REPRO_* settings are dropped: the benchmark fixes every
    # knob itself, and an ablation sets exactly one.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED=str(seed),
        PYTHONPATH=str(ROOT / "src"),
        REPRO_SCALE="tiny",
        REPRO_NATIVE_CACHE_DIR=str(STATE / "nativecache"),
        REPRO_TUNE_DIR=str(STATE / "tune"),
        REPRO_PREP_STORE_DIR=str(Path(tmp) / "store"),
        TMPDIR=str(tmp),
    )
    env.update(knobs)
    return env


def run_child(argv, env, timeout):
    """Run workloads.py in its own session; kill the session on exit."""
    env = dict(env, PERFBENCH_T0=repr(time.monotonic()))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *argv],
        env=env, cwd=str(ROOT), stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: child exceeded {timeout} s, killed", file=sys.stderr)
        return None
    finally:
        # Also reaps queue workers a crashed child left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def build(tmp):
    """Load the native cores once per checkout, building them if needed."""
    code = run_child(["--build"], child_env(0, tmp, {}), BUILD_TIMEOUT_S)
    if code != 0:
        raise SystemExit(f"perfbench: native build step failed ({code})")


def run_workload(workload, args, knobs, tmp):
    out = Path(tmp) / f"{workload}.json"
    argv = ["--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--tmp", str(tmp), "--state", str(STATE), "--out", str(out)]
    if args.cells:
        argv += ["--cells", str(args.cells)]
    if args.record:
        argv += ["--no-records"]
    timeout = args.seconds + 2 * PASS_MARGIN_S
    before = calibrate()
    code = run_child(argv, child_env(args.seed, tmp, knobs), timeout)
    after = calibrate()
    if code != 0 or not out.exists():
        raise SystemExit(f"perfbench: workload {workload} failed (exit {code})")
    result = json.loads(out.read_text())
    result["env"].update(
        scale="tiny", qbf_cap_s=1.0, cpus=os.cpu_count(),
        python=platform.python_version(), calib_before_s=before,
        calib_after_s=after, knobs=knobs or "-")
    self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["peak_rss_mb"] = max(result["peak_rss_mb"], self_mb)
    return result


def metric_values(spec, result, trace):
    values = dict(result["metrics"], setup_s=result["setup_s"],
                  peak_rss_mb=result["peak_rss_mb"])
    if trace:
        values = result["layers"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: workload did not report {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted}


def tally(result):
    rows = [row for rows in result["passes"] for row in rows]
    failed = [row for row in rows if row["problems"]]
    return len(rows), failed


def report(workload, result, metrics, trace):
    env = result["env"]
    print(f"perfbench: workload={workload} seed={result['seed']} trace={trace} "
          f"passes={len(result['passes'])} workers={result['workers']}")
    print("env: " + " ".join(f"{k}={env[k]}" for k in sorted(env)))
    print("setup rounds (s): " + " ".join(f"{s:.4f}" for s in result["setup_rounds_s"]))
    for row in result["passes"][0]:
        o = row.get("outcome", {})
        line = (f"cell {row['id']} wall={row['wall']:.4f}s "
                f"success={o.get('success')} method={o.get('method')} "
                f"functional={o.get('functional')} cdk/dk={o.get('cdk')}/{o.get('dk')}")
        if row.get("counts"):
            line += " " + " ".join(f"{k}={v}" for k, v in row["counts"].items())
        print(line)
    attempted, failed = tally(result)
    for row in failed:
        print(f"FAILED {row['id']}: " + "; ".join(row["problems"]))
    for name, value in sorted(result["metrics"].items()):
        if name not in metrics:
            unit = "count" if name == "og_oracle_queries" else (
                "s" if name.endswith("_s") else "ratio")
            print(f"detail {name} = {value!r} {unit}")
    print(f"detail failed_frac = {len(failed)}/{attempted} = "
          f"{len(failed) / attempted:.4f} ratio")
    drift = result.get("count_drift")
    if drift is not None:
        print("count drift between passes: " + ("none" if not drift else ""))
        for line in drift:
            print(f"  {line}")
    if trace and result.get("layer_table"):
        print("layer calls incl_s self_s counters")
        for name, row in sorted(result["layer_table"].items()):
            extra = {k: v for k, v in row.items() if k not in ("calls", "s", "self_s")}
            print(f"  {name} {row['calls']} {row['s']:.4f} {row['self_s']:.4f} {extra or ''}")
        print("cell top-level stage coverage (stages_s / wall_s; tolerance 90%):")
        for cell, c in result["coverage"].items():
            flag = "" if c["coverage"] >= 0.9 else "  BELOW TOLERANCE"
            print(f"  {cell} {c['stages_s']:.4f}/{c['wall_s']:.4f} = {100 * c['coverage']:.1f}%{flag}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")


def history_path(workload, seed):
    return STATE / "history" / f"{workload}-seed{seed}.json"


def load_history(workload, seed):
    """The per-cell work counts of the last untraced run of this seed."""
    path = history_path(workload, seed)
    return json.loads(path.read_text()) if path.exists() else None


def compare_history(workload, seed, result, save):
    """Flag per-cell work counts that differ from the last run of this
    seed; with ``save``, make this run the new reference."""
    counts = {row["id"]: row.get("counts") for row in result["passes"][0]}
    history = load_history(workload, seed)
    if history is not None:
        drift = [f"{cid}: {history['counts'].get(cid)} -> {c}"
                 for cid, c in counts.items()
                 if cid in history["counts"] and history["counts"][cid] != c]
        print("count drift since the last run of this seed: "
              + ("none" if not drift else ""))
        for line in drift:
            print(f"  {line}")
    if save:
        path = history_path(workload, seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"counts": counts}, indent=1, sort_keys=True))


def record(workload, seed, result):
    from workloads import OUTCOME_FIELDS

    path = HERE / "outcomes.json"
    records = json.loads(path.read_text())
    key = "*" if workload == "campaign" else str(seed)
    records.setdefault(workload, {})[key] = {
        row["id"]: [row["outcome"][k] for k in OUTCOME_FIELDS]
        for row in result["passes"][0] if "outcome" in row}
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"recorded {workload} outcomes under key {key!r} in {path.name}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole passes until this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ablate", metavar="KNOB=VALUE",
                        help=f"re-run with one layer off: {sorted(ABLATIONS)}")
    parser.add_argument("--cells", type=int, default=None,
                        help="run only the first N cells of each workload")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's outcomes as the gate's record")
    args = parser.parse_args(argv)
    # SIGTERM unwinds through run_child's finally, which kills the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    knobs = {}
    if args.ablate:
        knob, _, value = args.ablate.partition("=")
        if ABLATIONS.get(knob) != value:
            parser.error(f"--ablate takes one of "
                         f"{[f'{k}={v}' for k, v in ABLATIONS.items()]}")
        knobs = {knob: value}

    STATE.mkdir(exist_ok=True)
    (STATE / "tmp").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=STATE / "tmp")
    try:
        build(tmp)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads:
            result = run_workload(workload, args, knobs, tmp)
            metrics = metric_values(spec, result, args.trace)
            if knobs:
                plain = metric_values(
                    spec, run_workload(workload, args, {}, tmp), args.trace)
                print(f"ablation {args.ablate} on {workload}:")
                for name, m in metrics.items():
                    base = plain[name]["value"]
                    change = (100.0 * (m["value"] - base) / base) if base else 0.0
                    print(f"  {name}: {base:.6g} -> {m['value']:.6g} {m['unit']} "
                          f"({change:+.1f}%)")
            report(workload, result, metrics, args.trace)
            if not args.cells and not knobs:
                compare_history(workload, args.seed, result, save=not args.trace)
            if args.record:
                record(workload, args.seed, result)
            attempted, failed = tally(result)
            summary["attempted"] += attempted
            summary["failed"] += len(failed)
            prefix = "" if len(workloads) == 1 else f"{workload}/"
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
        summary["correct"] = summary["failed"] == 0
        print(json.dumps(summary))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
