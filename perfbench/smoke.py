"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs one cell of every workload with ``--trace 0`` and ``--trace 1`` and
checks that the last output line is the result object and that every
metric of ``BENCHMARK.json`` is printed by name with its unit.  Then it
feeds the outcome gate a wrong key and checks that the gate fails it.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(condition, message, failures):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def check_runs(spec, failures):
    for workload in ("attacks", "campaign"):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace),
                 "--cells", "1"],
                cwd=str(ROOT), capture_output=True, text=True, timeout=600)
            name = f"{workload} trace={trace}"
            check(proc.returncode == 0, f"{name}: exit code 0", failures)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                check(False, f"{name}: last line is JSON", failures)
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys", failures)
            check(result["correct"] and result["failed"] == 0,
                  f"{name}: outcome gate passes", failures)
            wanted = spec["per_layer" if trace else "end_to_end"]
            for metric in wanted:
                got = result["metrics"].get(metric["name"], {})
                printed = any(line.startswith(f"metric {metric['name']} = ")
                              and line.endswith(f" {metric['unit']}")
                              for line in lines)
                check(got.get("unit") == metric["unit"] and printed,
                      f"{name}: {metric['name']} printed with unit {metric['unit']}",
                      failures)


def check_gate(failures):
    """A wrong key must fail the gate; the right key must pass it."""
    state = ROOT / ".perfbench" / "tmp"
    state.mkdir(parents=True, exist_ok=True)
    store = tempfile.mkdtemp(dir=state)
    os.environ.update(REPRO_SCALE="tiny", REPRO_PREP_STORE_DIR=store,
                      REPRO_NATIVE_CACHE_DIR=str(ROOT / ".perfbench" / "nativecache"))
    try:
        gate_checks(failures)
    finally:
        shutil.rmtree(store, ignore_errors=True)


def gate_checks(failures):
    sys.path.insert(0, str(HERE))
    import workloads
    from repro.attacks import metrics

    grid = workloads.Grid(0, workloads.load_records()["attacks"], limit=1)
    cell = grid.cells[0]
    expected = (grid.expected or {}).get(cell.id)
    check(expected is not None, f"record exists for seed 0 {cell.id}", failures)
    prep = grid.load(cell.host, cell.key_width, cell.technique)
    right = dict(prep.locked.correct_key)
    wrong = dict(right)
    first = sorted(wrong)[0]
    wrong[first] = not wrong[first]
    for key, should_pass in ((right, True), (wrong, False)):
        outcome = workloads.score(metrics, prep.locked, key, True, expected[1])
        problems = workloads.gate(cell.id, cell.attack, cell.technique,
                                  outcome, 0.1, 120.0, expected)
        check(bool(problems) != should_pass,
              f"gate {'passes the right' if should_pass else 'fails a wrong'} key "
              f"({problems or 'no problems'})", failures)
        # Without a record the paper invariant (a QBF key unlocks) applies.
        problems = workloads.gate(cell.id, cell.attack, cell.technique,
                                  outcome, 0.1, 120.0, None)
        check(bool(problems) != should_pass,
              f"invariant gate {'passes the right' if should_pass else 'fails a wrong'} key",
              failures)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    check_runs(spec, failures)
    check_gate(failures)
    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
