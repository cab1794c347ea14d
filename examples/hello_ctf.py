#!/usr/bin/env python
"""Attacking the HeLLO: CTF'22-style SFLL circuits (paper Table V).

Builds the three size-matched competition circuits, locks them with
SFLL-HD at the published key widths, and runs the oracle-less and
oracle-guided KRATT flows.  The OG flow classifies the restore unit's
Hamming distance, collects protected patterns from oracle mismatches,
and SAT-solves the secret from the HD(p, s) == h constraint system.

Run:  python examples/hello_ctf.py            (tiny scale)
      REPRO_SCALE=small python examples/hello_ctf.py
"""

import os

from repro.attacks import Oracle, kratt_og_attack, kratt_ol_attack, score_key
from repro.benchgen import HELLO_H, hello_locked
from repro.synth import resynthesize


def main():
    scale = os.environ.get("REPRO_SCALE", "tiny")
    print(f"scale={scale}\n")
    for name in ("final_v1", "final_v2", "final_v3"):
        locked = hello_locked(name, scale=scale)
        netlist = resynthesize(locked.circuit, seed=1, effort=2)
        print(f"{name}: {netlist.num_gates} gates, {locked.key_width} keys, "
              f"h={HELLO_H[name]}")

        ol = kratt_ol_attack(netlist, locked.key_inputs, qbf_time_limit=2)
        s_ol = score_key(locked, ol.key)
        print(f"  OL: {s_ol.as_row()} deciphered in {ol.elapsed:.2f}s")

        oracle = Oracle(locked.original)
        og = kratt_og_attack(netlist, locked.key_inputs, oracle, qbf_time_limit=2)
        s_og = score_key(locked, og.key)
        print(f"  OG: success={og.success} exact={s_og.exact_match} "
              f"({og.oracle_queries} queries, {og.elapsed:.2f}s)\n")


if __name__ == "__main__":
    main()
