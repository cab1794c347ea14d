#!/usr/bin/env python
"""SCOPE vs KRATT under the oracle-less threat model (paper Tables II/IV).

Locks one host with all four Table II techniques plus Gen-Anti-SAT and
compares the standalone SCOPE attack against KRATT's
modification-then-SCOPE pipeline: SCOPE alone only resolves SARLock,
while KRATT certifies SFLT keys via QBF, reads Gen-Anti-SAT's masks off
the modified locking unit, and deciphers most DFLT bits from the
PPI-to-key substituted subcircuit.

Run:  python examples/ol_attack_comparison.py
"""

from repro.attacks import kratt_ol_attack, scope_attack, score_key
from repro.benchgen import layered_circuit
from repro.locking import TECHNIQUES
from repro.synth import resynthesize


def main():
    host = layered_circuit("demo", 48, 12, 420, seed=2)
    print(f"host: {host.num_gates} gates\n")
    print(f"{'technique':12s} {'SCOPE':>10s} {'KRATT':>10s}  method")
    print("-" * 56)

    for technique in ("sarlock", "antisat", "caslock", "genantisat", "ttlock", "cac"):
        locked = TECHNIQUES[technique](host, 12, seed=4)
        netlist = resynthesize(locked.circuit, seed=6, effort=2)

        scope = scope_attack(netlist, locked.key_inputs, rule="preserve")
        s_scope = score_key(locked, scope.guesses)

        result = kratt_ol_attack(netlist, locked.key_inputs, qbf_time_limit=3)
        s_kratt = score_key(locked, result.key)

        print(f"{technique:12s} {s_scope.as_row():>10s} {s_kratt.as_row():>10s}  "
              f"{result.details.get('method', '-')}")

    print("\ncdk/dk = correctly deciphered / deciphered key inputs (paper metric)")


if __name__ == "__main__":
    main()
