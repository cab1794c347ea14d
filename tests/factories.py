"""Circuit factories and markers shared across the test suite.

Lives in its own module (not ``conftest.py``) so test files can import it
by a non-colliding name: ``benchmarks/`` has its own conftest, and two
``conftest`` modules in one pytest run shadow each other.
"""

import random

import pytest

from repro import nativelib
from repro.netlist import Circuit
from repro.sat import native as sat_native
from repro.sat.cnf import CNF

GATE_CHOICES = ["AND", "OR", "NAND", "NOR", "XOR", "XNOR"]


def _native_core_missing():
    """Why the native solver core cannot run here, or ``None``.

    ``native_available()`` only checks the switch and the compiler; one
    lookup then records the actual failure (switched off, no compiler)
    in ``last_error()``, so a skip names it.
    """
    if nativelib.native_available():
        return None
    sat_native.build_core()
    return nativelib.last_error()


_NATIVE_MISSING = _native_core_missing()

#: Skips a test (or a ``pytest.param``) when the native core cannot load.
needs_native_core = pytest.mark.skipif(
    _NATIVE_MISSING is not None, reason=_NATIVE_MISSING or ""
)


def build_random_circuit(n_inputs=6, n_gates=20, n_outputs=3, seed=0,
                         unary_fraction=0.15):
    """Seeded random DAG circuit used across the suite."""
    rng = random.Random(("testhost", seed, n_inputs, n_gates).__str__())
    circuit = Circuit(f"rand{seed}")
    signals = [circuit.add_input(f"x{i}") for i in range(n_inputs)]
    for g in range(n_gates):
        if rng.random() < unary_fraction:
            circuit.add_gate(f"g{g}", "NOT", (rng.choice(signals),))
        else:
            a, b = rng.sample(signals, 2)
            circuit.add_gate(f"g{g}", rng.choice(GATE_CHOICES), (a, b))
        signals.append(f"g{g}")
    circuit.set_outputs(signals[-n_outputs:])
    circuit.validate()
    return circuit


def build_exotic_circuit(seed=0, n_inputs=7, n_gates=40):
    """Random circuit exercising every gate type the engine compiles.

    Includes constants, BUF/NOT chains, and variadic (3-4 input) gates on
    top of the binary mix — the shapes :mod:`repro.netlist.engine` lowers
    to distinct opcodes.
    """
    rng = random.Random(("exotic", seed, n_inputs, n_gates).__str__())
    circuit = Circuit(f"exotic{seed}")
    signals = [circuit.add_input(f"x{i}") for i in range(n_inputs)]
    circuit.add_gate("c0", "CONST0", ())
    circuit.add_gate("c1", "CONST1", ())
    signals += ["c0", "c1"]
    for g in range(n_gates):
        roll = rng.random()
        name = f"e{g}"
        if roll < 0.1:
            circuit.add_gate(name, "NOT", (rng.choice(signals),))
        elif roll < 0.2:
            circuit.add_gate(name, "BUFF", (rng.choice(signals),))
        elif roll < 0.45:
            k = rng.choice([3, 4])
            if k <= len(signals):
                fanins = rng.sample(signals, k)
            else:
                fanins = rng.sample(signals, 2)
            circuit.add_gate(name, rng.choice(GATE_CHOICES), tuple(fanins))
        else:
            a, b = rng.sample(signals, 2)
            circuit.add_gate(name, rng.choice(GATE_CHOICES), (a, b))
        signals.append(name)
    circuit.set_outputs(signals[-4:])
    circuit.validate()
    return circuit


def build_locked_circuit(technique, seed=0, n_inputs=8, n_gates=30,
                         key_width=4):
    """Random host locked with ``technique``; returns the LockedCircuit.

    The host is a seeded random DAG, so the locked netlists the
    metamorphic synth tests chew on differ per (technique, seed) pair.
    """
    from repro.locking import TECHNIQUES

    host = build_random_circuit(
        n_inputs=n_inputs, n_gates=n_gates, n_outputs=3, seed=seed
    )
    lock = TECHNIQUES[technique]
    if technique == "sfll_hd":
        return lock(host, key_width, h=1, seed=seed)
    return lock(host, key_width, seed=seed)


def random_3cnf(n_vars, n_clauses, seed=0):
    """Seeded random 3-CNF instance over ``n_vars`` variables.

    Clauses draw three *distinct* variables with independent random
    polarities — the fixed-width random model whose SAT/UNSAT phase
    transition sits near ratio 4.27, which is where the solver fuzz
    tests want their instances.
    """
    rng = random.Random(("3cnf", seed, n_vars, n_clauses).__str__())
    cnf = CNF()
    variables = [cnf.new_var(f"v{i}") for i in range(n_vars)]
    for _ in range(n_clauses):
        chosen = rng.sample(variables, 3)
        cnf.add_clause([
            var if rng.random() < 0.5 else -var for var in chosen
        ])
    return cnf
