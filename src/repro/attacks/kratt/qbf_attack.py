"""KRATT step 2: the QBF formulation over the extracted unit.

Section III-A of the paper: generate the two 2QBF problems ::

    EXISTS K . FORALL PPI . unit(PPI, K) == 0
    EXISTS K . FORALL PPI . unit(PPI, K) == 1

and hand them to the QBF solver.  A witness makes the critical signal
constant for every protected input — for an SFLT that is the secret key.

Two KRATT-specific safeguards around the raw solve:

* **Time limit.**  The paper caps the QBF solver at one minute because a
  satisfiable instance resolves almost instantly while refutations (DFLT
  restore units) can grind; the limit is a parameter here.
* **Complementarity check.**  For Anti-SAT-family units (two keys per
  PPI) the witness is certified by *tying* each PPI's key pair together
  and asking whether the unit collapses to a constant: complementary
  trees (Anti-SAT, CAS-Lock) do, Gen-Anti-SAT's non-complementary pair
  does not — in which case the paper reports the QBF step unable to name
  the secret key and KRATT falls back to the oracle-less path
  (Table IV).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...budget import Deadline
from ...netlist.circuit import Circuit
from ...netlist.gate import GateType
from ...netlist.verify import prove_signal_constant
from ...qbf.solver import solve_exists_forall_circuit
from .removal import cube_columns

__all__ = ["QbfAttackOutcome", "qbf_key_search", "tied_unit_is_constant"]


@dataclass
class QbfAttackOutcome:
    """Result of the QBF step.

    ``status`` is one of ``"key"`` (witness accepted as the secret key),
    ``"ambiguous"`` (witness found but the unit is non-complementary, so
    it cannot be certified), or ``"unsat"`` (no constant-making key —
    the unit is a DFLT restore unit or the solver hit its limit).
    ``out_of_time`` distinguishes the two ``"unsat"`` causes: True means
    at least one polarity ran out of budget rather than being refuted,
    so "no key" is a timeout verdict, not a proof (the paper proceeds to
    structural analysis in both cases; downstream reporting should not
    read it as proven non-constant).
    ``strategy`` maps each polarity (0 or 1) that a lifted counterexample
    refuted to its refuting strategy (see :class:`repro.qbf.QBFResult`),
    a certificate that no key makes the unit that constant.
    """

    status: str
    key: dict = None
    constant_value: int = None
    iterations: int = 0
    elapsed: float = 0.0
    complementary: bool = None
    out_of_time: bool = False
    strategy: dict = None


def qbf_key_search(extraction, time_limit=10.0, max_iterations=50_000):
    """Run both QBF polarities over an extracted unit.

    Returns a :class:`QbfAttackOutcome`.  The witness (if any) is checked
    for certifiability via :func:`tied_unit_is_constant` whenever the
    unit pairs two key inputs per PPI.

    ``time_limit`` (float seconds or a shared
    :class:`repro.budget.Deadline`) bounds *both* polarities together —
    a deadline spent by the first solve makes the second return
    immediately instead of receiving a fresh grace slice.

    The solver's strategy hints are each PPI's first associated key, then
    every cube column (:func:`~repro.attacks.kratt.removal.cube_columns`)
    that differs from it, so a restore unit is refuted by one lifted
    counterexample per polarity -- also SFLL-Flex, whose first keys mix
    the cubes.
    """
    deadline = Deadline.of(time_limit)
    unit = extraction.unit
    cs1 = extraction.critical_signal
    keys = list(extraction.key_inputs)
    ppis = list(extraction.protected_inputs)
    hints = [{ppi: ks[0] for ppi, ks in extraction.key_of_ppi.items() if ks}]
    for column in cube_columns(unit, extraction.key_of_ppi):
        if column not in hints:
            hints.append(column)

    elapsed = 0.0
    iterations = 0
    out_of_time = False
    strategy = {}
    for value in (0, 1):
        result = solve_exists_forall_circuit(
            unit, keys, ppis, cs1, value,
            max_iterations=max_iterations,
            time_limit=deadline,
            strategy_hints=hints,
        )
        elapsed += result.elapsed
        iterations += result.iterations
        if result.status is None:
            out_of_time = True
        if result.strategy is not None:
            strategy[value] = result.strategy
        if result.status is not True:
            continue

        complementary = None
        if extraction.keys_per_ppi >= 2:
            complementary = tied_unit_is_constant(extraction, time_limit=deadline)
            if not complementary:
                return QbfAttackOutcome(
                    status="ambiguous",
                    key=result.witness,
                    constant_value=value,
                    iterations=iterations,
                    elapsed=elapsed,
                    complementary=False,
                    strategy=strategy or None,
                )
        return QbfAttackOutcome(
            status="key",
            key=result.witness,
            constant_value=value,
            iterations=iterations,
            elapsed=elapsed,
            complementary=complementary,
            strategy=strategy or None,
        )
    return QbfAttackOutcome(
        status="unsat", iterations=iterations, elapsed=elapsed,
        out_of_time=out_of_time, strategy=strategy or None,
    )


def _tie_key_pairs(extraction):
    """Unit copy in which each PPI's second key is tied to its first.

    The tied circuit computes ``unit(PPI, T, T)``; for complementary tree
    pairs this is constant by construction, independent of resynthesis.
    """
    unit = extraction.unit
    tied = Circuit(f"{unit.name}_tied")
    drop = {}
    for ppi, keys in extraction.key_of_ppi.items():
        if len(keys) >= 2:
            primary = keys[0]
            for other in keys[1:]:
                drop[other] = primary
    for sig in unit.inputs:
        if sig not in drop:
            tied.add_input(sig)
    for sig, primary in drop.items():
        tied.add_gate(sig, GateType.BUF, (primary,))
    for gate in unit.gates():
        tied._gates[gate.name] = gate
    tied._invalidate()
    tied.set_outputs(list(unit.outputs))
    tied.validate()
    return tied


def tied_unit_is_constant(extraction, max_conflicts=50_000, time_limit=None):
    """Certify complementarity: is the key-tied unit a constant?

    Returns True (complementary — Anti-SAT/CAS-Lock family), False
    (non-complementary — Gen-Anti-SAT family), or None if undecided
    within budget (conflict cap or ``time_limit``, which accepts float
    seconds or a shared :class:`repro.budget.Deadline`).
    """
    tied = _tie_key_pairs(extraction)
    cs1 = extraction.critical_signal
    for value in (0, 1):
        verdict, _ = prove_signal_constant(
            tied, cs1, value, max_conflicts=max_conflicts, time_limit=time_limit
        )
        if verdict is True:
            return True
        if verdict is None:
            return None
    return False
