"""Formal equivalence checking via SAT miters.

Used throughout the reproduction: the resynthesis engine proves its
rewrites function-preserving, locking tests prove correct-key equivalence,
and KRATT verifies recovered keys.

A miter compares only the outputs the two circuits do not structurally
share, and encodes only the fan-in cones of those outputs.  Both
reductions are exact: ``XOR(s, s)`` is constant 0, and the Tseitin
clauses of a gate outside every compared cone are satisfiable for any
input.  A key proof against a locked netlist therefore reduces to the
outputs the locking logic drives, however large the host.
"""

from __future__ import annotations

from ..budget import Deadline
from .circuit import Circuit
from .cone import transitive_fanin
from .gate import Gate, GateType


def _sat_tools():
    # Imported lazily: repro.sat.tseitin itself imports repro.netlist.gate,
    # so a module-level import here would create an import cycle whenever
    # repro.sat is loaded before repro.netlist.
    from ..sat.solver import Solver
    from ..sat.tseitin import encode_circuit

    return Solver, encode_circuit

__all__ = ["build_miter", "check_equivalent", "prove_signal_constant"]


def _structurally_shared(circ_a, circ_b):
    """Signals with identical definitions (recursively) in both circuits.

    Locked circuits embed the host netlist verbatim.  A shared signal is
    one signal in the miter, so a shared output needs no comparison and
    a differing output's cone stops at the shared signals it reads: the
    proof is about the (small) locking logic only.
    """
    shared = set()
    for sig in circ_a.topological_order():
        if sig not in circ_b:
            continue
        gate_a = circ_a.gate(sig)
        gate_b = circ_b.gate(sig)
        if gate_a.gtype is not gate_b.gtype or gate_a.fanins != gate_b.fanins:
            continue
        if all(s in shared for s in gate_a.fanins):
            shared.add(sig)
    return shared


def build_miter(circ_a, circ_b, name="miter", share_common=True):
    """Build a miter circuit: output 1 iff the two circuits differ.

    Both circuits must have identical input sets and identical output
    lists.  Every input is kept on the miter's interface.  With
    ``share_common`` the structurally identical signals are shared and
    unprefixed, and shared outputs are not compared; without it only
    the inputs are shared and every output pair is compared.  Only the
    gates in the compared outputs' fan-in cones are copied in, in each
    circuit's own gate order so that the CNF does not depend on hash
    order; unshared signals are prefixed ``A$``/``B$``.
    Each compared pair is XORed into ``diff$<output>`` and the XORs are
    ORed into the single output ``miter_out``, which is ``CONST0`` when
    no output is compared.
    """
    if set(circ_a.inputs) != set(circ_b.inputs):
        raise ValueError("miter requires identical input interfaces")
    if list(circ_a.outputs) != list(circ_b.outputs):
        raise ValueError("miter requires identical output lists")

    shared = set(circ_a.inputs)
    if share_common:
        shared |= _structurally_shared(circ_a, circ_b)
        compared = [out for out in circ_a.outputs if out not in shared]
    else:
        compared = list(circ_a.outputs)
    cone_a = transitive_fanin(circ_a, compared)
    cone_b = transitive_fanin(circ_b, compared)

    def local(prefix, sig):
        return sig if sig in shared else prefix + sig

    miter = Circuit(name)

    def copy_gate(prefix, gate):
        sig = local(prefix, gate.name)
        fanins = tuple(local(prefix, s) for s in gate.fanins)
        miter._gates[sig] = Gate(sig, gate.gtype, fanins)

    for sig in circ_a.inputs:
        miter.add_input(sig)
    for gate in circ_a.gates():
        if gate.name in cone_a or (gate.name in shared and gate.name in cone_b):
            copy_gate("A$", gate)
    for gate in circ_b.gates():
        if gate.name in cone_b and gate.name not in shared:
            copy_gate("B$", gate)
    miter._invalidate()

    diff_signals = []
    for out in compared:
        diff = f"diff${out}"
        miter.add_gate(diff, GateType.XOR, (local("A$", out), local("B$", out)))
        diff_signals.append(diff)

    if not diff_signals:
        miter.add_gate("miter_out", GateType.CONST0, ())
    elif len(diff_signals) == 1:
        miter.add_gate("miter_out", GateType.BUF, (diff_signals[0],))
    else:
        miter.add_gate("miter_out", GateType.OR, tuple(diff_signals))
    miter.set_outputs(["miter_out"])
    miter.validate()
    return miter


def check_equivalent(
    circ_a, circ_b, assumptions=None, max_conflicts=None, time_limit=None
):
    """SAT equivalence check.

    Returns ``(verdict, counterexample)`` where ``verdict`` is ``True``
    (proven equivalent), ``False`` (differ; counterexample is an input
    assignment exposing the difference), or ``None`` (budget exhausted).

    ``assumptions`` optionally pins inputs (dict name -> bool), to check
    equivalence under a fixed key, for example; any input may be pinned,
    whether or not a compared output reads it.  ``time_limit``
    accepts float seconds or a shared :class:`repro.budget.Deadline`; an
    already expired deadline returns ``(None, None)`` before the miter
    is even built.
    """
    deadline = Deadline.of(time_limit)
    if deadline.expired():
        return None, None
    Solver, encode_circuit = _sat_tools()
    miter = build_miter(circ_a, circ_b)
    solver = Solver()
    cnf, varmap = encode_circuit(miter)
    cnf.add_clause([varmap["miter_out"]])
    if not solver.add_cnf(cnf):
        return True, None

    assume_lits = []
    for name, value in (assumptions or {}).items():
        var = varmap[name]
        assume_lits.append(var if value else -var)

    status = solver.solve(
        assume_lits, max_conflicts=max_conflicts, time_limit=deadline
    )
    if status is False:
        return True, None
    if status is None:
        return None, None
    cex = {name: solver.model_value(varmap[name]) for name in miter.inputs}
    return False, cex


def prove_signal_constant(
    circuit, signal, value, fixed_inputs=None, max_conflicts=None, time_limit=None
):
    """Prove an internal signal is constant for all free input values.

    ``fixed_inputs`` pins some inputs (e.g. the key) while the rest range
    freely.  Returns ``(verdict, counterexample)`` like
    :func:`check_equivalent`: ``True`` means ``signal == value`` always.
    ``time_limit`` accepts float seconds or a :class:`repro.budget.Deadline`.
    """
    deadline = Deadline.of(time_limit)
    if deadline.expired():
        return None, None
    Solver, encode_circuit = _sat_tools()
    solver = Solver()
    cnf, varmap = encode_circuit(circuit)
    sig_var = varmap[signal]
    cnf.add_clause([-sig_var if value else sig_var])
    if not solver.add_cnf(cnf):
        return True, None

    assume_lits = []
    for name, val in (fixed_inputs or {}).items():
        var = varmap[name]
        assume_lits.append(var if val else -var)

    status = solver.solve(
        assume_lits, max_conflicts=max_conflicts, time_limit=deadline
    )
    if status is False:
        return True, None
    if status is None:
        return None, None
    cex = {name: solver.model_value(varmap[name]) for name in circuit.inputs}
    return False, cex
