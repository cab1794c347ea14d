"""Tseitin transformation: circuit to CNF.

Every signal of the circuit gets a CNF variable named after it (with an
optional prefix, so several circuit copies can live in one formula — the
basis for miters and for the QBF counterexample loop).  Gate semantics are
encoded with the standard Tseitin clause schemata; wide XOR/XNOR gates are
decomposed into a chain of 2-input steps to keep clause counts linear.
"""

from __future__ import annotations

from collections import namedtuple

from ..netlist.errors import CircuitStructureError
from ..netlist.gate import GateType
from .cnf import CNF

__all__ = [
    "ConeCNF",
    "ConeEncoder",
    "VarRegistry",
    "encode_circuit",
    "encode_gate_clauses",
    "encode_into_solver",
]


class VarRegistry:
    """Stable map from qualified signal names to solver variables.

    One registry per persistent solver instance: every copy the
    incremental attacks encode (``"<signal><suffix>"``) and every shared
    variable registered through :meth:`bind` allocates its solver
    variable exactly once, here.  Allocation is append-only — a name
    never changes its variable and the variable count never shrinks —
    which is what makes Tseitin allocation reproducible across
    iterations, runs, and process start methods, and lets the
    differential tests compare maps between the incremental and
    from-scratch engines directly.
    """

    def __init__(self, solver):
        self.solver = solver
        self._vars = {}

    def bind(self, name, var):
        """Register an externally allocated variable under ``name``."""
        existing = self._vars.get(name)
        if existing is not None and existing != var:
            raise ValueError(
                f"registry rebind for {name!r}: {existing} -> {var}"
            )
        self._vars[name] = var
        return var

    def var(self, name):
        """Variable for ``name``, allocating it on first use."""
        v = self._vars.get(name)
        if v is None:
            v = self._vars[name] = self.solver.new_var()
        return v

    def __contains__(self, name):
        return name in self._vars

    def __len__(self):
        return len(self._vars)

    def snapshot(self):
        """Copy of the full name -> variable map (test observability)."""
        return dict(self._vars)


def _emit_gate(flat, gtype, out, ins, top):
    """Append the clauses of ``out = gtype(ins)`` to the flat buffer
    ``flat`` (``[size, lit, ...]*``); returns the new top variable.

    Wide XOR/XNOR gates allocate their chain steps as ``top + 1``,
    ``top + 2``, ...; no other gate allocates.
    """
    if gtype is GateType.AND or gtype is GateType.NAND:
        o = out if gtype is GateType.AND else -out
        flat.append(len(ins) + 1)
        flat.extend([-i for i in ins])
        flat.append(o)
        for i in ins:
            flat += (2, i, -o)
    elif gtype is GateType.OR or gtype is GateType.NOR:
        o = out if gtype is GateType.OR else -out
        flat.append(len(ins) + 1)
        flat.extend(ins)
        flat.append(-o)
        for i in ins:
            flat += (2, -i, o)
    elif gtype is GateType.XOR or gtype is GateType.XNOR:
        acc = ins[0]
        for nxt in ins[1:-1]:
            top += 1
            flat += (3, -acc, -nxt, -top, 3, acc, nxt, -top,
                     3, acc, -nxt, top, 3, -acc, nxt, top)
            acc = top
        o = out if gtype is GateType.XOR else -out
        b = ins[-1]
        flat += (3, -acc, -b, -o, 3, acc, b, -o, 3, acc, -b, o, 3, -acc, b, o)
    elif gtype is GateType.NOT:
        flat += (2, ins[0], out, 2, -ins[0], -out)
    elif gtype is GateType.BUF:
        flat += (2, -ins[0], out, 2, ins[0], -out)
    elif gtype is GateType.CONST0:
        flat += (1, -out)
    elif gtype is GateType.CONST1:
        flat += (1, out)
    else:
        raise ValueError(f"cannot encode gate type {gtype}")
    return top


#: One cone's fresh-solver encoding: its primary inputs in the parent's
#: order with their variables, the root's variable, the variable count
#: and the flat ``[size, lit, ...]*`` clause buffer.
ConeCNF = namedtuple(
    "ConeCNF", ["inputs", "input_vars", "root_var", "num_vars", "clauses"]
)


class ConeEncoder:
    """Fan-in cone encodings of one circuit, without cone copies.

    The circuit is snapshotted once as int-indexed fan-ins.
    :meth:`encode` then writes a root's cone straight to a flat clause
    buffer, numbered exactly as
    ``encode_into_solver(Solver(), extract_cone(circuit, root), {})``
    numbers it: the cone's signals in ``extract_cone``'s depth-first
    ``needed`` order (its inputs first, in the parent's input order),
    sorted by the FIFO Kahn pass of
    :meth:`~repro.netlist.circuit.Circuit.topological_order`, each
    gate's output numbered before its XOR chain steps.  Replaying the
    buffer into a fresh solver leaves the state that encoding leaves.
    """

    def __init__(self, circuit):
        names = list(circuit.signals)
        index = {name: i for i, name in enumerate(names)}
        gates = [circuit.gate(name) for name in names]
        self._names = names
        self._index = index
        self._gtypes = [gate.gtype for gate in gates]
        self._fanins = [tuple(index[s] for s in gate.fanins) for gate in gates]
        self._input_rank = {index[name]: r
                            for r, name in enumerate(circuit.inputs)}

    def encode(self, root):
        """The :class:`ConeCNF` of the fan-in cone of ``root``."""
        root_index = self._index.get(root)
        if root_index is None:
            raise CircuitStructureError(f"no signal {root!r} to extract")
        fanins = self._fanins
        rank = self._input_rank
        n = len(fanins)
        needed = []
        seen = bytearray(n)
        stack = [root_index]
        while stack:
            sig = stack.pop()
            if not seen[sig]:
                seen[sig] = 1
                needed.append(sig)
                stack.extend(fanins[sig])
        inputs = sorted((s for s in needed if s in rank), key=rank.__getitem__)
        gates = [s for s in needed if s not in rank]
        fanout = {s: [] for s in needed}
        indeg = [0] * n
        for g in gates:
            indeg[g] = len(fanins[g])
            for src in fanins[g]:
                fanout[src].append(g)
        # FIFO Kahn: ``order`` grows while it is walked.
        order = inputs + [g for g in gates if not indeg[g]]
        gtypes = self._gtypes
        var = [0] * n
        flat = []
        top = 0
        for sig in order:
            top += 1
            var[sig] = top
            if sig not in rank:
                top = _emit_gate(
                    flat, gtypes[sig], top, [var[s] for s in fanins[sig]], top
                )
            for succ in fanout[sig]:
                indeg[succ] -= 1
                if not indeg[succ]:
                    order.append(succ)
        if len(order) != len(needed):
            raise CircuitStructureError(
                f"combinational cycle in the cone of {root!r}"
            )
        names = self._names
        return ConeCNF(
            [names[s] for s in inputs], [var[s] for s in inputs],
            var[root_index], top, flat,
        )


def encode_gate_clauses(cnf, gtype, out_var, in_vars):
    """Append clauses asserting ``out_var = gtype(in_vars)`` to ``cnf``."""
    flat = []
    cnf.num_vars = _emit_gate(flat, gtype, out_var, in_vars, cnf.num_vars)
    pos = 0
    while pos < len(flat):
        end = pos + 1 + flat[pos]
        cnf.add_clause(flat[pos + 1:end])
        pos = end


def encode_into_solver(solver, circuit, shared_vars, fix=None, suffix="",
                       skip_gates=(), registry=None):
    """Encode one circuit copy directly into a :class:`Solver`.

    ``shared_vars`` maps signal names that must be shared across copies
    (primary inputs, key inputs) to existing solver variables; all other
    signals get fresh variables (distinct per ``suffix``).  ``fix``
    optionally pins input signals to constants.  Returns a dict with the
    solver variable of every signal in this copy.

    ``registry`` (a :class:`VarRegistry` over the same solver) makes the
    local allocation persistent: copy-local variables are looked up by
    their qualified name ``signal + suffix``, so a persistent caller's
    allocation is stable and inspectable across iterations.  Without a
    registry the local map lives only for this call.

    Fresh variables are numbered in topological order: each gate's
    output, then its XOR chain steps.  The whole copy — gate clauses and
    the unit clauses of ``fix``, in that order per signal — is written
    to one flat ``[size, lit, ...]*`` buffer; the solver grows its
    variables once and takes the buffer with one
    :meth:`~repro.sat.solver.Solver.add_clauses` call, leaving the same
    state as adding the clauses one by one.

    This is the workhorse of the incremental attacks (SAT attack, DDIP,
    AppSAT) and the QBF CEGAR loop, which all grow one formula by
    repeatedly instantiating circuit copies.
    """
    fix = fix or {}
    skip_gates = set(skip_gates)
    names = registry._vars if registry is not None else {}
    top = solver.num_vars
    flat = []
    varmap = {}
    for name in circuit.topological_order():
        gate = circuit.gate(name)
        out = shared_vars.get(name)
        if out is None:
            key = name + suffix
            out = names.get(key)
            if out is None:
                top += 1
                out = names[key] = top
        varmap[name] = out
        gtype = gate.gtype
        if gtype is GateType.INPUT:
            if name in fix:
                flat += (1, out if fix[name] else -out)
            continue
        if name in skip_gates:
            # Already defined in the solver (shared across copies).
            continue
        top = _emit_gate(
            flat, gtype, out, [varmap[s] for s in gate.fanins], top
        )
    solver.ensure_vars(top)
    solver.add_clauses(flat)
    return varmap


def encode_circuit(circuit, cnf=None, prefix=""):
    """Encode a circuit into CNF; returns ``(cnf, varmap)``.

    ``varmap`` maps each signal name (unprefixed) to its CNF variable.  If
    an existing ``cnf`` is supplied, variables named ``prefix + signal``
    are reused when already allocated — sharing inputs between copies is
    achieved by encoding both copies with prefixes that agree on the
    shared names.
    """
    cnf = cnf if cnf is not None else CNF()
    varmap = {}
    for name in circuit.topological_order():
        varmap[name] = cnf.new_var(prefix + name)
    for name in circuit.topological_order():
        gate = circuit.gate(name)
        if gate.gtype is GateType.INPUT:
            continue
        encode_gate_clauses(
            cnf,
            gate.gtype,
            varmap[name],
            [varmap[s] for s in gate.fanins],
        )
    return cnf, varmap
