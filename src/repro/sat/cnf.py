"""CNF formula container with named variables and DIMACS export.

Literals follow the DIMACS convention: variable ``v`` (a positive int) has
positive literal ``v`` and negative literal ``-v``.  The :class:`CNF`
object also keeps an optional name table so circuit encodings stay
debuggable and so attack code can address variables by signal name.
"""

from __future__ import annotations

__all__ = ["CNF"]


class CNF:
    """A growable CNF formula.

    Clauses are stored as tuples of ints.  Variables are allocated through
    :meth:`new_var`, optionally bound to a string name (one name per
    variable; repeated requests for the same name return the same
    variable).
    """

    def __init__(self):
        self.num_vars = 0
        self.clauses = []
        self._name_to_var = {}
        self._var_to_name = {}

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def new_var(self, name=None):
        """Allocate a fresh variable, optionally bound to ``name``."""
        if name is not None and name in self._name_to_var:
            return self._name_to_var[name]
        self.num_vars += 1
        var = self.num_vars
        if name is not None:
            self._name_to_var[name] = var
            self._var_to_name[var] = name
        return var

    def var(self, name):
        """Look up the variable bound to ``name``; KeyError if absent."""
        return self._name_to_var[name]

    def name_of(self, var):
        """Name bound to ``var`` or ``None``."""
        return self._var_to_name.get(var)

    # ------------------------------------------------------------------
    # clauses
    # ------------------------------------------------------------------
    def add_clause(self, literals):
        """Add one clause (iterable of non-zero ints)."""
        clause = tuple(literals)
        for lit in clause:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            if abs(lit) > self.num_vars:
                self.num_vars = abs(lit)
        self.clauses.append(clause)

    def add_clauses(self, clause_list):
        for clause in clause_list:
            self.add_clause(clause)

    def extend(self, other):
        """Append all clauses of another CNF (variables must be compatible)."""
        self.num_vars = max(self.num_vars, other.num_vars)
        self.clauses.extend(other.clauses)

    def __len__(self):
        return len(self.clauses)

    def __repr__(self):
        return f"CNF(vars={self.num_vars}, clauses={len(self.clauses)})"

    # ------------------------------------------------------------------
    # evaluation and I/O
    # ------------------------------------------------------------------
    def evaluate(self, assignment):
        """Evaluate under a dense assignment (dict or list of bools by var)."""
        for clause in self.clauses:
            satisfied = False
            for lit in clause:
                value = assignment[abs(lit)]
                if (lit > 0) == bool(value):
                    satisfied = True
                    break
            if not satisfied:
                return False
        return True

    def to_dimacs(self):
        """Serialize to DIMACS CNF text."""
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for var, name in sorted(self._var_to_name.items()):
            lines.insert(0, f"c var {var} = {name}")
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text):
        """Parse DIMACS CNF text (comments and header tolerated)."""
        cnf = cls()
        declared_vars = 0
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) >= 3:
                    declared_vars = int(parts[2])
                continue
            literals = [int(tok) for tok in line.split()]
            if literals and literals[-1] == 0:
                literals = literals[:-1]
            if literals:
                cnf.add_clause(literals)
        cnf.num_vars = max(cnf.num_vars, declared_vars)
        return cnf
