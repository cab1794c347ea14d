"""Attack scoring: deciphered and correctly-deciphered key bits.

The KRATT paper reports ``cdk/dk`` — correctly deciphered over deciphered
key inputs (Tables II, IV, V) — and whether the secret key was found
(Tables III, V).  Two subtleties reproduced here:

* **Key families.**  Anti-SAT-style blocks have many functionally correct
  keys (any aligned pair).  A complete returned key is scored by *formal
  equivalence* against the original: if it provably unlocks the circuit,
  every bit counts as correct — which is how a key-recovery attack is
  judged in practice and how the paper's 64/64 rows on Anti-SAT read.
* **Partial keys.**  When an attack leaves bits undeciphered, matched
  bits are counted against the designated secret; if only a few bits are
  missing, :func:`complete_partial_key` searches the remaining space with
  equivalence checks (the paper's Table IV note on b14_C does exactly
  this for one missing key input).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..budget import Deadline
from ..netlist.simulate import random_patterns
from ..netlist.verify import check_equivalent

__all__ = ["KeyScore", "AttackResult", "score_key", "complete_partial_key"]


@dataclass
class KeyScore:
    """Per-attack key accounting.

    Attributes
    ----------
    total: key width.
    dk: number of deciphered (guessed) key bits.
    cdk: number of correctly deciphered bits.
    functional: True if a complete key was returned and proven to unlock
        the circuit; False if proven wrong; None when undecided/partial.
    exact_match: complete key matches the designated secret bit-for-bit.
    """

    total: int
    dk: int
    cdk: int
    functional: bool = None
    exact_match: bool = False

    @property
    def accuracy(self):
        return self.cdk / self.dk if self.dk else 0.0

    def as_row(self):
        return f"{self.cdk}/{self.dk}"

    def __repr__(self):
        return (
            f"KeyScore({self.cdk}/{self.dk} of {self.total}, "
            f"functional={self.functional}, exact={self.exact_match})"
        )


@dataclass
class AttackResult:
    """Uniform attack outcome record used by every attack in the package.

    ``elapsed`` is the attack's own wall-clock; ``time_limit`` records the
    budget it ran under (``None`` = unbounded) so downstream accounting —
    the campaign orchestrator persists one JSON record per grid cell —
    can tell a fast success from a success that nearly exhausted its
    budget without re-deriving the limit from call sites.
    """

    attack: str
    technique: str
    circuit: str
    key: dict = field(default_factory=dict)
    success: bool = False
    timed_out: bool = False
    elapsed: float = 0.0
    time_limit: float = None
    iterations: int = 0
    oracle_queries: int = 0
    details: dict = field(default_factory=dict)

    @property
    def budget_used(self):
        """Fraction of ``time_limit`` consumed (``None`` when unbounded)."""
        if not self.time_limit:
            return None
        return self.elapsed / self.time_limit

    def as_dict(self):
        """JSON-serializable record (key maps become name -> 0/1/None)."""
        return {
            "attack": self.attack,
            "technique": self.technique,
            "circuit": self.circuit,
            "key": {
                k: (None if v is None else int(bool(v)))
                for k, v in (self.key or {}).items()
            },
            "success": bool(self.success),
            "timed_out": bool(self.timed_out),
            "elapsed": self.elapsed,
            "time_limit": self.time_limit,
            "iterations": self.iterations,
            "oracle_queries": self.oracle_queries,
            "details": {
                k: v for k, v in (self.details or {}).items()
                if isinstance(v, (str, int, float, bool, type(None)))
            },
        }

    def __repr__(self):
        state = "OoT" if self.timed_out else ("ok" if self.success else "fail")
        return (
            f"AttackResult({self.attack} on {self.circuit}/{self.technique}: "
            f"{state}, {self.elapsed:.2f}s)"
        )


def _refutation_stimulus(locked, count):
    """Key-independent half of the refutation: patterns + golden outputs.

    Cached on the ``LockedCircuit`` — :func:`complete_partial_key` tries
    up to ``2**missing`` candidates against the same stimulus.
    """
    cache = getattr(locked, "_refute_stimulus", None)
    if cache is not None and cache[0] == count:
        return cache[1:]
    rng = random.Random(1234)
    original = locked.original
    words, mask = random_patterns(list(original.inputs), count, rng)
    orig_out = original.compiled().evaluate(words, mask, outputs_only=True)
    try:
        locked._refute_stimulus = (count, words, mask, orig_out)
    except (AttributeError, TypeError):
        pass  # frozen dataclass: just recompute next time
    return words, mask, orig_out


def _random_refutes(locked, key, count=256):
    """Random-simulation refutation of a candidate key.

    Evaluates the locked netlist directly with the key bits pinned as
    constant words — no keyed-circuit rebuild, so the compiled engines
    of both the original and the locked netlist are reused across the
    many candidates :func:`complete_partial_key` tries.
    """
    words, mask, orig_out = _refutation_stimulus(locked, count)
    full = dict(words)
    for k in locked.key_inputs:
        full[k] = mask if key.get(k) else 0
    keyed_out = locked.circuit.compiled().evaluate(full, mask, outputs_only=True)
    return any(orig_out[o] ^ keyed_out[o] for o in locked.original.outputs)


def _is_functional(locked, key, max_conflicts, time_limit):
    """Does ``key`` provably unlock the circuit?  True/False/None."""
    # Cheap refutation first: random simulation.
    if _random_refutes(locked, key):
        return False
    keyed = locked.with_key(key)
    verdict, _ = check_equivalent(
        locked.original, keyed, max_conflicts=max_conflicts, time_limit=time_limit
    )
    return verdict


def score_key(locked, guess, max_conflicts=200_000, time_limit=30.0):
    """Score a (possibly partial) key guess against a LockedCircuit.

    ``guess`` maps key-input name -> bool, with undeciphered bits either
    absent or ``None``.
    """
    names = list(locked.key_inputs)
    total = len(names)
    guess = guess or {}
    decided = {k: v for k, v in guess.items() if v is not None and k in set(names)}
    dk = len(decided)
    raw_matches = sum(
        1 for k, v in decided.items() if bool(v) == bool(locked.correct_key[k])
    )
    exact = dk == total and raw_matches == total

    functional = None
    cdk = raw_matches
    if dk == total:
        if exact:
            functional = True
        else:
            functional = _is_functional(locked, decided, max_conflicts, time_limit)
        if functional:
            cdk = total
    return KeyScore(
        total=total, dk=dk, cdk=cdk, functional=functional, exact_match=exact
    )


def complete_partial_key(
    locked, guess, max_missing=8, max_conflicts=100_000, time_limit=60.0
):
    """Try to complete a partial key by searching the undecided bits.

    Returns ``(key, attempts)`` with a proven-functional complete key, or
    ``(None, attempts)``.  Refuses when more than ``max_missing`` bits are
    undecided.  ``time_limit`` (float seconds or a
    :class:`repro.budget.Deadline`) bounds the whole search: every
    candidate's proof draws on the same deadline.
    """
    names = list(locked.key_inputs)
    decided = {k: v for k, v in (guess or {}).items() if v is not None}
    missing = [k for k in names if k not in decided]
    if len(missing) > max_missing:
        return None, 0
    deadline = Deadline.of(time_limit)
    attempts = 0
    for value in range(1 << len(missing)):
        candidate = dict(decided)
        for i, k in enumerate(missing):
            candidate[k] = bool((value >> i) & 1)
        attempts += 1
        verdict = _is_functional(locked, candidate, max_conflicts, deadline)
        if verdict is True:
            return candidate, attempts
        if deadline.expired():
            break
    return None, attempts
