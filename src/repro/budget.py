"""Shared wall-clock budget accounting — the reproduction's single time source.

KRATT's headline claims are time-bounded: the paper reports OoT outcomes
and per-stage runtimes for the QBF and exhaustive-search steps, so an
honest reproduction needs one clock that every layer consults.  Before
this module each stage carried its own ``time_limit`` float and its own
``time.monotonic()`` start, which produced three distinct bugs:

* *post-hoc flagging* — a stage finished, then compared elapsed against
  the limit, so a pathological call overran its budget arbitrarily far
  before anyone noticed;
* *expired-budget grace slices* — callers computed
  ``max(0.01, limit - elapsed)`` for the next solver call, so an already
  exhausted budget kept granting 10 ms slices forever;
* *conflict-gated checks* — the CDCL solver only looked at the clock on
  conflict counters, so conflict-free instances never saw the limit.

A :class:`Deadline` replaces all of that: it is created once from the
caller's budget (``Deadline.from_limit(seconds)``), passed down through
every attack layer (every ``time_limit`` parameter in the package now
accepts a ``Deadline`` as well as legacy float seconds), and consulted
via :meth:`Deadline.remaining` / :meth:`Deadline.expired` /
:meth:`Deadline.check`.  ``AttackResult.timed_out`` and
``AttackResult.budget_used`` are therefore computed from the same
monotonic clock at every level.
"""

from __future__ import annotations

import time

__all__ = ["Deadline"]

_NEVER = float("inf")


class Deadline:
    """A monotonic wall-clock budget.

    Parameters
    ----------
    seconds:
        Budget in seconds from *now*; ``None`` means unbounded (the
        deadline never expires but still serves as the shared clock).
    clock:
        Monotonic clock to consult (injectable for deterministic tests);
        defaults to :func:`time.monotonic`.

    A ``Deadline`` with ``seconds=0`` (or negative) is born expired:
    every consumer must return its budget-exhausted result immediately
    instead of granting grace slices.
    """

    __slots__ = ("limit", "_clock", "_start", "_expires_at", "_ticks")

    def __init__(self, seconds=None, clock=None):
        self._clock = time.monotonic if clock is None else clock
        self.limit = None if seconds is None else max(0.0, float(seconds))
        self._start = self._clock()
        self._expires_at = (
            _NEVER if self.limit is None else self._start + self.limit
        )
        self._ticks = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_limit(cls, seconds, clock=None):
        """A deadline ``seconds`` from now (``None`` = unbounded)."""
        return cls(seconds, clock=clock)

    @classmethod
    def of(cls, value, clock=None):
        """Coerce ``None`` / float seconds / ``Deadline`` into a ``Deadline``.

        The threading idiom: every entry point whose ``time_limit``
        historically took float seconds calls ``Deadline.of(time_limit)``
        first, so callers can hand down one shared deadline while legacy
        call sites keep working unchanged.
        """
        if isinstance(value, Deadline):
            return value
        return cls(value, clock=clock)

    def sub(self, seconds=None):
        """A child deadline capped by this one.

        ``deadline.sub(s)`` expires at ``min(deadline, now + s)`` — the
        idiom for per-stage caps (e.g. KRATT's QBF stage) inside an
        overall attack budget.  ``sub(None)`` inherits the parent's
        expiry unchanged.
        """
        child = Deadline(seconds, clock=self._clock)
        if child._expires_at > self._expires_at:
            child._expires_at = self._expires_at
            child.limit = (
                None
                if self.limit is None
                else max(0.0, self._expires_at - child._start)
            )
        return child

    # ------------------------------------------------------------------
    # clock access
    # ------------------------------------------------------------------
    @property
    def bounded(self):
        """Whether this deadline can ever expire."""
        return self._expires_at != _NEVER

    @property
    def monotonic(self):
        """Whether this deadline reads :func:`time.monotonic` rather than
        an injected clock — so native code can time it with its own
        monotonic clock, given :meth:`remaining`."""
        return self._clock is time.monotonic

    def now(self):
        """Current reading of the underlying monotonic clock."""
        return self._clock()

    def elapsed(self):
        """Seconds since this deadline was created."""
        return self._clock() - self._start

    def remaining(self):
        """Seconds left (clamped at 0.0), or ``None`` when unbounded."""
        if not self.bounded:
            return None
        return max(0.0, self._expires_at - self._clock())

    def expired(self):
        """Whether the budget is spent (always ``False`` when unbounded)."""
        return self._clock() >= self._expires_at

    def check(self, every_n=1):
        """Amortized expiry probe for hot loops.

        Consults the clock only on every ``every_n``-th call (and never
        for unbounded deadlines); returns ``True`` once the budget is
        spent.  Detection is therefore delayed by at most ``every_n - 1``
        calls — callers pick ``every_n`` so a full stride costs well
        under their accuracy requirement.
        """
        if not self.bounded:
            return False
        self._ticks += 1
        if every_n > 1 and self._ticks % every_n:
            return False
        return self._clock() >= self._expires_at

    def __repr__(self):
        if not self.bounded:
            return f"Deadline(unbounded, elapsed={self.elapsed():.3f}s)"
        return (
            f"Deadline(limit={self.limit:.3f}s, "
            f"remaining={self.remaining():.3f}s)"
        )
