"""Canonical per-cell record schema shared by every campaign backend.

Both ways of running cells — the in-process serial runner and the
durable work queue (whose workers may run a cell in a killable child
under ``cell_timeout``) — emit the *same* record shape through
:func:`make_cell_record`, and every
loader goes through :func:`validate_cell_record` before trusting a file
on disk.  One shape means resume, ``status``, ``report``, aggregation
and the fault-injection suite never have to special-case who produced a
record.

The canonical fields, always present::

    artifact      str   artifact the cell belongs to
    params        dict  the cell's expansion parameters
    status        str   "ok" | "error" | "timeout" | "poisoned"
    result        any   the cell function's return value (None unless ok)
    error         str?  traceback / diagnostic text (None for ok)
    elapsed       float wall-clock seconds spent on this attempt
    pid           int   process that executed (or last touched) the cell
    prep          dict  per-cell preparation-cache counter deltas
    timed_out     bool  accounting flag (status=="timeout", or overran a
                        configured cell_timeout while still finishing)
    cell_timeout  float|None  the hard limit in force when the record
                        was written (None = no hard limit)

Optional, backend-specific extras (preserved by validation):

    circuit       dict  circuit provenance ({id, source, digest} from
                        :mod:`repro.corpus`) when the cell prepared one
    cell_id       str   stable cell identity (set when persisted)
    worker        str   queue worker id that produced the record
    attempt       int   1-based claim number that produced the record
    failures      list  quarantine forensics: one entry per failed
                        attempt ({worker, attempt, error, time})
    job           str   owning ``repro serve`` job id, when the cell was
                        enqueued by a service job rather than a direct
                        campaign run

``status`` semantics:

* ``ok``       — the cell ran to completion; ``result`` feeds aggregation.
* ``timeout``  — killed at ``cell_timeout``; terminal (resume skips it).
* ``poisoned`` — quarantined after repeated failures; terminal.
* ``error``    — a failed attempt; **not** terminal: resume and the
  queue re-run it (the persisted record is crash forensics, not a
  completion marker).
"""

from __future__ import annotations

import os

__all__ = [
    "CELL_STATUSES",
    "TERMINAL_STATUSES",
    "RETRYABLE_STATUSES",
    "make_cell_record",
    "validate_cell_record",
    "deterministic_view",
]

#: Every status a cell record may carry.
CELL_STATUSES = ("ok", "error", "timeout", "poisoned")

#: Statuses that count as "this cell is done" for resume/aggregation.
#: ``error`` is deliberately absent: an error record documents a failed
#: attempt but leaves the cell pending.
TERMINAL_STATUSES = ("ok", "timeout", "poisoned")

#: Statuses ``repro campaign retry`` may requeue.
RETRYABLE_STATUSES = ("error", "timeout", "poisoned")

#: Fields every canonical record carries.
_REQUIRED = (
    "artifact", "params", "status", "result", "error", "elapsed", "pid",
    "prep", "timed_out", "cell_timeout",
)


def make_cell_record(*, artifact, params, status, result=None, error=None,
                     elapsed=0.0, pid=None, prep=None, timed_out=False,
                     cell_timeout=None, circuit=None, cell_id=None,
                     worker=None, attempt=None, failures=None, job=None):
    """Build one canonical cell record (see the module docstring)."""
    if status not in CELL_STATUSES:
        raise ValueError(f"unknown cell status {status!r}")
    record = {
        "artifact": str(artifact),
        "params": dict(params),
        "status": status,
        "result": result,
        "error": error,
        "elapsed": float(elapsed),
        "pid": int(os.getpid() if pid is None else pid),
        "prep": dict(prep or {}),
        "timed_out": bool(timed_out),
        "cell_timeout": None if cell_timeout is None else float(cell_timeout),
    }
    if circuit is not None:
        record["circuit"] = dict(circuit)
    if cell_id is not None:
        record["cell_id"] = str(cell_id)
    if worker is not None:
        record["worker"] = str(worker)
    if attempt is not None:
        record["attempt"] = int(attempt)
    if failures is not None:
        record["failures"] = list(failures)
    if job is not None:
        record["job"] = str(job)
    return record


#: Record-level fields that vary run-to-run (timing, process identity,
#: scheduling provenance) and must be ignored when comparing two runs of
#: the same cell for bit-identity.
#: Fields stripped by :func:`deterministic_view`.  ``cell_timeout`` is
#: enforcement *configuration* (a daemon may impose a global limit a
#: direct run does not); the run-invariant consequence of a limit is
#: the ``status``/``timed_out`` pair, which stays in the view.
_VOLATILE_FIELDS = (
    "elapsed", "pid", "prep", "worker", "attempt", "failures", "job",
    "cell_id", "cell_timeout",
)

#: Keys inside ``result["attack"]`` (an ``AttackResult.as_dict()``) that
#: are pure functions of the inputs; everything else — elapsed time,
#: solver-internal timing details — is dropped from the view.
_DETERMINISTIC_ATTACK_KEYS = (
    "attack", "technique", "circuit", "key", "success", "timed_out",
    "time_limit", "iterations", "oracle_queries",
)


def deterministic_view(record):
    """Project a cell record onto its run-invariant fields.

    Two runs of the same cell — direct campaign vs. service job, serial
    vs. queue, cold vs. warm prep — must agree exactly on this
    view; wall-clock, pids, worker identity and job provenance are
    stripped.  Used by the bit-identity tests and the ``serve-smoke``
    comparison against a direct ``repro campaign run``.
    """
    view = {k: v for k, v in record.items() if k not in _VOLATILE_FIELDS}
    result = view.get("result")
    if isinstance(result, dict):
        result = {k: v for k, v in result.items() if k != "elapsed"}
        attack = result.get("attack")
        if isinstance(attack, dict):
            result["attack"] = {
                k: attack.get(k) for k in _DETERMINISTIC_ATTACK_KEYS
            }
        view["result"] = result
    return view


def validate_cell_record(record):
    """Return the record normalized to the canonical shape, or ``None``.

    Tolerates records written before the schema was unified (missing
    ``prep``/``timed_out``/``cell_timeout`` get their defaults) but
    rejects anything structurally unusable — wrong types, unknown
    status, an ``ok`` record with no result — so loaders treat such
    files exactly like corrupt/truncated ones: not done, recompute.
    """
    if not isinstance(record, dict):
        return None
    status = record.get("status")
    if status not in CELL_STATUSES:
        return None
    if not isinstance(record.get("artifact"), str):
        return None
    if not isinstance(record.get("params"), dict):
        return None
    if status == "ok" and record.get("result") is None:
        return None
    elapsed = record.get("elapsed", 0.0)
    if not isinstance(elapsed, (int, float)) or elapsed < 0:
        return None
    normalized = dict(record)
    normalized["result"] = record.get("result")
    normalized["error"] = record.get("error")
    normalized["elapsed"] = float(elapsed)
    normalized["pid"] = int(record.get("pid") or 0)
    prep = record.get("prep")
    normalized["prep"] = dict(prep) if isinstance(prep, dict) else {}
    normalized["timed_out"] = bool(record.get("timed_out", status == "timeout"))
    cell_timeout = record.get("cell_timeout")
    normalized["cell_timeout"] = (
        float(cell_timeout) if isinstance(cell_timeout, (int, float)) else None
    )
    return normalized
