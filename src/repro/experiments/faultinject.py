"""Deterministic, env-gated fault injection for campaign backends.

The durable work queue's correctness contract — no stranded leases, no
duplicated cells, aggregates bit-identical to a no-fault serial run — is
only worth claiming if it is *exercised*.  This module plants hook
points ("sites") along the worker's execution path; each site fires with
a configured probability, decided by a **pure hash** of
``(seed, site, cell, attempt)`` so a fault schedule is reproducible
across runs and independent of scheduling order.

Sites and their gates (all off unless the env var is set):

``mid_cell``
    ``REPRO_FAULT_KILL_RATE`` — SIGKILL the executing process the moment
    the cell payload starts (a worker dying mid-cell; exercises lease
    expiry + requeue, or crash-record classification of the killable
    cell child under ``cell_timeout``).
``before_publish``
    ``REPRO_FAULT_CRASH_BEFORE_PUBLISH_RATE`` — SIGKILL after the cell
    ran but before its record landed (work lost; the retry must rerun).
``after_publish``
    ``REPRO_FAULT_CRASH_AFTER_PUBLISH_RATE`` — SIGKILL after the record
    landed but before the queue ack (the next claimer must recognise the
    published record and ack without re-running).
``torn_record``
    ``REPRO_FAULT_TORN_RECORD_RATE`` — overwrite the just-published
    record with truncated JSON (a torn write on an exotic filesystem;
    the queue audit must requeue the cell).
``stall``
    ``REPRO_FAULT_STALL_RATE`` + ``REPRO_FAULT_STALL_S`` — sleep while
    holding a fresh claim so the lease expires under a live worker
    (exercises the lease-expiry race: stale publish/ack must be benign).

Shared knobs:

``REPRO_FAULT_SEED``
    Base seed for the decision hash (default ``0``).
``REPRO_FAULT_MAX_ATTEMPT``
    Only attempts ``<=`` this value are eligible (default ``1``).  With
    the default, every cell suffers at most one injected fault per site
    and its retry budget always exceeds the injected-failure count, so a
    faulted queue campaign provably converges to the no-fault aggregate
    instead of quarantining cells at random.

The current attempt number is read from ``REPRO_CELL_ATTEMPT`` (set by
the queue worker around each claim; absent means attempt 1), so hooks
buried in shared code paths need no plumbing.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time

__all__ = [
    "FAULT_SITES",
    "enabled",
    "should_fire",
    "crash_point",
    "stall_point",
    "torn_record_point",
    "current_attempt",
]

#: site -> env var holding its firing probability.
FAULT_SITES = {
    "mid_cell": "REPRO_FAULT_KILL_RATE",
    "before_publish": "REPRO_FAULT_CRASH_BEFORE_PUBLISH_RATE",
    "after_publish": "REPRO_FAULT_CRASH_AFTER_PUBLISH_RATE",
    "torn_record": "REPRO_FAULT_TORN_RECORD_RATE",
    "stall": "REPRO_FAULT_STALL_RATE",
}


def _rate(site):
    try:
        return float(os.environ.get(FAULT_SITES[site], "") or 0.0)
    except ValueError:
        return 0.0


def enabled():
    """True when any fault site has a non-zero rate configured."""
    return any(_rate(site) > 0.0 for site in FAULT_SITES)


def current_attempt():
    """The 1-based attempt number of the claim being executed."""
    try:
        return max(1, int(os.environ.get("REPRO_CELL_ATTEMPT", "1") or 1))
    except ValueError:
        return 1


def _max_attempt():
    try:
        return max(1, int(os.environ.get("REPRO_FAULT_MAX_ATTEMPT", "1") or 1))
    except ValueError:
        return 1


def _chance(site, key, attempt):
    """Deterministic uniform draw in [0, 1) for one (site, cell, attempt)."""
    seed = os.environ.get("REPRO_FAULT_SEED", "0")
    digest = hashlib.sha256(
        f"{seed}|{site}|{key}|{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def should_fire(site, key, attempt=None):
    """Decide (purely, reproducibly) whether a site fires for a cell."""
    rate = _rate(site)
    if rate <= 0.0:
        return False
    if attempt is None:
        attempt = current_attempt()
    if attempt > _max_attempt():
        return False
    return _chance(site, key, attempt) < rate


def crash_point(site, key, attempt=None):
    """SIGKILL the current process if the site fires (no cleanup runs)."""
    if should_fire(site, key, attempt):
        os.kill(os.getpid(), signal.SIGKILL)


def stall_point(key, attempt=None):
    """Sleep ``REPRO_FAULT_STALL_S`` if the stall site fires.

    Returns True when a stall happened, so callers can skip starting the
    lease heartbeat and genuinely lose the lease.
    """
    if not should_fire("stall", key, attempt):
        return False
    try:
        stall_s = float(os.environ.get("REPRO_FAULT_STALL_S", "0") or 0.0)
    except ValueError:
        stall_s = 0.0
    if stall_s > 0:
        time.sleep(stall_s)
    return True


def torn_record_point(path, key, attempt=None):
    """Truncate a just-published record if the torn-record site fires."""
    if not should_fire("torn_record", key, attempt):
        return False
    with open(path, "w") as handle:
        handle.write('{"status": "ok", "result"')
    return True
