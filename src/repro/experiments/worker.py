"""Queue-draining campaign workers.

Two entry points share this module:

* :func:`run_queue_backend` — the parent side of every parallel or
  hard-timeout ``repro campaign run``: enqueues the cells to run,
  spawns ``spec.workers`` local worker processes (which retire if the
  parent dies), respawns any that die (fault injection, OOM, SIGKILL),
  and returns once the queue is fully drained with every task's record
  published and audited.
* :func:`worker_loop` — one worker's life: claim a lease, run the cell,
  publish its canonical JSON record, ack; on failure report to the
  queue (retry with backoff, or quarantine).  ``repro worker <dir>``
  runs exactly this against any campaign directory, so extra processes
  — or other hosts mounting the same storage — can join a drain at any
  time.

With ``cell_timeout`` set, a worker runs each cell in its own killable
child process (:func:`_run_cell_killable`).

Crash-window recovery, by construction:

* died mid-cell            -> lease expires, cell requeued, rerun
* died before publish      -> same (no record, rerun)
* died after publish,      -> next claimer finds the published record
  before ack                  and acks without re-running (no duplicate
                              work, no duplicate rows)
* record torn/corrupt      -> queue audit requeues the cell
* stale worker (lost lease) -> its publish is byte-equivalent by
  determinism; its ack/fail are lease-guarded no-ops
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time
import traceback
import uuid

from . import campaign as _campaign
from . import faultinject
from .queue import CellQueue, QueueCorruption
from .records import make_cell_record

__all__ = [
    "default_worker_id",
    "worker_loop",
    "run_queue_backend",
    "publish_quarantine_records",
    "spawn_fleet_worker",
]


def default_worker_id():
    """A fleet-unique worker identity (host + pid + nonce)."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def _pool_context(spec):
    if spec.mp_context:
        return multiprocessing.get_context(spec.mp_context)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _kill_process(proc):
    """Terminate a process, escalating to SIGKILL if it lingers.

    A no-op on a process that already exited.
    """
    proc.terminate()
    proc.join(1.0)
    if proc.is_alive():
        proc.kill()
        proc.join(1.0)


#: Sentinel the cell child sends the moment it starts executing the
#: payload, so the parent bills ``cell_timeout`` against cell work, not
#: process bootstrap (interpreter start + imports under spawn contexts).
_CELL_STARTED = "__cell_started__"

#: Extra allowance for process bootstrap before the started sentinel
#: arrives; a child hung in imports is still killed, just not a healthy
#: spawn-context child that spent seconds booting.
_BOOT_GRACE_S = 30.0

#: Sentinel for "the cell child's pipe is closed and empty" — the child
#: exited (or was SIGKILLed) without sending a record.  Distinct from
#: ``None`` ("no message yet") so a crash is classified the moment the
#: pipe closes instead of hinging on a grace-poll race.
_PIPE_CLOSED = "__pipe_closed__"


def _run_cell_child(payload, conn):
    """Killable cell child entry point: run the cell, pipe the record."""
    conn.send(_CELL_STARTED)
    conn.send(_campaign._run_cell_payload(payload))
    conn.close()


def _wait_message(conn, timeout):
    """Next message within ``timeout`` s, ``None``, or ``_PIPE_CLOSED``."""
    if not conn.poll(timeout):
        return None
    try:
        return conn.recv()
    except EOFError:
        return _PIPE_CLOSED


def _run_cell_killable(spec, payload):
    """Run one cell in a killable child process under ``spec.cell_timeout``.

    The budget starts when the child reports ``_CELL_STARTED`` (bootstrap
    gets ``_BOOT_GRACE_S`` on top).  A cell still running at the limit
    is killed (SIGTERM, then SIGKILL) and replaced by a
    ``status="timeout"`` record; a child that dies without a record
    (SIGKILL, OOM, segfault) yields a retryable ``status="error"`` crash
    record.  Returns the raw record (not yet finalized).
    """
    artifact, params, _options = payload
    ctx = _pool_context(spec)
    limit = spec.cell_timeout
    conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_run_cell_child, args=(payload, child_conn))
    proc.daemon = True
    proc.start()
    child_conn.close()
    started = time.monotonic()
    try:
        message = _wait_message(conn, limit + _BOOT_GRACE_S)
        if message == _CELL_STARTED:
            started = time.monotonic()
            message = _wait_message(conn, limit)
        timed_out = message is None
        if timed_out:
            _kill_process(proc)
            # A cell that finished in the kill window keeps its real
            # record (finalize marks it timed_out by elapsed).
            message = _wait_message(conn, 0)
        proc.join(5.0)
        if isinstance(message, dict):
            return message
        return make_cell_record(
            artifact=artifact, params=params,
            status="timeout" if timed_out else "error",
            error=None if timed_out else (
                f"cell worker died without a result (exitcode {proc.exitcode})"
            ),
            elapsed=time.monotonic() - started, pid=proc.pid,
            timed_out=timed_out, cell_timeout=limit,
        )
    finally:
        _kill_process(proc)
        conn.close()


def _record_path(spec, cell_id):
    return os.path.join(spec.cells_dir, f"{cell_id}.json")


def _terminal_record_loader(spec):
    """cell_id -> finished record (ok/timeout/poisoned) or None."""

    def load(cell_id):
        return _campaign._load_cell_record(_record_path(spec, cell_id))

    return load


class _LeaseHeartbeat(threading.Thread):
    """Extends one claimed lease until stopped (its own DB connection).

    A worker alive but slow on a long cell must not lose its lease; a
    worker that dies takes this daemon thread with it, the heartbeats
    stop, and the lease expires — which is the whole recovery story.
    """

    daemon = True

    def __init__(self, directory, config, cell_id, worker_id):
        super().__init__(name=f"lease-heartbeat-{cell_id[:32]}")
        self._directory = directory
        self._config = config
        self._cell_id = cell_id
        self._worker_id = worker_id
        self._halt = threading.Event()

    def run(self):
        queue = CellQueue(self._directory, self._config)
        try:
            while not self._halt.wait(self._config.heartbeat_period):
                if not queue.heartbeat(self._cell_id, self._worker_id):
                    break  # lease lost; nothing left to extend
        except QueueCorruption:
            pass  # the orchestrator rebuilds; dying quietly is correct
        finally:
            queue.close()

    def stop(self):
        self._halt.set()
        self.join(timeout=5.0)


def _publish(spec, record, cell_id, worker_id, attempt, job=None):
    """Finalize + atomically publish one record, with fault hooks."""
    record = _campaign.finalize_cell_record(
        record, cell_id, cell_timeout=spec.cell_timeout
    )
    record["worker"] = worker_id
    record["attempt"] = int(attempt)
    if job is not None:
        record["job"] = str(job)
    path = _record_path(spec, cell_id)
    faultinject.crash_point("before_publish", cell_id, attempt)
    _campaign._atomic_write_json(path, record)
    faultinject.torn_record_point(path, cell_id, attempt)
    faultinject.crash_point("after_publish", cell_id, attempt)
    return record


def _quarantine_record(spec, task):
    """Build the poisoned record from a task's preserved failures."""
    failures = list(task.failures)
    details = "\n\n".join(
        f"--- attempt {f.get('attempt', '?')} "
        f"(worker {f.get('worker', '?')}):\n{f.get('error', '')}"
        for f in failures
    )
    return make_cell_record(
        artifact=task.artifact,
        params=task.params,
        status="poisoned",
        error=(
            f"quarantined after {task.attempts} failed claims:\n{details}"
        ),
        cell_timeout=spec.cell_timeout,
        cell_id=task.cell_id,
        attempt=task.attempts,
        failures=failures,
        job=task.job,
    )


def publish_quarantine_records(spec, queue, cell_ids=None):
    """Persist a poisoned record for quarantined tasks that lack one.

    Covers quarantines nobody was alive to publish (a lease that
    expired past ``max_attempts`` under a dead worker).  Skips tasks
    that somehow acquired a valid terminal record (e.g. a stale worker
    eventually succeeded): the published result wins over the verdict.
    """
    loader = _terminal_record_loader(spec)
    published = []
    for task in queue.tasks(state="poisoned"):
        if cell_ids is not None and task.cell_id not in cell_ids:
            continue
        if loader(task.cell_id) is not None:
            continue
        record = _campaign.finalize_cell_record(
            _quarantine_record(spec, task), task.cell_id,
            cell_timeout=spec.cell_timeout,
        )
        _campaign._atomic_write_json(_record_path(spec, task.cell_id), record)
        published.append(task.cell_id)
    return published


def _process_task(spec, queue, config, task, worker_id):
    """Run one claimed task to an ack/fail; returns the outcome label.

    Both ``queue.ack`` sites are lease-guarded: a worker whose lease
    expired under it (and whose cell was reclaimed) gets ``False`` back,
    and its outcome is reported as ``"stale"`` — the published record is
    byte-equivalent by determinism, but the completion belongs to the
    live claimant, so a stale worker must not count it as its own.
    """
    cell_id = task.cell_id
    attempt = task.attempts
    # Exported so fault hooks and attempt-aware cells (selftest) see the
    # claim number without plumbing it through every call layer.
    os.environ["REPRO_CELL_ATTEMPT"] = str(attempt)
    try:
        existing = _campaign._load_cell_record(_record_path(spec, cell_id))
        if existing is not None:
            # Crash-after-publish/before-ack recovery: the work is done
            # and persisted; just settle the ledger.
            if not queue.ack(cell_id, worker_id, existing["status"]):
                return "stale"
            return "recovered"
        stalled = faultinject.stall_point(cell_id, attempt)
        heartbeat = None
        if not stalled:
            heartbeat = _LeaseHeartbeat(
                spec.directory, config, cell_id, worker_id
            )
            heartbeat.start()
        try:
            options = (task.options if task.options is not None
                       else spec.options)
            payload = (task.artifact, task.params, options)
            try:
                if spec.cell_timeout is not None:
                    record = _run_cell_killable(spec, payload)
                else:
                    record = _campaign._run_cell_payload(payload)
            except Exception:
                # Infrastructure failure (spawn failure, prep-store read
                # error, pipe EOF...): retryable, never fatal to the
                # worker loop.
                outcome = queue.fail(
                    cell_id, worker_id,
                    f"infrastructure failure on worker {worker_id}:\n"
                    + traceback.format_exc(),
                )
                if outcome == "poisoned":
                    publish_quarantine_records(spec, queue, [cell_id])
                return outcome
            if record["status"] in ("ok", "timeout"):
                _publish(spec, record, cell_id, worker_id, attempt,
                         job=task.job)
                if not queue.ack(cell_id, worker_id, record["status"]):
                    return "stale"
                return record["status"]
            # status == "error": a failed attempt — let the queue decide
            # between backoff-retry and quarantine.
            outcome = queue.fail(cell_id, worker_id, record["error"])
            if outcome == "poisoned":
                publish_quarantine_records(spec, queue, [cell_id])
            return outcome
        finally:
            if heartbeat is not None:
                heartbeat.stop()
    finally:
        os.environ.pop("REPRO_CELL_ATTEMPT", None)


def worker_loop(spec, worker_id=None, max_cells=None, config=None,
                progress=None, exit_when_drained=True, should_stop=None,
                populate=True):
    """Drain the campaign's queue until empty (or ``max_cells`` claims).

    Safe to run concurrently with any number of other workers, locally
    or from other hosts sharing the campaign directory.  Returns a
    small outcome histogram.

    ``populate`` first enqueues the spec's whole grid (what a standalone
    ``repro worker`` joining a campaign needs); fleet workers skip it,
    because their parent already enqueued the cells this run computes.

    With ``exit_when_drained=False`` the worker outlives the drain and
    keeps polling for new tasks — the shape a ``repro serve`` fleet
    worker runs in, where jobs arrive at any time.  ``should_stop`` is
    an optional callable checked between claims (e.g. an orphan check
    against the supervising daemon's pid).
    """
    worker_id = worker_id or default_worker_id()
    config = config or spec.queue_config()
    queue = CellQueue(spec.directory, config)
    stats = {"worker": worker_id, "claimed": 0}
    try:
        if populate:
            queue.ensure(_campaign.expand_cells(spec),
                         _terminal_record_loader(spec))
        while True:
            if should_stop is not None and should_stop():
                stats["stopped"] = True
                break
            if max_cells is not None and stats["claimed"] >= max_cells:
                break
            try:
                task = queue.claim(worker_id)
            except QueueCorruption:
                # The orchestrator (or next `campaign run`) rebuilds the
                # queue from the records; this worker just retires.
                stats["corrupt"] = True
                break
            if task is None:
                if exit_when_drained and queue.drained():
                    break
                time.sleep(config.poll)
                continue
            stats["claimed"] += 1
            outcome = _process_task(spec, queue, config, task, worker_id)
            stats[outcome] = stats.get(outcome, 0) + 1
            if progress is not None:
                progress(
                    f"[{outcome}] {task.cell_id} "
                    f"(attempt {task.attempts}, worker {worker_id})"
                )
    finally:
        queue.close()
    return stats


def _install_sigterm_exit():
    """Make SIGTERM raise SystemExit so ``finally`` blocks run.

    A worker killed by its supervisor mid-cell must still tear down the
    per-cell hard-timeout child it spawned; the default SIGTERM
    disposition skips every ``finally``, leaking the child.
    """
    def _exit(signum, frame):
        raise SystemExit(143)

    try:
        signal.signal(signal.SIGTERM, _exit)
    except (ValueError, OSError):
        pass  # non-main thread or exotic platform: keep the default


def _worker_entry(spec_data, worker_id, parent_pid, exit_when_drained=True):
    """Fleet worker process target (picklable): retire if orphaned.

    Campaign fleet workers exit once the queue drains; ``repro serve``
    workers pass ``exit_when_drained=False`` and poll for new jobs.
    Either way the worker watches its parent's pid between claims and
    retires once the parent is gone, so a SIGKILLed campaign or daemon
    cannot leave workers draining (and racing a later resume) behind.
    """
    _install_sigterm_exit()
    spec = _campaign.CampaignSpec.from_dict(spec_data)
    worker_loop(
        spec, worker_id=worker_id, exit_when_drained=exit_when_drained,
        should_stop=lambda: os.getppid() != parent_pid, populate=False,
    )


def spawn_fleet_worker(spec, name, exit_when_drained=True):
    """Start one fleet worker process, identified as ``<name>-<our pid>``.

    NOT daemonic: a daemonic process cannot spawn the killable cell
    child (``_run_cell_killable``), which turned every ``cell_timeout``
    cell into a poisoned "daemonic processes are not allowed to have
    children" failure.  Orphan prevention is the supervisor's
    :func:`_kill_process` on exit plus the worker's parent-pid check.
    """
    proc = _pool_context(spec).Process(
        target=_worker_entry,
        args=(spec.to_dict(), f"{name}-{os.getpid()}", os.getpid(),
              exit_when_drained),
    )
    proc.start()
    return proc


def _open_queue(spec, cells, config, hold=()):
    """Open + populate the queue, rebuilding once if it is corrupt.

    Cancelled tasks among ``cells`` go back to pending; pending tasks of
    the ``hold`` cells are cancelled.
    """
    loader = _terminal_record_loader(spec)
    wanted = {cell.cell_id for cell in cells}
    for _attempt in range(2):
        queue = CellQueue(spec.directory, config)
        try:
            queue.ensure(cells, loader)
            queue.reset([task.cell_id
                         for task in queue.tasks(state="cancelled")
                         if task.cell_id in wanted])
            if hold:
                queue.cancel(cell_ids=hold)
            return queue
        except QueueCorruption:
            queue.close()
            CellQueue.destroy(spec.directory)
    raise _campaign.CampaignError(
        f"campaign {spec.name!r}: could not initialize the work queue at "
        f"{spec.directory}"
    )


def _emit_new_records(spec, seen, progress):
    if progress is None:
        return
    for entry in sorted(os.listdir(spec.cells_dir)):
        if not entry.endswith(".json") or entry in seen:
            continue
        record = _campaign._read_cell_record(
            os.path.join(spec.cells_dir, entry)
        )
        if record is None:
            continue  # mid-publish or torn; it will come around again
        seen.add(entry)
        _campaign._report_cell(progress, record)


def run_queue_backend(spec, cells, progress=None, hold=()):
    """Drive a queue-backed campaign to full drain (parent side).

    Enqueues ``cells`` (those without a terminal record are this run's
    work), spawns ``spec.workers`` worker processes and keeps the fleet at
    strength while work remains — a worker lost to SIGKILL/fault
    injection is respawned, its leased cell recovered via TTL expiry.
    Completion requires the queue to be drained *and* every done task's
    record to pass audit (torn records requeue their cells).

    ``hold`` names cells this run must leave alone (``run_campaign``'s
    ``limit``): tasks an earlier, interrupted run left pending for them
    are cancelled, and the run that next wants them resets them.
    """
    config = spec.queue_config()
    loader = _terminal_record_loader(spec)
    queue = _open_queue(spec, cells, config, hold)
    n_workers = max(1, spec.workers or 1)
    # Generous but finite: quarantine bounds failures per cell, so a
    # respawn storm beyond this is a bug, not bad luck.
    respawn_cap = 8 * max(1, len(cells)) + 4 * n_workers + 16
    respawns = 0
    # Resumed cells' records predate this run; only report new ones.
    seen_records = set(os.listdir(spec.cells_dir))

    workers = [spawn_fleet_worker(spec, f"local-{i + 1}")
               for i in range(n_workers)]
    try:
        while True:
            _emit_new_records(spec, seen_records, progress)
            drained = False
            try:
                if queue.drained():
                    drained = True
                    publish_quarantine_records(spec, queue)
                    if queue.audit(loader):
                        # Torn/corrupt records came back as pending:
                        # the fleet must re-run them.
                        drained = False
                    elif not any(proc.is_alive() for proc in workers):
                        # Final only once every worker has retired: a
                        # stale straggler (expired lease) may still
                        # overwrite a record after this audit, so the
                        # drain cannot be declared while one lives.
                        for proc in workers:
                            proc.join()
                        break
            except QueueCorruption:
                queue.close()
                CellQueue.destroy(spec.directory)
                queue = _open_queue(spec, cells, config, hold)
                drained = False
            if not drained:
                # Work remains: keep the fleet at strength.  (While
                # drained we deliberately let exited workers lie —
                # respawning them would churn claim-nothing processes
                # against the straggler wait above.)
                for i, proc in enumerate(workers):
                    if not proc.is_alive():
                        proc.join()
                        respawns += 1
                        if respawns > respawn_cap:
                            raise _campaign.CampaignError(
                                f"campaign {spec.name!r}: queue workers "
                                f"restarted {respawns} times without "
                                "draining the queue; giving up"
                            )
                        workers[i] = spawn_fleet_worker(
                            spec, f"local-{n_workers + respawns}"
                        )
            time.sleep(config.poll)
        _emit_new_records(spec, seen_records, progress)
    finally:
        for proc in workers:
            _kill_process(proc)
        queue.close()
