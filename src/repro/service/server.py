"""The ``repro serve`` daemon: HTTP API + fleet supervisor.

One :class:`AttackService` owns a *service directory* shaped exactly
like a campaign directory (``spec.json``, ``cells/``, ``queue.sqlite``)
plus the job ledger (``jobs.sqlite``) and a ``service.json`` beacon
(url + pid) for CLI discovery.  The campaign spec has an empty artifact
list — cells exist only because jobs put them there — and
``backend="queue"``, so every existing queue tool (``repro worker``,
``campaign status``, the reconciliation and audit machinery) works on a
service directory unchanged.

Job translation: a job's options expand through the ordinary artifact
registry (``ARTIFACTS[artifact].expand``), and each cell id is prefixed
with the job id, so two jobs over the same grid never collide and a
cell's record carries its provenance.  The per-task ``options`` column
on the queue carries the job's options to whichever fleet worker claims
the cell.

Restart recovery is pure derived state: ``queue.ensure`` re-enqueues
every live job's cells against the published records (the PR-6
reconciliation), deadlines that lapsed while the daemon was down
cancel their jobs' pending cells, and the job ledger is re-derived from
cells — nothing depends on the previous process's memory.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..corpus import parse_circuit_id
from ..experiments import campaign as _campaign
from ..experiments import tables as _tables
from ..experiments.campaign import ARTIFACTS, CampaignCell, CampaignSpec
from ..experiments.queue import CellQueue, QueueCorruption
from ..experiments.worker import (
    _kill_process,
    _terminal_record_loader,
    publish_quarantine_records,
    spawn_fleet_worker,
)
from .jobstore import (
    TERMINAL_JOB_STATES,
    JobStore,
    derive_job_state,
)

__all__ = [
    "SERVICE_FILENAME",
    "ServiceError",
    "AttackService",
    "expand_job_cells",
    "validate_job_request",
]

#: Discovery beacon written next to the queue (url + pid).
SERVICE_FILENAME = "service.json"

#: Supervisor tick: fleet respawn, deadline enforcement, reconcile.
_SUPERVISE_PERIOD = 0.2

#: Every N-th supervisor tick also runs the expensive audit pass.
_AUDIT_EVERY = 25

#: Why a job ended unsuccessfully, keyed by its derived state.
_STATE_ERRORS = {
    "failed": "one or more cells were quarantined (poisoned)",
    "expired": "deadline expired before all cells finished",
}


class ServiceError(ValueError):
    """A request the service must reject (HTTP 400)."""


def expand_job_cells(job):
    """A job's campaign cells: artifact expansion, job-prefixed ids."""
    artifact = ARTIFACTS[job.artifact]
    cells = []
    for index, params in enumerate(artifact.expand(job.options)):
        base = _campaign._cell_id(job.artifact, params)
        cells.append(CampaignCell(
            artifact=job.artifact, index=index,
            cell_id=f"{job.job_id}--{base}", params=params,
        ))
    return cells


def validate_job_request(payload):
    """Normalize one POST /jobs payload -> (artifact, options, deadline_s).

    The canonical job is an ``attack`` grid (circuit + technique +
    attack + key width + budget); ``artifact`` may name any registered
    artifact for operational jobs (smoke tests submit ``selftest``
    grids).  ``deadline`` is relative seconds from acceptance.
    """
    if not isinstance(payload, dict):
        raise ServiceError("job payload must be a JSON object")
    payload = dict(payload)
    artifact = payload.pop("artifact", "attack")
    if artifact not in ARTIFACTS:
        raise ServiceError(
            f"unknown artifact {artifact!r}; known: {sorted(ARTIFACTS)}"
        )
    deadline = payload.pop("deadline", None)
    if deadline is not None:
        try:
            deadline = float(deadline)
        except (TypeError, ValueError):
            raise ServiceError(f"deadline must be seconds, got {deadline!r}")
        if deadline <= 0:
            raise ServiceError("deadline must be positive seconds")
    options = payload.pop("options", {})
    if not isinstance(options, dict):
        raise ServiceError("options must be a JSON object")
    options = {**options, **payload}  # top-level keys are option sugar
    if artifact == "attack":
        _validate_attack_options(options)
    try:
        cells = ARTIFACTS[artifact].expand(options)
    except Exception as exc:
        raise ServiceError(f"job does not expand: {exc}")
    if not cells:
        raise ServiceError("job expands to zero cells")
    return artifact, options, deadline


def _validate_attack_options(options):
    """Fail fast on an attack grid the workers would only reject later."""
    for circuit in _tables._listed(options, "circuits", "circuit",
                                   "corpus:c17"):
        try:
            parse_circuit_id(circuit)
        except Exception as exc:
            raise ServiceError(f"bad circuit {circuit!r}: {exc}")
    key_width = options.get("key_width")
    if key_width is not None:
        try:
            key_width = int(key_width)
        except (TypeError, ValueError):
            raise ServiceError(f"key_width must be an int, got {key_width!r}")
        if key_width < 2:
            raise ServiceError("key_width must be >= 2")
    budget = options.get("budget")
    if budget is not None:
        try:
            budget = float(budget)
        except (TypeError, ValueError):
            raise ServiceError(f"budget must be seconds, got {budget!r}")
        if budget <= 0:
            raise ServiceError("budget must be positive seconds")


class AttackService:
    """The daemon: job API over the shared queue-draining worker fleet."""

    def __init__(self, directory, host="127.0.0.1", port=0, workers=2,
                 cell_timeout=None, queue=None, options=None,
                 mp_context=None, clock=time.time):
        directory = os.path.abspath(directory)
        self.directory = directory
        self.spec = CampaignSpec(
            name=os.path.basename(directory),
            artifacts=(),
            options=dict(options or {}),
            workers=max(0, int(workers)),
            cell_timeout=cell_timeout,
            results_root=os.path.dirname(directory),
            mp_context=mp_context,
            backend="queue",
            queue=dict(queue or {}),
        )
        self.store = JobStore(directory, clock=clock)
        self._clock = clock
        self._host = host
        self._port = int(port)
        self._loader = _terminal_record_loader(self.spec)
        self._fleet = []
        self._spawned = 0
        self._halt = threading.Event()
        self._supervisor = None
        self._httpd = None
        self._lock = threading.Lock()  # serializes queue/store mutation

    # -- lifecycle -----------------------------------------------------
    @property
    def url(self):
        if self._httpd is None:
            return None
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self):
        """Recover, bind the API, spawn the fleet, start supervising."""
        self.spec.save()
        os.makedirs(self.spec.cells_dir, exist_ok=True)
        self.recover()
        self._httpd = ThreadingHTTPServer(
            (self._host, self._port), _handler_class(self)
        )
        self._httpd.daemon_threads = True
        threading.Thread(
            target=self._httpd.serve_forever, name="service-http",
            daemon=True,
        ).start()
        self._supervisor = threading.Thread(
            target=self._supervise, name="service-supervisor", daemon=True
        )
        self._supervisor.start()
        _campaign._atomic_write_json(
            os.path.join(self.directory, SERVICE_FILENAME),
            {"url": self.url, "pid": os.getpid()},
        )
        return self.url

    def stop(self):
        """Kill the fleet and stop serving (records/queue/store persist)."""
        self._halt.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=10.0)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        for proc in self._fleet:
            _kill_process(proc)
        self._fleet = []

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    # -- recovery ------------------------------------------------------
    def recover(self):
        """Rebuild queue + job states from the store and the records.

        Works from durable state only: re-enqueues every live job's
        cells (``ensure`` reconciles against published records, so
        nothing done re-runs), cancels pending cells of jobs whose
        deadline passed while the daemon was down, and re-derives every
        live job's state.
        """
        with self._lock:
            queue = self._queue()
            try:
                for job in self.store.live_jobs():
                    queue.ensure(
                        expand_job_cells(job), self._loader,
                        job=job.job_id, options=job.options,
                    )
            finally:
                queue.close()
        self._enforce_deadlines()
        self._reconcile_jobs()

    # -- the job API ---------------------------------------------------
    def submit_job(self, payload):
        """Accept one job; returns its status dict (HTTP POST /jobs)."""
        artifact, options, deadline_s = validate_job_request(payload)
        now = self._clock()
        absolute = None if deadline_s is None else now + deadline_s
        with self._lock:
            job = self.store.submit(
                artifact, options,
                cells=[],  # placeholder; rewritten below with real ids
                deadline=absolute, now=now,
            )
            # Cell ids embed the job id, so expansion needs the id the
            # store just allocated; stash them via a second write.
            cells = expand_job_cells(job)
            job = self._set_cells(job, [c.cell_id for c in cells])
            queue = self._queue()
            try:
                queue.ensure(cells, self._loader,
                             job=job.job_id, options=job.options)
            finally:
                queue.close()
        return self.job_status(job.job_id)

    def cancel_job(self, job_id):
        """Client cancel: pending cells cancelled, job terminal."""
        job = self.store.get(job_id)
        if job is None:
            return None
        if not job.terminal:
            with self._lock:
                queue = self._queue()
                try:
                    queue.cancel(job=job_id)
                finally:
                    queue.close()
            self.store.set_state(job_id, "cancelled")
        return self.job_status(job_id)

    def job_status(self, job_id):
        """Full status for one job: state plus per-cell progress."""
        job = self.store.get(job_id)
        if job is None:
            return None
        cell_states = self._cell_states(job)
        status = job.to_dict()
        status["state"] = derive_job_state(job, cell_states)
        if status["state"] != job.state:
            # The supervisor persists the transition on its next tick;
            # a client seeing the new state must already see why.
            status["error"] = _STATE_ERRORS.get(status["state"])
        status["cell_states"] = cell_states
        counts = {}
        for state in cell_states.values():
            counts[state] = counts.get(state, 0) + 1
        status["counts"] = counts
        return status

    def jobs_status(self):
        """Summaries for every job, submission order."""
        return [self.job_status(job.job_id) for job in self.store.jobs()]

    def health(self):
        queue = self._queue()
        try:
            queue_counts = queue.counts()
        except QueueCorruption:
            queue_counts = None
        finally:
            queue.close()
        return {
            "ok": True,
            "pid": os.getpid(),
            "directory": self.directory,
            "workers": sum(1 for p in self._fleet if p.is_alive()),
            "jobs": self.store.counts(),
            "queue": queue_counts,
        }

    # -- internals -----------------------------------------------------
    def _queue(self):
        return CellQueue(self.directory, self.spec.queue_config(),
                         clock=self._clock)

    def _set_cells(self, job, cell_ids):
        """Persist a job's expanded cell list (see submit_job)."""
        with self.store._txn() as conn:
            conn.execute(
                "UPDATE jobs SET cells=? WHERE job_id=?",
                (json.dumps(list(cell_ids)), job.job_id),
            )
        return self.store.get(job.job_id)

    def _cell_states(self, job):
        """cell id -> record status (terminal) or queue task state."""
        states = {}
        queue = self._queue()
        try:
            tasks = {t.cell_id: t for t in queue.tasks(job=job.job_id)}
        except QueueCorruption:
            tasks = {}
        finally:
            queue.close()
        for cell_id in job.cells:
            record = self._loader(cell_id)
            if record is not None and record["status"] != "poisoned":
                states[cell_id] = record["status"]
                continue
            task = tasks.get(cell_id)
            if task is not None:
                states[cell_id] = task.state
            elif record is not None:
                states[cell_id] = record["status"]
            else:
                states[cell_id] = "missing"
        return states

    def _spawn_worker(self):
        self._spawned += 1
        return spawn_fleet_worker(self.spec, f"serve-{self._spawned}",
                                  exit_when_drained=False)

    def _keep_fleet(self):
        """Hold the shared fleet at ``spec.workers`` live processes."""
        target = self.spec.workers
        while len(self._fleet) < target:
            self._fleet.append(self._spawn_worker())
        for i, proc in enumerate(self._fleet):
            if not proc.is_alive():
                proc.join()
                self._fleet[i] = self._spawn_worker()

    def _enforce_deadlines(self, now=None):
        """Cancel pending cells of every job whose Deadline has expired."""
        now = self._clock() if now is None else now
        expired = []
        for job in self.store.live_jobs():
            if job.deadline is None or now < job.deadline:
                continue
            with self._lock:
                queue = self._queue()
                try:
                    queue.cancel(job=job.job_id, now=now)
                except QueueCorruption:
                    pass
                finally:
                    queue.close()
            expired.append(job.job_id)
        return expired

    def _reconcile_jobs(self):
        """Re-derive every live job's state from its cells."""
        for job in self.store.live_jobs():
            derived = derive_job_state(job, self._cell_states(job))
            if derived != job.state:
                self.store.set_state(job.job_id, derived,
                                     error=_STATE_ERRORS.get(derived))

    def _supervise(self):
        tick = 0
        while not self._halt.wait(_SUPERVISE_PERIOD):
            tick += 1
            try:
                self._keep_fleet()
                self._enforce_deadlines()
                self._reconcile_jobs()
                if tick % _AUDIT_EVERY == 0:
                    with self._lock:
                        queue = self._queue()
                        try:
                            publish_quarantine_records(self.spec, queue)
                            queue.audit(self._loader)
                        except QueueCorruption:
                            queue.close()
                            CellQueue.destroy(self.directory)
                        finally:
                            queue.close()
            except Exception:
                # The supervisor must survive transient trouble (a
                # locked DB, a half-written record); next tick retries.
                pass


def _handler_class(service):
    """A BaseHTTPRequestHandler bound to one AttackService."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):  # silence per-request stderr spam
            pass

        def _reply(self, code, payload):
            body = json.dumps(payload, sort_keys=True).encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _read_json(self):
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                return {}
            try:
                return json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ServiceError(f"request body is not JSON: {exc}")

        def do_GET(self):
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if parts == ["health"]:
                return self._reply(200, service.health())
            if parts == ["jobs"]:
                return self._reply(200, {"jobs": service.jobs_status()})
            if len(parts) == 2 and parts[0] == "jobs":
                status = service.job_status(parts[1])
                if status is None:
                    return self._reply(
                        404, {"error": f"unknown job {parts[1]!r}"}
                    )
                return self._reply(200, status)
            return self._reply(404, {"error": f"no route {self.path!r}"})

        def do_POST(self):
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            try:
                if parts == ["jobs"]:
                    return self._reply(201, service.submit_job(
                        self._read_json()
                    ))
                if (len(parts) == 3 and parts[0] == "jobs"
                        and parts[2] == "cancel"):
                    status = service.cancel_job(parts[1])
                    if status is None:
                        return self._reply(
                            404, {"error": f"unknown job {parts[1]!r}"}
                        )
                    return self._reply(200, status)
            except ServiceError as exc:
                return self._reply(400, {"error": str(exc)})
            except Exception as exc:  # defensive: surface, don't hang
                return self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
            return self._reply(404, {"error": f"no route {self.path!r}"})

    return Handler
