"""Attack-campaign orchestrator.

A *campaign* regenerates one or more paper artifacts (Tables I-V,
Fig. 6, the Valkyrie-style census) from a declarative
:class:`CampaignSpec`.  The spec expands into a grid of independent
*cells* — the (circuit x technique x seed/variant) units the artifact
definitions in :mod:`repro.experiments.tables` decompose into — and the
orchestrator:

* runs the pending cells one of two ways: serially in this process
  (``workers <= 1``, no ``cell_timeout``, ``backend != "queue"`` — what
  the paper-table tests and most other tests use), or through the
  durable work queue drained by a local fleet of ``workers`` processes
  (:mod:`repro.experiments.worker`) for everything else;
* persists every finished cell as one JSON record under
  ``<results_root>/<name>/cells/``, so an interrupted or killed campaign
  resumes by running only the missing cells;
* aggregates the completed grid back into the paper-style tables through
  each artifact's ``aggregate`` function over the cells in expansion
  order — the parallel path is bit-identical to the serial one by
  construction;
* enforces ``cell_timeout`` as a **hard** limit: queue workers run each
  cell in its own killable child process, a cell exceeding the budget is
  terminated (SIGTERM, then SIGKILL) and persisted as a
  ``status="timeout"`` record, and resume treats that record as
  completed-with-timeout instead of retrying the pathological cell
  forever.  Timed-out cells are excluded from aggregation, so the
  remaining rows still match the serial path bit-for-bit.

The on-disk layout of a campaign ``<name>``::

    <results_root>/<name>/spec.json        # the expanded, resolved spec
    <results_root>/<name>/cells/<id>.json  # one record per finished cell
    <results_root>/<name>/queue.sqlite     # work queue (derived state)
    <results_root>/<name>/<artifact>.txt   # rendered tables (report step)
"""

from __future__ import annotations

import json
import os
import re
import signal
import time
import traceback
from collections import namedtuple
from dataclasses import dataclass, field, asdict

from .harness import format_table, prep_stats
from .prepstore import prep_store_info
from .records import (
    RETRYABLE_STATUSES,
    TERMINAL_STATUSES,
    make_cell_record,
    validate_cell_record,
)
from .queue import CellQueue, QueueConfig, QueueCorruption, queue_path
from . import faultinject, tables

__all__ = [
    "Artifact",
    "ARTIFACTS",
    "BACKENDS",
    "CampaignSpec",
    "CampaignCell",
    "CampaignResult",
    "CampaignError",
    "expand_cells",
    "run_campaign",
    "retry_campaign",
    "campaign_status",
    "aggregate_campaign",
    "write_reports",
    "load_spec",
    "sum_prep_stats",
    "DEFAULT_RESULTS_ROOT",
]

#: Accepted ``CampaignSpec.backend`` values.  "queue" always drains the
#: durable work queue; "pool" (the default, kept so stored specs load)
#: means "serial unless ``workers > 1`` or ``cell_timeout``".
BACKENDS = ("pool", "queue")

#: Default landing zone for campaign results, next to the tracked Table I
#: reference output.
DEFAULT_RESULTS_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))),
    "benchmarks", "results", "campaigns",
)

Artifact = namedtuple("Artifact", ["name", "title", "expand", "cell", "aggregate"])


# -- selftest: campaign-plumbing diagnostic cells ----------------------
# A grid of trivially cheap cells that can be made arbitrarily slow via
# options, used by the timeout, retry and orphan tests to exercise the
# queue's failure handling without dragging real attacks in.

_SELFTEST_HEADER = ("cell", "slept(s)")


def _selftest_expand(options):
    return [{"cell": i} for i in range(int((options or {}).get("cells", 2)))]


def _selftest_cell(cell, options):
    options = options or {}
    index = cell["cell"]
    # Deterministic failure injection for the retry/quarantine suites:
    # cells in ``fail_cells`` raise on every attempt numbered below
    # ``fail_until_attempt`` (attempts are 1-based; the queue worker
    # exports the current attempt via REPRO_CELL_ATTEMPT).
    if index in set(options.get("fail_cells") or ()):
        marker_dir = options.get("fail_marker_dir")
        if marker_dir is not None:
            # Environment-dependent failure: the cell fails until someone
            # "fixes the environment" by creating fixed-<index> — the
            # scenario ``repro campaign retry`` exists for.
            if not os.path.exists(os.path.join(marker_dir, f"fixed-{index}")):
                raise RuntimeError(
                    f"selftest: injected failure (cell {index}, unfixed)"
                )
        else:
            attempt = faultinject.current_attempt()
            if attempt < int(options.get("fail_until_attempt", 10 ** 9)):
                raise RuntimeError(
                    f"selftest: injected failure "
                    f"(cell {index}, attempt {attempt})"
                )
    # Worker-death injection: cells in ``kill_cells`` SIGKILL their own
    # process on every attempt.
    if index in set(options.get("kill_cells") or ()):
        os.kill(os.getpid(), signal.SIGKILL)
    sleep_s = float(options.get("sleep_s", 0.0))
    slow = options.get("slow_cells")
    if slow is not None and index not in set(slow):
        sleep_s = 0.0
    if sleep_s:
        time.sleep(sleep_s)
    return {"row": [index, f"{sleep_s:.2f}"]}


def _selftest_aggregate(results, options):
    return _SELFTEST_HEADER, [tuple(r["row"]) for r in results]


#: Registry of runnable artifacts: the expand/cell/aggregate triple of
#: every paper table and figure in :mod:`repro.experiments.tables`.
ARTIFACTS = {
    "table1": Artifact(
        "table1", "Table I: benchmark circuit details",
        tables.table1_expand, tables.table1_cell, tables.table1_aggregate,
    ),
    "table2": Artifact(
        "table2", "Table II: OL attacks on locked ISCAS'85/ITC'99",
        tables.table2_expand, tables.table2_cell, tables.table2_aggregate,
    ),
    "table3": Artifact(
        "table3", "Table III: OG attacks on locked ISCAS'85/ITC'99",
        tables.table3_expand, tables.table3_cell, tables.table3_aggregate,
    ),
    "table4": Artifact(
        "table4", "Table IV: OL attacks on Gen-Anti-SAT locked circuits",
        tables.table4_expand, tables.table4_cell, tables.table4_aggregate,
    ),
    "table5": Artifact(
        "table5", "Table V: HeLLO: CTF'22 SFLL circuits",
        tables.table5_expand, tables.table5_cell, tables.table5_aggregate,
    ),
    "fig6": Artifact(
        "fig6", "Fig. 6: KRATT run-time across resynthesized c6288 variants",
        tables.fig6_expand, tables.fig6_cell, tables.fig6_aggregate,
    ),
    "valkyrie": Artifact(
        "valkyrie", "Valkyrie-style census",
        tables.valkyrie_expand, tables.valkyrie_cell, tables.valkyrie_aggregate,
    ),
    "attack": Artifact(
        "attack", "Single-attack grid (the `repro serve` job unit)",
        tables.attack_expand, tables.attack_cell, tables.attack_aggregate,
    ),
    "selftest": Artifact(
        "selftest", "Campaign self-test cells (queue diagnostics)",
        _selftest_expand, _selftest_cell, _selftest_aggregate,
    ),
}


class CampaignError(RuntimeError):
    """A campaign could not run or aggregate (bad spec, failed cells)."""


@dataclass
class CampaignSpec:
    """Declarative description of one campaign.

    ``options`` feeds every artifact's expand/cell/aggregate functions;
    recognised keys include ``scale``, ``circuits``, ``techniques``,
    ``synth_seeds``, ``variants``, ``qbf_time_limit``,
    ``baseline_time_limit``, ``ol_time_limit`` and ``og_time_limit``
    (artifacts ignore keys they do not use).

    ``cell_timeout`` (seconds) is a *hard* per-cell wall-clock limit:
    cells run in killable child processes of the queue workers and are
    terminated and recorded as ``status="timeout"`` once it elapses.
    ``None`` keeps the soft accounting-free behaviour.

    ``backend`` picks between the two ways to run cells.  ``"pool"``
    (default) runs them serially in-process unless ``workers > 1`` or
    ``cell_timeout`` is set; ``"queue"`` — and ``"pool"`` in those two
    cases — serializes cells into a durable SQLite work queue drained
    by ``workers`` local processes with lease recovery, bounded retries
    and poison-cell quarantine.  ``queue`` tunes that backend (see
    :class:`repro.experiments.queue.QueueConfig`: ``lease_ttl``,
    ``max_attempts``, ``backoff_base``, ...).
    """

    name: str
    artifacts: tuple = ("table1",)
    options: dict = field(default_factory=dict)
    workers: int = 0
    cell_timeout: float = None
    results_root: str = None
    mp_context: str = None  # "fork" | "spawn" | None = platform default
    backend: str = "pool"
    queue: dict = field(default_factory=dict)

    def __post_init__(self):
        if not re.fullmatch(r"[A-Za-z0-9._-]+", self.name or ""):
            raise CampaignError(
                f"campaign name {self.name!r} must be a filesystem-safe slug"
            )
        self.artifacts = tuple(self.artifacts)
        unknown = [a for a in self.artifacts if a not in ARTIFACTS]
        if unknown:
            raise CampaignError(
                f"unknown artifacts {unknown}; known: {sorted(ARTIFACTS)}"
            )
        if self.backend not in BACKENDS:
            raise CampaignError(
                f"unknown backend {self.backend!r}; known: {list(BACKENDS)}"
            )
        try:
            QueueConfig.from_dict(self.queue)
        except (TypeError, ValueError) as exc:
            raise CampaignError(f"bad queue config: {exc}") from None
        if self.results_root is None:
            self.results_root = DEFAULT_RESULTS_ROOT

    def queue_config(self):
        return QueueConfig.from_dict(self.queue)

    # -- persistence ---------------------------------------------------
    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        known = {
            "name", "artifacts", "options", "workers", "cell_timeout",
            "results_root", "mp_context", "backend", "queue",
        }
        unknown = set(data) - known
        if unknown:
            raise CampaignError(f"unknown spec fields: {sorted(unknown)}")
        return cls(**data)

    @property
    def directory(self):
        return os.path.join(self.results_root, self.name)

    @property
    def cells_dir(self):
        return os.path.join(self.directory, "cells")

    def grid_fingerprint(self):
        """Canonical JSON of everything that determines the cell grid and
        the meaning of persisted cell records (artifacts + options)."""
        return json.dumps(
            {"artifacts": list(self.artifacts), "options": self.options},
            sort_keys=True, default=list,
        )

    def save(self):
        os.makedirs(self.directory, exist_ok=True)
        _atomic_write_json(os.path.join(self.directory, "spec.json"),
                           self.to_dict())


def load_spec(name=None, results_root=None, path=None):
    """Load a spec from an explicit JSON file or a campaign directory."""
    if path is None:
        root = results_root or DEFAULT_RESULTS_ROOT
        path = os.path.join(root, name, "spec.json")
    try:
        with open(path) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise CampaignError(f"no campaign spec at {path}") from None
    spec = CampaignSpec.from_dict(data)
    if results_root is not None:
        spec.results_root = results_root
    return spec


@dataclass(frozen=True)
class CampaignCell:
    """One schedulable unit: an artifact cell plus its stable identity."""

    artifact: str
    index: int  # position within the artifact's expansion order
    cell_id: str
    params: dict


@dataclass
class CampaignResult:
    """Outcome of :func:`run_campaign`."""

    spec: CampaignSpec
    total: int
    ran: int
    skipped: int
    errors: list
    elapsed: float
    tables: dict = None  # artifact -> (header, rows); None while incomplete
    timeouts: list = field(default_factory=list)  # cell ids killed on timeout
    poisoned: list = field(default_factory=list)  # cell ids quarantined
    prep: dict = field(default_factory=dict)  # summed per-cell cache deltas

    @property
    def complete(self):
        return self.tables is not None

    def unwrap(self, artifact):
        """``(header, rows)`` of one artifact, or raise with cell tracebacks.

        The worker path captures per-cell exceptions into ``errors``;
        callers that want serial-style fail-loud semantics (the
        paper-table tests) go through here so the original tracebacks
        surface.
        """
        if self.errors:
            details = "\n\n".join(
                f"--- {cell_id}\n{error}" for cell_id, error in self.errors
            )
            raise CampaignError(
                f"campaign {self.spec.name!r}: {len(self.errors)} cells "
                f"failed:\n{details}"
            )
        if self.timeouts:
            raise CampaignError(
                f"campaign {self.spec.name!r}: {len(self.timeouts)} cells "
                f"were killed on cell_timeout ({self.timeouts[:5]}); the "
                "aggregate is not serial-identical"
            )
        if self.poisoned:
            raise CampaignError(
                f"campaign {self.spec.name!r}: {len(self.poisoned)} cells "
                f"are quarantined as poisoned ({self.poisoned[:5]}); the "
                "aggregate is not serial-identical (see `repro campaign "
                "retry` to requeue them)"
            )
        if not self.complete:
            raise CampaignError(
                f"campaign {self.spec.name!r} is incomplete "
                f"({self.total - self.ran - self.skipped} cells pending)"
            )
        return self.tables[artifact]

    def summary(self):
        state = "complete" if self.complete else "partial"
        line = (
            f"campaign {self.spec.name}: {state}, cells total={self.total} "
            f"ran={self.ran} skipped={self.skipped} errors={len(self.errors)} "
            f"timeouts={len(self.timeouts)} "
            f"poisoned={len(self.poisoned)} ({self.elapsed:.1f}s)"
        )
        if self.prep:
            line += (
                f"\nprep: store hits={self.prep.get('store_hits', 0)} "
                f"misses={self.prep.get('store_misses', 0)} "
                f"puts={self.prep.get('store_puts', 0)} | "
                f"L1 hits={self.prep.get('l1_hits', 0)} "
                f"misses={self.prep.get('l1_misses', 0)}"
            )
        return line


def _slug(value):
    return re.sub(r"[^A-Za-z0-9._-]+", "_", str(value))


def _cell_id(artifact, params):
    parts = [artifact] + [
        f"{k}={_slug(v)}" for k, v in sorted(params.items())
    ]
    return "--".join(parts)


def expand_cells(spec):
    """Expand the spec into its full, deterministically ordered cell grid."""
    cells = []
    seen = set()
    for artifact_name in spec.artifacts:
        artifact = ARTIFACTS[artifact_name]
        for index, params in enumerate(artifact.expand(spec.options)):
            cell_id = _cell_id(artifact_name, params)
            if cell_id in seen:
                raise CampaignError(f"duplicate cell id {cell_id!r}")
            seen.add(cell_id)
            cells.append(CampaignCell(artifact_name, index, cell_id, params))
    return cells


def _atomic_write_json(path, payload):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _read_cell_record(path):
    """Any valid canonical record on disk, or ``None``.

    Missing, truncated, corrupt, or schema-invalid files all read as
    ``None`` — a campaign killed mid-write leaves either no file (writes
    are atomic renames) or, on exotic filesystems, a truncated one.
    """
    try:
        with open(path) as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        return None
    return validate_cell_record(record)


def _load_cell_record(path):
    """A *finished* cell record, or ``None`` (cell must run again).

    ``status="timeout"`` and ``status="poisoned"`` records count as
    finished: the cell was killed at ``cell_timeout`` or quarantined
    after repeated failures — rerunning it would stall every resume pass
    on the same pathological cell (``repro campaign retry`` requeues
    them explicitly).  ``status="error"`` records are forensics from a
    failed attempt, not completion markers: the cell stays pending.
    """
    record = _read_cell_record(path)
    if record is None or record["status"] not in TERMINAL_STATUSES:
        return None
    return record


def _prep_delta(before, after):
    """Per-cell preparation-cache counter delta (both dicts flat ints)."""
    return {k: after[k] - before.get(k, 0) for k in after}


def sum_prep_stats(records):
    """Fold the ``prep`` deltas of many cell records into one total.

    Tolerates records without a ``prep`` field (pre-store campaigns,
    ``status="timeout"`` records killed before accounting) and an empty
    record list — a campaign of only timed-out cells must still report.
    """
    total = {}
    for record in records:
        for key, value in (record.get("prep") or {}).items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
    return total


def _run_cell_payload(payload):
    """Execute one cell in this process -> raw (unfinalized) record."""
    artifact_name, params, options = payload
    # Fault-injection site: a worker SIGKILLed the moment cell work
    # starts (no-op unless REPRO_FAULT_KILL_RATE is exported).
    faultinject.crash_point("mid_cell", _cell_id(artifact_name, params))
    start = time.monotonic()
    prep_before = prep_stats()
    try:
        result = ARTIFACTS[artifact_name].cell(params, options)
        status, error = "ok", None
    except Exception:
        result, status, error = None, "error", traceback.format_exc()
    # Cells that prepared a circuit report its provenance (qualified id,
    # source, content digest); lift it into the canonical record so
    # every backend persists it.
    circuit = result.get("circuit") if isinstance(result, dict) else None
    return make_cell_record(
        artifact=artifact_name,
        params=params,
        status=status,
        result=result,
        error=error,
        elapsed=time.monotonic() - start,
        prep=_prep_delta(prep_before, prep_stats()),
        circuit=circuit,
    )


def finalize_cell_record(record, cell_id, cell_timeout=None):
    """Stamp identity + timeout accounting onto a raw canonical record.

    Single exit point for both ways of running cells, so persisted
    records carry ``cell_id`` and, under a hard ``cell_timeout``, the
    ``timed_out`` flag no matter which runner produced them.
    """
    record["cell_id"] = cell_id
    if cell_timeout is not None:
        record["cell_timeout"] = cell_timeout
        record["timed_out"] = (
            record["status"] == "timeout" or record["elapsed"] > cell_timeout
        )
    return record


def _report_cell(progress, record):
    """One progress line for a finished cell record."""
    if progress is not None:
        progress(f"[{record['status']}] {record['cell_id']} "
                 f"({record['elapsed']:.2f}s, pid {record['pid']})")


def run_campaign(spec, resume=True, fresh=False, limit=None, progress=None):
    """Run (or resume) a campaign; returns a :class:`CampaignResult`.

    Parameters
    ----------
    resume:
        Skip cells whose JSON record already exists (the default).  With
        ``False`` every cell is recomputed but records are still written,
        so a later ``status``/``report`` sees a complete campaign.
    fresh:
        Delete existing cell records first (implies nothing is resumed).
    limit:
        Stop after scheduling at most this many pending cells — the hook
        the smoke tests use to manufacture partial campaigns.
    progress:
        Optional callable receiving one line per finished cell.
    """
    start = time.monotonic()
    # A campaign directory binds cell records to one grid: silently
    # reusing records computed under different options would label stale
    # numbers with the new spec.  Changing the grid needs ``fresh`` (or a
    # new campaign name).
    spec_path = os.path.join(spec.directory, "spec.json")
    if not fresh and os.path.exists(spec_path):
        try:
            stored = CampaignSpec.from_dict(json.load(open(spec_path)))
        except (ValueError, CampaignError):
            stored = None
        if stored is not None and stored.grid_fingerprint() != spec.grid_fingerprint():
            raise CampaignError(
                f"campaign {spec.name!r} already has results for a different "
                "grid (artifacts/options changed); rerun with fresh=True "
                "(--fresh) to discard them, or pick a new campaign name"
            )
    spec.save()
    os.makedirs(spec.cells_dir, exist_ok=True)
    if fresh:
        for entry in os.listdir(spec.cells_dir):
            if entry.endswith(".json"):
                os.unlink(os.path.join(spec.cells_dir, entry))
        # The queue is derived state and may hold another grid's tasks.
        CellQueue.destroy(spec.directory)

    cells = expand_cells(spec)
    todo = []
    skipped = 0
    for cell in cells:
        path = os.path.join(spec.cells_dir, f"{cell.cell_id}.json")
        if resume and not fresh and _load_cell_record(path) is not None:
            skipped += 1
            continue
        todo.append(cell)
    held_back = set()
    if limit is not None:
        held_back = {cell.cell_id for cell in todo[limit:]}
        todo = todo[:limit]

    serial = (spec.backend != "queue" and spec.cell_timeout is None
              and (spec.workers or 0) <= 1)
    if serial:
        for cell in todo:
            record = finalize_cell_record(
                _run_cell_payload((cell.artifact, cell.params, spec.options)),
                cell.cell_id,
            )
            # Every status is persisted — error records are crash forensics
            # (resume still treats them as pending and re-runs the cell).
            _atomic_write_json(
                os.path.join(spec.cells_dir, f"{cell.cell_id}.json"), record
            )
            _report_cell(progress, record)
    elif todo:
        # The local queue fleet drains the grid minus the cells ``limit``
        # holds back (finished cells are reconciled to done).  Workers
        # ack a cell whose record exists, so ``resume=False`` requeues.
        from .worker import run_queue_backend

        if not resume:
            _requeue_cells(spec, [cell.cell_id for cell in todo])
        run_queue_backend(
            spec, [cell for cell in cells if cell.cell_id not in held_back],
            progress=progress, hold=held_back,
        )

    errors, timeouts, poisoned, records = [], [], [], []
    for cell in todo:
        path = os.path.join(spec.cells_dir, f"{cell.cell_id}.json")
        record = _read_cell_record(path)
        if record is None:
            errors.append((cell.cell_id, "no valid record was published"))
            continue
        records.append(record)
        if record["status"] == "timeout":
            timeouts.append(cell.cell_id)
        elif record["status"] == "poisoned":
            poisoned.append(cell.cell_id)
        elif record["status"] == "error":
            errors.append((cell.cell_id, record["error"]))

    result = CampaignResult(
        spec=spec,
        total=len(cells),
        ran=len(todo) - len(errors),
        skipped=skipped,
        errors=errors,
        elapsed=time.monotonic() - start,
        timeouts=timeouts,
        poisoned=poisoned,
        prep=sum_prep_stats(records),
    )
    if not errors and result.ran + result.skipped == result.total:
        result.tables = aggregate_campaign(spec, cells=cells)
    return result


def campaign_status(name=None, results_root=None, spec=None):
    """Completion state of a stored campaign.

    Returns a dict with per-artifact ``done``/``total`` counts, the ids
    of pending cells, the summed per-cell preparation-cache deltas
    (``prep``), and a snapshot of the shared disk store (``store``).
    All aggregates tolerate degenerate campaigns — zero records, or
    records that are *all* ``status="timeout"`` (killed cells carry no
    ``result`` and possibly no ``prep``) — without assuming at least one
    healthy cell exists.
    """
    if spec is None:
        spec = load_spec(name, results_root=results_root)
    cells = expand_cells(spec)
    per_artifact = {a: {"done": 0, "total": 0} for a in spec.artifacts}
    pending = []
    timeouts = []
    poisoned = []
    errored = []
    records = []
    healthy = 0
    for cell in cells:
        per_artifact[cell.artifact]["total"] += 1
        path = os.path.join(spec.cells_dir, f"{cell.cell_id}.json")
        record = _read_cell_record(path)
        if record is not None and record["status"] in TERMINAL_STATUSES:
            records.append(record)
            per_artifact[cell.artifact]["done"] += 1
            if record["status"] == "timeout":
                timeouts.append(cell.cell_id)
            elif record["status"] == "poisoned":
                poisoned.append(cell.cell_id)
            else:
                healthy += 1
        else:
            # An error record is a failed attempt's forensics: the cell
            # is still pending, but surfaced separately for `retry`.
            if record is not None:
                errored.append(cell.cell_id)
                records.append(record)
            pending.append(cell.cell_id)
    status = {
        "name": spec.name,
        "directory": spec.directory,
        "artifacts": per_artifact,
        "done": len(cells) - len(pending),
        "total": len(cells),
        "healthy": healthy,
        "pending": pending,
        "timeouts": timeouts,
        "poisoned": poisoned,
        "errored": errored,
        "prep": sum_prep_stats(records),
        "store": prep_store_info(),
    }
    if os.path.exists(queue_path(spec.directory)):
        try:
            queue = CellQueue(spec.directory, spec.queue_config())
            status["queue"] = queue.counts()
            queue.close()
        except QueueCorruption:
            status["queue"] = {"corrupt": True}
    return status


def aggregate_campaign(spec, cells=None):
    """Fold every persisted cell into ``{artifact: (header, rows)}``.

    Raises :class:`CampaignError` when records are missing — aggregation
    of a partial campaign would silently drop rows.  ``status="timeout"``
    and ``status="poisoned"`` records count as completed but contribute
    no row: the surviving rows are exactly what the serial path produces
    for the healthy cells.
    """
    if cells is None:
        cells = expand_cells(spec)
    by_artifact = {}
    missing = []
    for cell in cells:
        by_artifact.setdefault(cell.artifact, [])
        path = os.path.join(spec.cells_dir, f"{cell.cell_id}.json")
        record = _load_cell_record(path)
        if record is None:
            missing.append(cell.cell_id)
            continue
        if record["status"] != "ok":
            continue
        by_artifact[cell.artifact].append(record["result"])
    if missing:
        raise CampaignError(
            f"campaign {spec.name!r} is incomplete: {len(missing)} cells "
            f"missing (first: {missing[:3]}); run `repro campaign run` to "
            "finish it"
        )
    return {
        artifact: ARTIFACTS[artifact].aggregate(results, spec.options)
        for artifact, results in by_artifact.items()
    }


def retry_campaign(spec, statuses=None):
    """Requeue finished-but-unhealthy cells of an existing campaign.

    ``resume`` deliberately treats ``timeout`` and ``poisoned`` records
    as completed so one pathological cell cannot wedge every resume
    pass; this is the explicit opt-in to run them again.  Removes the
    selected records (the next ``run_campaign`` recomputes those cells)
    and resets their queue tasks to a fresh pending state when a queue
    exists.  Returns the requeued cell ids.

    ``statuses`` selects which classes to requeue, from
    ``("error", "timeout", "poisoned")`` (default: all three).
    """
    if statuses is None:
        statuses = RETRYABLE_STATUSES
    statuses = tuple(statuses)
    unknown = [s for s in statuses if s not in RETRYABLE_STATUSES]
    if unknown:
        raise CampaignError(
            f"cannot retry statuses {unknown}; retryable: "
            f"{list(RETRYABLE_STATUSES)}"
        )
    selected = []
    for cell in expand_cells(spec):
        path = os.path.join(spec.cells_dir, f"{cell.cell_id}.json")
        record = _read_cell_record(path)
        if record is not None and record["status"] in statuses:
            selected.append(cell.cell_id)
    return _requeue_cells(spec, selected)


def _requeue_cells(spec, cell_ids):
    """Delete the cells' records and reset their queue tasks to pending.

    Returns the ids whose record was removed.  A corrupt queue is simply
    dropped: the next run rebuilds it from the spec plus the surviving
    records.
    """
    removed = []
    for cell_id in cell_ids:
        try:
            os.unlink(os.path.join(spec.cells_dir, f"{cell_id}.json"))
        except FileNotFoundError:
            continue
        removed.append(cell_id)
    if removed and os.path.exists(queue_path(spec.directory)):
        try:
            queue = CellQueue(spec.directory, spec.queue_config())
            queue.reset(removed)
            queue.close()
        except QueueCorruption:
            CellQueue.destroy(spec.directory)
    return removed


def write_reports(spec, tables_by_artifact=None):
    """Render each artifact's table to ``<dir>/<artifact>.txt``."""
    if tables_by_artifact is None:
        tables_by_artifact = aggregate_campaign(spec)
    paths = []
    for artifact_name, (header, rows) in tables_by_artifact.items():
        text = format_table(ARTIFACTS[artifact_name].title, header, rows)
        path = os.path.join(spec.directory, f"{artifact_name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        paths.append(path)
    return paths
