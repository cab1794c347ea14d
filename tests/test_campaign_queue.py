"""End-to-end coverage of the durable queue campaign backend.

The acceptance bar (ISSUE 6): for every injected fault schedule — worker
SIGKILL mid-cell, crash before/after publish, expired leases, torn
records — a queue-backend campaign terminates with no stranded or
duplicated cells and its aggregate is bit-identical to the no-fault
serial run; a cell failing on three distinct claims is quarantined with
its tracebacks preserved.
"""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.experiments import faultinject
from repro.experiments.campaign import (
    CampaignError,
    CampaignSpec,
    campaign_status,
    expand_cells,
    finalize_cell_record,
    load_spec,
    retry_campaign,
    run_campaign,
)
from repro.experiments.queue import CellQueue, QueueConfig, queue_path
from repro.experiments.records import deterministic_view, validate_cell_record
from repro.experiments.worker import (
    _process_task,
    _run_cell_killable,
    worker_loop,
)

#: Tuned-for-tests queue: sub-second leases so expiry-driven recovery is
#: fast, near-zero backoff so retries do not dominate wall-clock.
QUEUE_FAST = {
    "lease_ttl": 1.0,
    "max_attempts": 3,
    "backoff_base": 0.01,
    "backoff_cap": 0.05,
    "backoff_jitter": 0.0,
    "poll": 0.02,
}


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    for var in list(faultinject.FAULT_SITES.values()) + [
        "REPRO_FAULT_SEED", "REPRO_FAULT_MAX_ATTEMPT",
        "REPRO_FAULT_STALL_S", "REPRO_CELL_ATTEMPT",
    ]:
        monkeypatch.delenv(var, raising=False)


def _qspec(tmp_path, name, cells=4, workers=2, queue=None, **options):
    options.setdefault("cells", cells)
    return CampaignSpec(
        name=name,
        artifacts=("selftest",),
        options=options,
        workers=workers,
        results_root=str(tmp_path),
        mp_context="fork",
        backend="queue",
        queue=dict(QUEUE_FAST, **(queue or {})),
    )


def _serial_reference(tmp_path, cells=4, **options):
    """The no-fault serial aggregate every faulted run must reproduce."""
    spec = CampaignSpec(
        name="serial-ref",
        artifacts=("selftest",),
        options=dict(options, cells=cells),
        results_root=str(tmp_path / "serial-ref-root"),
    )
    outcome = run_campaign(spec)
    assert outcome.complete and not outcome.errors
    return outcome.tables["selftest"]


def _counts(spec):
    queue = CellQueue(spec.directory, spec.queue_config())
    counts = queue.counts()
    queue.close()
    return counts


def _assert_converged(spec, outcome, reference, cells=4):
    """Drained queue, zero stranded leases, serial-identical aggregate."""
    assert outcome.complete, outcome.summary()
    assert outcome.errors == [] and outcome.poisoned == []
    assert outcome.tables["selftest"] == reference
    counts = _counts(spec)
    assert counts["leased"] == 0 and counts["pending"] == 0
    assert counts["done"] == cells


def _record(spec, cell_id):
    with open(os.path.join(spec.cells_dir, f"{cell_id}.json")) as handle:
        return json.load(handle)


class TestQueueBackend:
    def test_matches_serial_run_bit_identically(self, tmp_path):
        reference = _serial_reference(tmp_path, cells=4)
        spec = _qspec(tmp_path, "q-clean", cells=4, workers=3)
        outcome = run_campaign(spec)
        _assert_converged(spec, outcome, reference, cells=4)
        assert outcome.ran == 4 and outcome.skipped == 0
        # Every record carries the queue provenance stamps.
        record = _record(spec, "selftest--cell=0")
        assert record["worker"].startswith("local-")
        assert record["attempt"] == 1
        assert record["cell_id"] == "selftest--cell=0"

    def test_standalone_worker_drains_and_reports(self, tmp_path):
        spec = _qspec(tmp_path, "q-worker", cells=3, workers=1)
        spec.save()
        os.makedirs(spec.cells_dir, exist_ok=True)
        stats = worker_loop(spec, worker_id="solo")
        assert stats["claimed"] == 3 and stats["ok"] == 3
        counts = _counts(spec)
        assert counts["done"] == 3 and counts["pending"] == 0

    def test_resume_skips_cells_published_by_earlier_workers(self, tmp_path):
        spec = _qspec(tmp_path, "q-resume", cells=4, workers=1)
        spec.save()
        os.makedirs(spec.cells_dir, exist_ok=True)
        stats = worker_loop(spec, worker_id="first", max_cells=2)
        assert stats["claimed"] == 2
        done = sorted(os.listdir(spec.cells_dir))
        assert len(done) == 2
        mtimes = {
            f: os.stat(os.path.join(spec.cells_dir, f)).st_mtime_ns
            for f in done
        }
        outcome = run_campaign(spec)
        assert outcome.complete
        assert outcome.skipped == 2 and outcome.ran == 2
        for f, mtime in mtimes.items():
            assert os.stat(
                os.path.join(spec.cells_dir, f)
            ).st_mtime_ns == mtime, "resume must not re-run published cells"

    def test_limit_enqueues_only_the_limited_cells(self, tmp_path):
        spec = _qspec(tmp_path, "q-limit", cells=4, workers=2)
        partial = run_campaign(spec, limit=1)
        assert not partial.complete and partial.ran == 1
        assert os.listdir(spec.cells_dir) == ["selftest--cell=0.json"]
        assert _counts(spec)["done"] == 1
        full = run_campaign(spec)
        assert full.complete and full.skipped == 1 and full.ran == 3

    def test_limit_holds_back_tasks_an_interrupted_run_left(self, tmp_path):
        spec = _qspec(tmp_path, "q-limit-stale", cells=4, workers=2)
        spec.save()
        # A killed run leaves its whole grid pending in the queue.
        queue = CellQueue(spec.directory, spec.queue_config())
        queue.ensure(expand_cells(spec))
        queue.close()
        partial = run_campaign(spec, limit=1)
        assert partial.ran == 1 and len(os.listdir(spec.cells_dir)) == 1
        assert _counts(spec)["cancelled"] == 3
        full = run_campaign(spec)
        assert full.complete and full.skipped == 1 and full.ran == 3
        assert _counts(spec)["done"] == 4

    def test_no_resume_reruns_every_cell(self, tmp_path):
        spec = _qspec(tmp_path, "q-rerun", cells=4, workers=2)
        assert run_campaign(spec).complete
        mtimes = {
            entry.path: entry.stat().st_mtime_ns
            for entry in os.scandir(spec.cells_dir)
        }
        rerun = run_campaign(spec, resume=False)
        assert rerun.complete and rerun.ran == 4 and rerun.skipped == 0
        for path, mtime in mtimes.items():
            assert os.stat(path).st_mtime_ns != mtime, (
                "resume=False must recompute the cell, not ack its old record"
            )
        assert _counts(spec)["done"] == 4

    def test_transient_cell_error_retries_with_backoff(self, tmp_path):
        reference = _serial_reference(tmp_path, cells=4)
        spec = _qspec(
            tmp_path, "q-flaky", cells=4, workers=2,
            fail_cells=[1], fail_until_attempt=2,
        )
        outcome = run_campaign(spec)
        assert outcome.complete and outcome.errors == []
        assert outcome.tables["selftest"] == reference
        queue = CellQueue(spec.directory, spec.queue_config())
        task = queue.get("selftest--cell=1")
        queue.close()
        assert task.state == "done" and task.attempts == 2
        assert len(task.failures) == 1
        assert "injected failure (cell 1, attempt 1)" in task.failures[0]["error"]
        record = _record(spec, "selftest--cell=1")
        assert record["status"] == "ok" and record["attempt"] == 2


class TestQuarantine:
    def test_cell_failing_three_claims_is_poisoned_with_tracebacks(
        self, tmp_path
    ):
        spec = _qspec(
            tmp_path, "q-poison", cells=4, workers=2, fail_cells=[2],
        )
        outcome = run_campaign(spec)
        assert outcome.poisoned == ["selftest--cell=2"]
        assert outcome.errors == []
        assert "poisoned=1" in outcome.summary()
        with pytest.raises(CampaignError, match="quarantined"):
            outcome.unwrap("selftest")
        # The queue holds the verdict...
        counts = _counts(spec)
        assert counts == {"pending": 0, "leased": 0, "done": 3,
                          "poisoned": 1, "cancelled": 0}
        # ...and the published record preserves all three tracebacks.
        record = _record(spec, "selftest--cell=2")
        assert record["status"] == "poisoned"
        assert record["attempt"] == 3
        assert len(record["failures"]) == 3
        for attempt in (1, 2, 3):
            assert f"injected failure (cell 2, attempt {attempt})" in (
                record["error"]
            )
        # Healthy cells aggregated; the quarantined one contributed no row.
        header, rows = outcome.tables["selftest"]
        assert [r[0] for r in rows] == [0, 1, 3]
        status = campaign_status(spec=spec)
        assert status["poisoned"] == ["selftest--cell=2"]
        assert status["pending"] == []

    def test_retry_requeues_poisoned_cell_after_the_fix(self, tmp_path):
        marker_dir = tmp_path / "fix"
        marker_dir.mkdir()
        spec = _qspec(
            tmp_path, "q-retry", cells=3, workers=1,
            queue={"max_attempts": 2},
            fail_cells=[1], fail_marker_dir=str(marker_dir),
        )
        outcome = run_campaign(spec)
        assert outcome.poisoned == ["selftest--cell=1"]
        # Operator fixes the environment, then explicitly requeues.
        (marker_dir / "fixed-1").touch()
        requeued = retry_campaign(spec, statuses=("poisoned",))
        assert requeued == ["selftest--cell=1"]
        assert not os.path.exists(
            os.path.join(spec.cells_dir, "selftest--cell=1.json")
        )
        queue = CellQueue(spec.directory, spec.queue_config())
        task = queue.get("selftest--cell=1")
        queue.close()
        assert task.state == "pending" and task.attempts == 0
        healed = run_campaign(spec)
        assert healed.complete and healed.poisoned == []
        header, rows = healed.tables["selftest"]
        assert [r[0] for r in rows] == [0, 1, 2]

    def test_retry_rejects_unknown_statuses(self, tmp_path):
        spec = _qspec(tmp_path, "q-retry-bad", cells=2)
        spec.save()
        with pytest.raises(CampaignError, match="cannot retry"):
            retry_campaign(spec, statuses=("ok",))


class TestFaultSchedules:
    """Each schedule must converge to the no-fault serial aggregate."""

    def test_worker_sigkill_mid_cell(self, tmp_path, monkeypatch):
        reference = _serial_reference(tmp_path, cells=4)
        monkeypatch.setenv("REPRO_FAULT_KILL_RATE", "1.0")
        spec = _qspec(tmp_path, "q-kill", cells=4, workers=2)
        outcome = run_campaign(spec)
        _assert_converged(spec, outcome, reference, cells=4)
        # Every cell's first claim died with the worker; recovery came
        # through lease expiry, and the forensics say so.
        queue = CellQueue(spec.directory, spec.queue_config())
        tasks = queue.tasks(state="done")
        queue.close()
        for task in tasks:
            assert task.attempts == 2, task
            assert "lease expired" in task.failures[0]["error"]
            assert _record(spec, task.cell_id)["attempt"] == 2

    def test_crash_before_publish_reruns_the_cell(self, tmp_path, monkeypatch):
        reference = _serial_reference(tmp_path, cells=4)
        monkeypatch.setenv("REPRO_FAULT_CRASH_BEFORE_PUBLISH_RATE", "1.0")
        spec = _qspec(tmp_path, "q-prepub", cells=4, workers=2)
        outcome = run_campaign(spec)
        _assert_converged(spec, outcome, reference, cells=4)
        for cell in range(4):
            # The first attempt's work was lost; attempt 2 recomputed it.
            assert _record(spec, f"selftest--cell={cell}")["attempt"] == 2

    def test_crash_after_publish_acks_without_rerunning(
        self, tmp_path, monkeypatch
    ):
        reference = _serial_reference(tmp_path, cells=4)
        monkeypatch.setenv("REPRO_FAULT_CRASH_AFTER_PUBLISH_RATE", "1.0")
        spec = _qspec(tmp_path, "q-postpub", cells=4, workers=2)
        outcome = run_campaign(spec)
        _assert_converged(spec, outcome, reference, cells=4)
        queue = CellQueue(spec.directory, spec.queue_config())
        tasks = queue.tasks(state="done")
        queue.close()
        for task in tasks:
            # The record always says attempt 1: whoever settled the
            # ledger (a second claim, or a respawned worker's ensure()
            # reconciliation) found the published record and did NOT
            # re-run the cell.
            assert task.attempts in (1, 2), task
            assert _record(spec, task.cell_id)["attempt"] == 1

    def test_torn_record_is_audited_and_recomputed(self, tmp_path, monkeypatch):
        reference = _serial_reference(tmp_path, cells=4)
        monkeypatch.setenv("REPRO_FAULT_TORN_RECORD_RATE", "1.0")
        spec = _qspec(tmp_path, "q-torn", cells=4, workers=2)
        outcome = run_campaign(spec)
        _assert_converged(spec, outcome, reference, cells=4)
        for cell in range(4):
            record = _record(spec, f"selftest--cell={cell}")
            assert record["status"] == "ok"
            assert record["attempt"] == 2, (
                "the torn first publish must have been detected by the "
                "audit and recomputed"
            )

    def test_lease_expiry_race_with_stalled_worker(self, tmp_path, monkeypatch):
        reference = _serial_reference(tmp_path, cells=3)
        monkeypatch.setenv("REPRO_FAULT_STALL_RATE", "1.0")
        monkeypatch.setenv("REPRO_FAULT_STALL_S", "1.5")
        spec = _qspec(
            tmp_path, "q-stall", cells=3, workers=3,
            queue={"lease_ttl": 0.5},
        )
        outcome = run_campaign(spec)
        # Stale workers woke after losing their leases and published
        # byte-identical records; their acks were lease-guarded no-ops.
        _assert_converged(spec, outcome, reference, cells=3)

    def test_chaos_mix_converges(self, tmp_path, monkeypatch):
        reference = _serial_reference(tmp_path, cells=6)
        for var in faultinject.FAULT_SITES.values():
            monkeypatch.setenv(var, "0.4")
        monkeypatch.setenv("REPRO_FAULT_SEED", "3")
        monkeypatch.setenv("REPRO_FAULT_STALL_S", "1.2")
        spec = _qspec(tmp_path, "q-chaos", cells=6, workers=3)
        outcome = run_campaign(spec)
        _assert_converged(spec, outcome, reference, cells=6)


class TestQueueCorruption:
    def test_corrupt_queue_is_rebuilt_from_records(self, tmp_path):
        reference = _serial_reference(tmp_path, cells=3)
        spec = _qspec(tmp_path, "q-corrupt", cells=3, workers=1)
        run_campaign(spec)
        # Corrupt the queue AND lose one record: the rebuild must trust
        # the records, re-running exactly the missing cell.
        with open(queue_path(spec.directory), "w") as handle:
            handle.write("not a database at all")
        victim = os.path.join(spec.cells_dir, "selftest--cell=1.json")
        os.unlink(victim)
        outcome = run_campaign(spec)
        assert outcome.complete and outcome.skipped == 2 and outcome.ran == 1
        assert outcome.tables["selftest"] == reference
        counts = _counts(spec)
        assert counts["done"] == 3

    def test_status_reports_corrupt_queue(self, tmp_path):
        spec = _qspec(tmp_path, "q-status", cells=2, workers=1)
        run_campaign(spec)
        with open(queue_path(spec.directory), "w") as handle:
            handle.write("garbage")
        status = campaign_status(spec=spec)
        assert status["queue"] == {"corrupt": True}

    def test_status_includes_queue_counts(self, tmp_path):
        spec = _qspec(tmp_path, "q-status-ok", cells=2, workers=1)
        run_campaign(spec)
        status = campaign_status(spec=spec)
        assert status["queue"]["done"] == 2
        assert status["queue"]["pending"] == 0


class TestCli:
    def test_run_with_backend_flags_persists_queue_config(
        self, tmp_path, capsys
    ):
        root = str(tmp_path)
        rc = cli_main([
            "campaign", "run", "qcli", "--artifacts", "selftest",
            "--backend", "queue", "--workers", "1",
            "--lease-ttl", "5", "--max-attempts", "2",
            "--backoff-base", "0.01", "--root", root,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "complete" in out and "poisoned=0" in out
        stored = load_spec("qcli", results_root=root)
        assert stored.backend == "queue"
        assert stored.queue["lease_ttl"] == 5
        assert stored.queue["max_attempts"] == 2

    def test_run_exits_nonzero_on_poisoned_cells(self, tmp_path, capsys):
        spec_path = tmp_path / "poison.json"
        spec_path.write_text(json.dumps({
            "name": "qcli-poison", "artifacts": ["selftest"],
            "options": {"cells": 2, "fail_cells": [1]}, "workers": 2,
            "mp_context": "fork", "queue": QUEUE_FAST,
        }))
        rc = cli_main(["campaign", "run", "--spec", str(spec_path),
                       "--backend", "queue", "--root", str(tmp_path)])
        captured = capsys.readouterr()
        assert "poisoned=1" in captured.out
        assert rc == 1
        assert "cell selftest--cell=1 poisoned:" in captured.err
        assert "injected failure (cell 1, attempt 3)" in captured.err

    def test_worker_command_drains_a_campaign_directory(
        self, tmp_path, capsys
    ):
        spec = _qspec(tmp_path, "qcli-worker", cells=3, workers=1)
        spec.save()
        os.makedirs(spec.cells_dir, exist_ok=True)
        rc = cli_main(["worker", spec.directory, "--quiet",
                       "--worker-id", "cli-drainer"])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert stats["claimed"] == 3 and stats["ok"] == 3
        assert stats["worker"] == "cli-drainer"
        counts = _counts(spec)
        assert counts["done"] == 3

    def test_retry_command_requeues_poisoned_cells(self, tmp_path, capsys):
        marker_dir = tmp_path / "fix"
        marker_dir.mkdir()
        root = str(tmp_path)
        spec = _qspec(
            tmp_path, "qcli-retry", cells=2, workers=1,
            queue={"max_attempts": 1},
            fail_cells=[0], fail_marker_dir=str(marker_dir),
        )
        outcome = run_campaign(spec)
        assert outcome.poisoned == ["selftest--cell=0"]
        capsys.readouterr()
        rc = cli_main(["campaign", "retry", "qcli-retry", "--root", root,
                       "--statuses", "poisoned"])
        assert rc == 0
        assert "requeued 1 cells" in capsys.readouterr().out
        (marker_dir / "fixed-0").touch()
        healed = run_campaign(spec)
        assert healed.complete and healed.poisoned == []

    def test_status_command_prints_queue_counts(self, tmp_path, capsys):
        root = str(tmp_path)
        spec = _qspec(tmp_path, "qcli-status", cells=2, workers=1)
        run_campaign(spec)
        capsys.readouterr()
        rc = cli_main(["campaign", "status", "qcli-status", "--root", root])
        assert rc == 0
        out = capsys.readouterr().out
        assert "done=2 leased=0 pending=0" in out


class TestQueueConfigValidation:
    def test_rejects_nonpositive_poll(self):
        with pytest.raises(ValueError, match="poll"):
            QueueConfig(poll=0)
        with pytest.raises(ValueError, match="poll"):
            QueueConfig(poll=-0.5)

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError, match="backoff_jitter"):
            QueueConfig(backoff_jitter=-0.1)

    def test_rejects_heartbeat_at_or_above_lease_ttl(self):
        # Such a lease would always expire before its first extension,
        # so every long cell would be silently double-claimed.
        with pytest.raises(ValueError, match="heartbeat"):
            QueueConfig(lease_ttl=5.0, heartbeat=5.0)
        with pytest.raises(ValueError, match="heartbeat"):
            QueueConfig(lease_ttl=5.0, heartbeat=6.0)
        with pytest.raises(ValueError, match="heartbeat"):
            QueueConfig(heartbeat=-1.0)

    def test_accepts_auto_and_explicit_heartbeats(self):
        assert QueueConfig().heartbeat_period == pytest.approx(20.0)
        assert QueueConfig(heartbeat=0).heartbeat_period == pytest.approx(20.0)
        assert QueueConfig(heartbeat=2.5).heartbeat == 2.5
        assert QueueConfig(lease_ttl=1.0, heartbeat=0.3).heartbeat == 0.3


def _seed_queue(spec):
    """Save the spec and seed its queue exactly as ``worker_loop`` would."""
    spec.save()
    os.makedirs(spec.cells_dir, exist_ok=True)
    queue = CellQueue(spec.directory, spec.queue_config())
    queue.ensure(expand_cells(spec))
    return queue


class TestStaleAck:
    def test_ack_is_lease_guarded(self, tmp_path):
        spec = _qspec(tmp_path, "q-ackguard", cells=1, workers=1)
        queue = _seed_queue(spec)
        t0 = 1000.0
        task = queue.claim("w1", now=t0)
        assert task is not None
        # w1's lease expires; w2 reclaims the cell (the first claim past
        # the TTL recovers it into pending with a short retry backoff,
        # the next one leases it).
        ttl = spec.queue_config().lease_ttl
        assert queue.claim("w2", now=t0 + ttl + 1) is None
        reclaimed = queue.claim("w2", now=t0 + ttl + 2)
        assert reclaimed is not None and reclaimed.cell_id == task.cell_id
        assert queue.ack(task.cell_id, "w1", "ok") is False
        assert queue.ack(task.cell_id, "w2", "ok") is True
        queue.close()

    def test_process_task_reports_stale_after_lease_reclaim(self, tmp_path):
        spec = _qspec(tmp_path, "q-stale", cells=1, workers=1)
        queue = _seed_queue(spec)
        config = spec.queue_config()
        t0 = 1000.0
        stale_task = queue.claim("w1", now=t0)
        assert queue.claim("w2", now=t0 + config.lease_ttl + 1) is None
        live_task = queue.claim("w2", now=t0 + config.lease_ttl + 2)
        assert live_task.cell_id == stale_task.cell_id
        assert live_task.attempts == 2
        # The live claimant runs the cell and publishes its record.
        assert _process_task(spec, queue, config, live_task, "w2") == "ok"
        # The stale worker wakes up, finds the published record, and its
        # lease-guarded ack must come back False -> outcome "stale", so
        # the completion is never double-counted.
        outcome = _process_task(spec, queue, config, stale_task, "w1")
        assert outcome == "stale"
        counts = _counts(spec)
        assert counts["done"] == 1 and counts["leased"] == 0
        record = _record(spec, stale_task.cell_id)
        assert record["worker"] == "w2"
        queue.close()


class TestCancelVerb:
    def test_cancel_requires_a_selector(self, tmp_path):
        spec = _qspec(tmp_path, "q-cancel-guard", cells=2, workers=1)
        queue = _seed_queue(spec)
        with pytest.raises(ValueError, match="cell_ids and/or job"):
            queue.cancel()
        queue.close()

    def test_cancel_pending_cells_by_id(self, tmp_path):
        spec = _qspec(tmp_path, "q-cancel-ids", cells=3, workers=1)
        queue = _seed_queue(spec)
        cancelled = queue.cancel(cell_ids=["selftest--cell=1"])
        assert cancelled == ["selftest--cell=1"]
        counts = _counts(spec)
        assert counts["cancelled"] == 1 and counts["pending"] == 2
        assert queue.get("selftest--cell=1").state == "cancelled"
        # Cancelled cells are unclaimable; drained ignores them.
        claimed = {queue.claim("w").cell_id for _ in range(2)}
        assert "selftest--cell=1" not in claimed
        queue.close()

    def test_cancel_by_job_spares_other_jobs_and_leases(self, tmp_path):
        spec = _qspec(tmp_path, "q-cancel-job", cells=2, workers=1)
        spec.save()
        os.makedirs(spec.cells_dir, exist_ok=True)
        queue = CellQueue(spec.directory, spec.queue_config())
        cells = expand_cells(spec)
        for cell in cells:
            prefixed = cell.__class__(
                cell.artifact, cell.index,
                f"job-a--{cell.cell_id}", cell.params,
            )
            queue.ensure([prefixed], job="job-a")
        for cell in cells:
            prefixed = cell.__class__(
                cell.artifact, cell.index,
                f"job-b--{cell.cell_id}", cell.params,
            )
            queue.ensure([prefixed], job="job-b")
        # One of job-a's cells is mid-flight: it must keep running.
        leased = queue.claim("w1")
        assert leased.job == "job-a"
        cancelled = queue.cancel(job="job-a")
        assert cancelled == ["job-a--selftest--cell=1"]
        counts = queue.counts(job="job-a")
        assert counts["cancelled"] == 1 and counts["leased"] == 1
        assert queue.counts(job="job-b")["pending"] == 2
        assert not queue.drained(job="job-a")
        assert queue.ack(leased.cell_id, "w1", "ok") is True
        assert queue.drained(job="job-a")
        assert not queue.drained(job="job-b")
        queue.close()

    def test_ensure_flips_cancelled_cell_with_record_to_done(self, tmp_path):
        spec = _qspec(tmp_path, "q-cancel-flip", cells=2, workers=1)
        queue = _seed_queue(spec)
        queue.cancel(cell_ids=["selftest--cell=0"])
        # The cell's record surfaces anyway (a worker finished it before
        # noticing the cancellation): reconciliation trusts the record.
        records = {
            "selftest--cell=0": {"status": "ok"},
        }
        queue.ensure(expand_cells(spec), record_loader=records.get)
        task = queue.get("selftest--cell=0")
        assert task.state == "done" and task.result_status == "ok"
        queue.close()


class TestQueueCellTimeout:
    """Regression for the daemonized-fleet bug (ISSUE 9 satellite).

    ``backend="queue"`` + ``cell_timeout`` requires fleet workers to
    spawn killable per-cell child processes; daemonic workers cannot
    (``daemonic processes are not allowed to have children``), which
    turned every cell into a retried infrastructure failure and
    quarantined the whole campaign.
    """

    def test_slow_cell_killed_at_limit_records_timeout(self, tmp_path):
        spec = _qspec(tmp_path, "q-timeout", cells=2, workers=2,
                      sleep_s=300.0)
        spec.cell_timeout = 1.0
        outcome = run_campaign(spec)
        assert outcome.complete, outcome.summary()
        assert sorted(outcome.timeouts) == [
            "selftest--cell=0", "selftest--cell=1",
        ]
        counts = _counts(spec)
        assert counts["done"] == 2 and counts["poisoned"] == 0
        for cell in range(2):
            record = _record(spec, f"selftest--cell={cell}")
            assert record["status"] == "timeout"
            assert record["timed_out"] is True
            assert record["cell_timeout"] == 1.0
            # Killed on the first claim -- not retried into quarantine.
            assert record["attempt"] == 1

    def test_converges_bit_identically_with_pool_backend(self, tmp_path):
        """The queue (with a cell killed at its limit) matches the default
        ``backend="pool"`` serial run on every healthy cell."""
        reference = _serial_reference(tmp_path, cells=4)
        serial_cells = os.path.join(
            str(tmp_path / "serial-ref-root"), "serial-ref", "cells"
        )
        spec = _qspec(tmp_path, "q-vs-serial", workers=2, cells=4,
                      sleep_s=30.0, slow_cells=[2])
        spec.cell_timeout = 1.0
        outcome = run_campaign(spec)
        assert outcome.complete, outcome.summary()
        assert outcome.timeouts == ["selftest--cell=2"]
        header, rows = reference
        assert outcome.tables["selftest"] == (
            header, [row for row in rows if row[0] != 2]
        )
        for cell in (0, 1, 3):
            cell_id = f"selftest--cell={cell}"
            with open(os.path.join(serial_cells, f"{cell_id}.json")) as handle:
                serial = json.load(handle)
            assert deterministic_view(_record(spec, cell_id)) == \
                deterministic_view(serial)

    def test_killed_cell_child_yields_crash_record(self, tmp_path):
        """A cell child that dies without a record is a retryable crash,
        not a timeout."""
        spec = _qspec(tmp_path, "q-crash", cells=1, kill_cells=[0])
        spec.cell_timeout = 30.0
        record = _run_cell_killable(
            spec, ("selftest", {"cell": 0}, spec.options)
        )
        record = finalize_cell_record(
            record, "selftest--cell=0", cell_timeout=spec.cell_timeout
        )
        assert record["status"] == "error"
        assert "died without a result" in record["error"]
        assert record["timed_out"] is False
        assert record["cell_timeout"] == 30.0
        assert validate_cell_record(record) is not None

    def test_worker_sigkills_still_recover_with_timeout(self, tmp_path,
                                                        monkeypatch):
        reference = _serial_reference(tmp_path, cells=3)
        monkeypatch.setenv("REPRO_FAULT_KILL_RATE", "1.0")
        monkeypatch.setenv("REPRO_FAULT_MAX_ATTEMPT", "1")
        spec = _qspec(tmp_path, "q-kill-timeout", cells=3, workers=2)
        spec.cell_timeout = 30.0
        outcome = run_campaign(spec)
        _assert_converged(spec, outcome, reference, cells=3)
