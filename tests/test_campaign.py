"""Tier-1 coverage of the campaign orchestrator.

The acceptance bar: a 2-worker ``repro campaign run`` must reproduce
Table 1's rows bit-identically to the serial path, and a campaign
interrupted mid-run must complete only the missing cells on resume.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.cli import main as cli_main
from repro.experiments.campaign import (
    ARTIFACTS,
    CampaignError,
    CampaignSpec,
    aggregate_campaign,
    campaign_status,
    expand_cells,
    load_spec,
    run_campaign,
    write_reports,
)


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _serial_table1():
    """Table I computed straight from its artifact's cell functions."""
    artifact, options = ARTIFACTS["table1"], {"scale": "tiny"}
    results = [artifact.cell(c, options) for c in artifact.expand(options)]
    return artifact.aggregate(results, options)


def _records(cells_dir):
    return {e for e in os.listdir(cells_dir) if e.endswith(".json")}


def _kill_campaign_mid_run(args, cells_dir):
    """Start ``repro campaign run *args``; SIGKILL it once it has published
    a cell.  Returns the pids of its worker fleet."""
    env = dict(os.environ, REPRO_SCALE="tiny")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "run", *args],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline and proc.poll() is None:
        if os.path.isdir(cells_dir) and _records(cells_dir):
            break
        time.sleep(0.02)
    fleet = []
    if proc.poll() is None:
        with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as handle:
            fleet = [int(pid) for pid in handle.read().split()]
    proc.kill()
    proc.wait()
    return fleet


def _wait_retired(pids):
    """Wait until every pid has exited (or is a zombie nobody reaps)."""

    def running(pid):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + 60
    while any(running(pid) for pid in pids):
        assert time.monotonic() < deadline, (
            "fleet workers outlived their SIGKILLed parent"
        )
        time.sleep(0.05)


def _spec(tmp_path, name="t1", workers=0, artifacts=("table1",), **options):
    options.setdefault("scale", "tiny")
    return CampaignSpec(
        name=name,
        artifacts=artifacts,
        options=options,
        workers=workers,
        results_root=str(tmp_path),
    )


class TestExpansion:
    def test_grid_is_deterministic_with_unique_ids(self, tmp_path):
        spec = _spec(tmp_path, artifacts=("table1", "table2"))
        cells_a = expand_cells(spec)
        cells_b = expand_cells(spec)
        assert cells_a == cells_b
        ids = [c.cell_id for c in cells_a]
        assert len(ids) == len(set(ids))
        assert len([c for c in cells_a if c.artifact == "table1"]) == 6
        assert len([c for c in cells_a if c.artifact == "table2"]) == 24

    def test_options_shrink_the_grid(self, tmp_path):
        spec = _spec(
            tmp_path, artifacts=("table2",),
            circuits=("c6288",), techniques=("sarlock", "antisat"),
        )
        assert [c.params for c in expand_cells(spec)] == [
            {"circuit": "c6288", "technique": "sarlock"},
            {"circuit": "c6288", "technique": "antisat"},
        ]

    def test_unknown_artifact_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            _spec(tmp_path, artifacts=("table9",))

    def test_unsafe_name_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            _spec(tmp_path, name="../escape")


class TestRun:
    def test_two_worker_pool_matches_serial_table1(self, tmp_path):
        spec = _spec(tmp_path, workers=2)
        outcome = run_campaign(spec)
        assert outcome.complete
        assert outcome.ran == 6 and outcome.errors == []
        assert outcome.tables["table1"] == _serial_table1()

    def test_resume_completes_only_missing_cells(self, tmp_path):
        spec = _spec(tmp_path)
        partial = run_campaign(spec, limit=2)
        assert not partial.complete
        assert partial.ran == 2 and partial.total == 6

        done_files = sorted(os.listdir(spec.cells_dir))
        assert len(done_files) == 2
        mtimes = {
            f: os.stat(os.path.join(spec.cells_dir, f)).st_mtime_ns
            for f in done_files
        }

        full = run_campaign(spec)
        assert full.complete
        assert full.skipped == 2 and full.ran == 4
        for f, mtime in mtimes.items():
            assert os.stat(os.path.join(spec.cells_dir, f)).st_mtime_ns == mtime, (
                "resume must not recompute finished cells"
            )
        assert full.tables["table1"] == _serial_table1()

    def test_corrupt_cell_record_is_recomputed(self, tmp_path):
        spec = _spec(tmp_path)
        run_campaign(spec, limit=1)
        victim = os.path.join(spec.cells_dir, os.listdir(spec.cells_dir)[0])
        with open(victim, "w") as handle:
            handle.write("{truncated")
        full = run_campaign(spec)
        assert full.complete and full.skipped == 0 and full.ran == 6

    def test_fresh_discards_previous_results(self, tmp_path):
        spec = _spec(tmp_path)
        run_campaign(spec)
        outcome = run_campaign(spec, fresh=True)
        assert outcome.skipped == 0 and outcome.ran == 6

    def test_changed_grid_refuses_stale_records(self, tmp_path):
        """Records computed under one grid must not be reused by another."""
        run_campaign(_spec(tmp_path))
        changed = _spec(tmp_path, circuits=("c6288",))
        with pytest.raises(CampaignError, match="different"):
            run_campaign(changed)
        # fresh=True discards the old grid and recomputes the new one.
        outcome = run_campaign(changed, fresh=True)
        assert outcome.complete and outcome.total == 1

    def test_unwrap_surfaces_cell_tracebacks(self, tmp_path, monkeypatch):
        spec = _spec(tmp_path)

        def exploding(cell, options):
            raise RuntimeError("kaboom in cell")

        monkeypatch.setitem(
            ARTIFACTS, "table1", ARTIFACTS["table1"]._replace(cell=exploding)
        )
        outcome = run_campaign(spec)
        with pytest.raises(CampaignError, match="kaboom in cell"):
            outcome.unwrap("table1")

    def test_unwrap_reports_partial(self, tmp_path):
        outcome = run_campaign(_spec(tmp_path), limit=2)
        with pytest.raises(CampaignError, match="incomplete"):
            outcome.unwrap("table1")

    def test_failing_cell_reports_error_and_retries(self, tmp_path, monkeypatch):
        spec = _spec(tmp_path)
        original = ARTIFACTS["table1"].cell

        calls = {"n": 0}

        def flaky(cell, options):
            calls["n"] += 1
            if cell["circuit"] == "c6288":
                raise RuntimeError("boom")
            return original(cell, options)

        # Artifact is a namedtuple (immutable); patch through the registry.
        monkeypatch.setitem(
            ARTIFACTS, "table1", ARTIFACTS["table1"]._replace(cell=flaky)
        )
        outcome = run_campaign(spec)
        assert not outcome.complete
        assert len(outcome.errors) == 1
        assert "boom" in outcome.errors[0][1]
        # The failed cell left no record, so a healthy rerun completes it.
        monkeypatch.setitem(
            ARTIFACTS, "table1", ARTIFACTS["table1"]._replace(cell=original)
        )
        recovered = run_campaign(spec)
        assert recovered.complete and recovered.ran == 1 and recovered.skipped == 5


@pytest.mark.skipif(not os.path.exists("/proc/self/task"),
                    reason="reads fleet pids from Linux /proc")
class TestKillAndResume:
    def test_sigkill_mid_campaign_then_resume(self, tmp_path):
        """Kill a live 2-worker campaign process; resume runs only the rest."""
        root = str(tmp_path)
        cells_dir = os.path.join(root, "killed", "cells")
        fleet = _kill_campaign_mid_run([
            "killed", "--artifacts", "table2",
            "--circuits", "c6288,b14_C,b15_C",
            "--techniques", "sarlock,antisat,cac",
            "--scale", "tiny", "--workers", "2", "--root", root,
        ], cells_dir)
        # Orphaned fleet workers finish the cell they hold, then retire;
        # only then is the set of published records final.
        _wait_retired(fleet)

        # Only published records count: a kill landing mid-write leaves a
        # stray <cell>.json.tmp.<pid> behind, which resume ignores.
        done_before = _records(cells_dir)
        assert done_before, "campaign never persisted a cell before the kill"

        spec = load_spec("killed", results_root=root)
        spec.workers = 0
        outcome = run_campaign(spec)
        assert outcome.complete
        assert outcome.skipped == len(done_before)
        assert outcome.ran == outcome.total - len(done_before)
        # The pre-kill records were not touched by the resume pass.
        assert done_before <= _records(cells_dir)

    def test_fleet_retires_when_parent_is_sigkilled(self, tmp_path):
        """Orphaned queue workers stop claiming instead of draining on."""
        spec_path = tmp_path / "slow.json"
        spec_path.write_text(json.dumps({
            "name": "orphans", "artifacts": ["selftest"],
            "options": {"cells": 12, "sleep_s": 0.3},
            "workers": 2, "backend": "queue", "mp_context": "fork",
        }))
        cells_dir = str(tmp_path / "orphans" / "cells")
        fleet = _kill_campaign_mid_run(
            ["--spec", str(spec_path), "--root", str(tmp_path)], cells_dir
        )
        assert len(fleet) == 2
        at_kill = len(_records(cells_dir))
        _wait_retired(fleet)
        # Each orphan may still publish the one cell it had claimed.
        final = len(_records(cells_dir))
        assert final <= at_kill + len(fleet) < 12


class TestHardTimeout:
    """cell_timeout is a hard limit enforced by killable cell workers."""

    def _sleepy_spec(self, tmp_path, cell_timeout=1.0, workers=1, sleep_s=30.0):
        return CampaignSpec(
            name="hard",
            artifacts=("selftest",),
            options={"cells": 2, "sleep_s": sleep_s, "slow_cells": [1]},
            workers=workers,
            cell_timeout=cell_timeout,
            results_root=str(tmp_path),
        )

    def test_hung_cell_is_killed_and_recorded_as_timeout(self, tmp_path):
        spec = self._sleepy_spec(tmp_path)
        t0 = time.monotonic()
        outcome = run_campaign(spec)
        wall = time.monotonic() - t0
        # The slow cell sleeps 30s; the whole campaign must finish far
        # sooner — the kill lands within ~2x the 1s timeout.
        assert wall < 10.0
        assert outcome.ran == 2 and outcome.errors == []
        assert len(outcome.timeouts) == 1
        record = json.load(open(os.path.join(
            spec.cells_dir, f"{outcome.timeouts[0]}.json"
        )))
        assert record["status"] == "timeout"
        assert record["timed_out"] is True
        assert record["elapsed"] < 2 * spec.cell_timeout
        # Aggregation survives and carries exactly the healthy cell's row.
        assert outcome.tables["selftest"][1] == [(0, "0.00")]

    def test_resume_treats_timeout_as_completed_not_retry_forever(
        self, tmp_path, capsys
    ):
        spec = self._sleepy_spec(tmp_path)
        first = run_campaign(spec)
        assert len(first.timeouts) == 1
        t0 = time.monotonic()
        resumed = run_campaign(spec)
        assert time.monotonic() - t0 < 5.0, (
            "resume must not re-run the pathological cell"
        )
        assert resumed.skipped == 2 and resumed.ran == 0
        assert resumed.timeouts == []  # nothing re-ran, nothing re-killed
        status = campaign_status(spec=spec)
        assert status["pending"] == []
        assert len(status["timeouts"]) == 1
        rc = cli_main(["campaign", "status", "hard", "--root", str(tmp_path)])
        assert rc == 0  # a timed-out cell counts as done
        out = capsys.readouterr().out
        assert "total: 2/2 done" in out
        assert "timed out: selftest--cell=1" in out

    def test_unwrap_refuses_timed_out_aggregate(self, tmp_path):
        outcome = run_campaign(self._sleepy_spec(tmp_path))
        with pytest.raises(CampaignError, match="cell_timeout"):
            outcome.unwrap("selftest")

    def test_isolated_runner_matches_serial_when_nothing_times_out(self, tmp_path):
        """The per-cell process path stays bit-identical to the serial one."""
        spec = _spec(tmp_path, workers=2)
        spec.cell_timeout = 300.0
        outcome = run_campaign(spec)
        assert outcome.complete and outcome.timeouts == []
        assert outcome.tables["table1"] == _serial_table1()


class TestStatusAndReport:
    def test_status_counts_partial_campaign(self, tmp_path):
        spec = _spec(tmp_path)
        run_campaign(spec, limit=2)
        status = campaign_status("t1", results_root=str(tmp_path))
        assert status["artifacts"]["table1"] == {"done": 2, "total": 6}
        assert status["done"] == 2 and status["total"] == 6
        assert len(status["pending"]) == 4

    def test_aggregate_refuses_partial_campaign(self, tmp_path):
        spec = _spec(tmp_path)
        run_campaign(spec, limit=3)
        with pytest.raises(CampaignError, match="incomplete"):
            aggregate_campaign(spec)

    def test_report_renders_tables(self, tmp_path):
        spec = _spec(tmp_path)
        run_campaign(spec)
        (path,) = write_reports(spec)
        text = open(path).read()
        assert "Table I" in text and "c6288" in text

    def test_spec_roundtrip_through_disk(self, tmp_path):
        spec = _spec(tmp_path, workers=3, qbf_time_limit=1.5)
        spec.save()
        loaded = load_spec("t1", results_root=str(tmp_path))
        assert loaded.to_dict() == spec.to_dict()

    def test_cell_records_carry_accounting(self, tmp_path):
        """An overrun cell is either killed (``status="timeout"``) or — if
        it finished inside the watchdog's kill window — keeps its real
        record; the ``timed_out`` accounting flag is set either way.
        (Deterministic kill coverage lives in ``TestHardTimeout``, whose
        cells sleep far longer than a watchdog poll.)"""
        spec = _spec(tmp_path)
        spec.cell_timeout = 1e-9  # everything is slower than a nanosecond
        outcome = run_campaign(spec, limit=1)
        (record_file,) = os.listdir(spec.cells_dir)
        record = json.load(open(os.path.join(spec.cells_dir, record_file)))
        assert record["status"] in ("ok", "timeout")
        assert record["elapsed"] >= 0.0
        assert record["timed_out"] is True
        assert record["pid"] > 0
        if record["status"] == "timeout":
            assert outcome.timeouts == [record["cell_id"]]


class TestCli:
    def test_cli_run_status_report_cycle(self, tmp_path, capsys):
        root = str(tmp_path)
        rc = cli_main([
            "campaign", "run", "cli-smoke", "--artifacts", "table1",
            "--scale", "tiny", "--workers", "2", "--limit", "2",
            "--root", root,
        ])
        assert rc == 0
        assert "partial, cells total=6 ran=2 skipped=0 errors=0" in (
            capsys.readouterr().out
        )

        rc = cli_main(["campaign", "status", "cli-smoke", "--root", root])
        assert rc == 2  # pending cells signal "incomplete"
        assert "table1: 2/6 done" in capsys.readouterr().out

        # Bare `campaign run NAME` resumes the stored grid instead of
        # rebuilding a default spec over the previous records.
        rc = cli_main(["campaign", "run", "cli-smoke", "--root", root])
        assert rc == 0
        out = capsys.readouterr().out
        assert "complete, cells total=6 ran=4 skipped=2 errors=0" in out

        rc = cli_main(["campaign", "status", "cli-smoke", "--root", root])
        assert rc == 0

        rc = cli_main(["campaign", "report", "cli-smoke", "--root", root,
                       "--show"])
        assert rc == 0
        assert "Table I" in capsys.readouterr().out

    def test_cli_spec_file(self, tmp_path, capsys):
        root = str(tmp_path)
        spec_path = tmp_path / "myspec.json"
        spec_path.write_text(json.dumps({
            "name": "from-file",
            "artifacts": ["table1"],
            "options": {"scale": "tiny", "circuits": ["c6288", "b14_C"]},
        }))
        rc = cli_main([
            "campaign", "run", "--spec", str(spec_path), "--root", root,
            "--workers", "2", "--cell-timeout", "1e-9",
        ])
        assert rc == 0
        status = campaign_status("from-file", results_root=root)
        assert status["total"] == 2 and not status["pending"]
        # --cell-timeout reaches spec-file runs too (accounting flag set).
        spec = load_spec("from-file", results_root=root)
        record_dir = spec.cells_dir
        record = json.load(
            open(os.path.join(record_dir, os.listdir(record_dir)[0]))
        )
        assert record["timed_out"] is True

    def test_cli_grid_change_gets_friendly_error(self, tmp_path, capsys):
        root = str(tmp_path)
        assert cli_main([
            "campaign", "run", "clash", "--artifacts", "table1",
            "--scale", "tiny", "--root", root,
        ]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="campaign error"):
            cli_main([
                "campaign", "run", "clash", "--artifacts", "table1",
                "--scale", "tiny", "--circuits", "c6288", "--root", root,
            ])

    def test_cli_report_on_partial_campaign_is_friendly(self, tmp_path, capsys):
        root = str(tmp_path)
        cli_main([
            "campaign", "run", "part", "--artifacts", "table1",
            "--scale", "tiny", "--limit", "1", "--root", root,
        ])
        capsys.readouterr()
        with pytest.raises(SystemExit, match="incomplete"):
            cli_main(["campaign", "report", "part", "--root", root])
        with pytest.raises(SystemExit, match="no campaign spec"):
            cli_main(["campaign", "status", "nosuch", "--root", root])
