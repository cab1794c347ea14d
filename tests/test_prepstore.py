"""Cross-campaign prep store: store semantics and campaign integration.

Covers the tentpole's contract end to end:

* content-addressed get/put with canonical round-trip (cold == warm,
  bit for bit, structurally identical netlists);
* atomicity against torn/corrupt entries, the LRU size bound, and the
  enabled/disabled switches;
* campaigns: a warm re-run performs zero preparation recomputation
  (store hits == prep-using cells, misses == 0) with aggregates whose
  deterministic content is identical to the cold run's, serial and
  parallel; cell records and ``campaign_status`` carry the cache stats;
* the ``status``/``report`` path survives campaigns whose records are
  all ``status="timeout"`` (no healthy cell to aggregate).
"""

import json
import os

import pytest

from repro.experiments.campaign import (
    CampaignSpec,
    campaign_status,
    run_campaign,
    sum_prep_stats,
    write_reports,
)
from repro.experiments.harness import (
    clear_prep_cache,
    prep_stats,
    prepare_locked,
)
from repro.experiments.prepstore import (
    FORMAT_VERSION,
    PrepStore,
    deserialize_prepared,
    serialize_prepared,
    store_key,
)
from repro.netlist.bench import write_bench


@pytest.fixture
def store(tmp_path):
    return PrepStore(root=str(tmp_path / "store"), capacity=4, enabled=True)


def _prep(store, technique="sarlock", **kwargs):
    clear_prep_cache()
    return prepare_locked("c6288", technique, scale="tiny", store=store,
                          **kwargs)


class TestPrepStore:
    def test_cold_then_warm_round_trip(self, store):
        cold = _prep(store)
        assert store.stats()["store_misses"] == 1
        assert store.stats()["store_puts"] == 1
        warm = _prep(store)
        assert store.stats()["store_hits"] == 1
        # Canonical round-trip: cold and warm are structurally identical
        # down to iteration order, not merely equivalent.
        assert write_bench(cold.netlist) == write_bench(warm.netlist)
        assert list(cold.netlist.signals) == list(warm.netlist.signals)
        assert cold.netlist.topological_order() == warm.netlist.topological_order()
        assert cold.locked.correct_key == warm.locked.correct_key
        assert cold.locked.key_inputs == warm.locked.key_inputs
        assert cold.locked.key_of_ppi == warm.locked.key_of_ppi
        assert cold.key_width == warm.key_width

    def test_l1_serves_before_store(self, store):
        seeded = _prep(store)
        first = prepare_locked("c6288", "sarlock", scale="tiny", store=store)
        again = prepare_locked("c6288", "sarlock", scale="tiny", store=store)
        assert seeded is first is again  # L1 identity, store never re-read
        assert store.stats()["store_hits"] == 0
        # A cold L1 (new process, cleared cache) falls through to the store.
        clear_prep_cache()
        warm = prepare_locked("c6288", "sarlock", scale="tiny", store=store)
        assert store.stats()["store_hits"] == 1
        assert warm is not first
        assert write_bench(warm.netlist) == write_bench(first.netlist)

    def test_distinct_params_distinct_entries(self, store):
        _prep(store, technique="sarlock")
        _prep(store, technique="ttlock")
        _prep(store, technique="sarlock", synth_seed=2)
        assert len(store) == 3

    def test_corrupt_entry_reads_as_miss(self, store):
        _prep(store)
        [digest] = store.entries()
        path = os.path.join(store.root, f"{digest}.json")
        with open(path, "w") as handle:
            handle.write('{"format": 1, "truncated')
        before = store.stats()["store_misses"]
        warm = _prep(store)
        assert store.stats()["store_misses"] == before + 1
        assert warm.locked.technique == "sarlock"
        # The recompute republished a healthy entry.
        assert json.load(open(path))["format"] == FORMAT_VERSION

    def test_corrupt_bench_payload_reads_as_miss(self, store):
        """Valid JSON wrapping invalid .bench text must degrade to a miss."""
        _prep(store)
        [digest] = store.entries()
        path = os.path.join(store.root, f"{digest}.json")
        payload = json.load(open(path))
        payload["netlist"]["bench"] = "INPUT(a)\nthis is not bench\n"
        with open(path, "w") as handle:
            json.dump(payload, handle)
        before = store.stats()["store_misses"]
        warm = _prep(store)
        assert store.stats()["store_misses"] == before + 1
        assert warm.locked.technique == "sarlock"
        # The poisoned entry was dropped and republished healthy.
        reloaded = json.load(open(path))
        assert "not bench" not in reloaded["netlist"]["bench"]

    def test_configure_prep_store_pins_default(self, tmp_path, monkeypatch):
        from repro.experiments.prepstore import (
            configure_prep_store,
            prep_store,
        )

        monkeypatch.setenv("REPRO_PREP_STORE_DIR", str(tmp_path / "env"))
        try:
            pinned = configure_prep_store(root=str(tmp_path / "pinned"),
                                          capacity=3)
            assert prep_store() is pinned
            clear_prep_cache()
            prepare_locked("c6288", "sarlock", scale="tiny")
            assert len(pinned) == 1
            assert not os.path.exists(str(tmp_path / "env"))
        finally:
            configure_prep_store()  # un-pin: back to env-driven default
        assert prep_store() is not pinned
        assert prep_store().root == str(tmp_path / "env")

    def test_lru_eviction_bound(self, tmp_path):
        store = PrepStore(root=str(tmp_path / "s"), capacity=2, enabled=True)
        for synth_seed in (1, 2, 3):
            _prep(store, synth_seed=synth_seed)
        assert len(store) == 2
        assert store.stats()["store_evictions"] == 1

    def test_disabled_store_never_touches_disk(self, tmp_path):
        store = PrepStore(root=str(tmp_path / "s"), enabled=False)
        _prep(store)
        _prep(store)
        assert not os.path.exists(store.root)
        assert store.stats()["store_hits"] == 0
        clear_prep_cache()
        prepared = prepare_locked("c6288", "sarlock", scale="tiny",
                                  store=False)
        assert prepared.locked.technique == "sarlock"

    def test_clear_wipes_entries(self, store):
        _prep(store)
        assert store.clear() == 1
        assert len(store) == 0

    def test_serialize_deserialize_is_stable(self, store):
        prepared = _prep(store, technique="sfll_hd")
        params = {"circuit": "c6288", "technique": "sfll_hd"}
        payload = serialize_prepared(prepared, params)
        once = deserialize_prepared(payload)
        twice = deserialize_prepared(serialize_prepared(once, params))
        assert write_bench(once.netlist) == write_bench(twice.netlist)
        assert write_bench(once.locked.original) == write_bench(
            twice.locked.original
        )
        assert once.locked.metadata == twice.locked.metadata

    def test_store_key_is_param_sensitive(self):
        base = {"circuit": "c6288", "technique": "sarlock", "synth_seed": 1}
        assert store_key(base) == store_key(dict(base))
        assert store_key(base) != store_key({**base, "synth_seed": 2})

    def test_prep_stats_merges_l1_and_store(self, store):
        _prep(store)
        stats = prep_stats()
        for field in ("l1_hits", "l1_misses", "store_hits", "store_misses",
                      "store_puts", "store_evictions"):
            assert field in stats


def _grid_spec(name, tmp_path, workers=0, **options):
    return CampaignSpec(
        name=name,
        artifacts=("table2",),
        options={"circuits": ["c6288"], "techniques": ["sarlock", "antisat"],
                 "scale": "tiny", **options},
        workers=workers,
        results_root=str(tmp_path / "campaigns"),
    )


def _deterministic_rows(result):
    """table2 rows with the wall-clock CPU columns masked out."""
    header, rows = result.unwrap("table2")
    cpu = [i for i, h in enumerate(header) if "CPU" in h]
    return [
        tuple("-" if i in cpu else cell for i, cell in enumerate(row))
        for row in rows
    ]


def _cell_records(spec):
    records = []
    for entry in sorted(os.listdir(spec.cells_dir)):
        if entry.endswith(".json"):
            records.append(json.load(open(os.path.join(spec.cells_dir, entry))))
    return records


class TestCampaignIntegration:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_warm_rerun_is_store_served_and_identical(self, tmp_path,
                                                      monkeypatch, workers):
        monkeypatch.setenv("REPRO_PREP_STORE_DIR", str(tmp_path / "store"))
        from repro.experiments import prepstore

        monkeypatch.setattr(prepstore, "_STORE", None)
        clear_prep_cache()

        cold_spec = _grid_spec("cold", tmp_path, workers=workers)
        cold = run_campaign(cold_spec)
        cold_prep = sum_prep_stats(_cell_records(cold_spec))
        assert cold_prep["store_misses"] == 2
        assert cold_prep["store_puts"] == 2

        clear_prep_cache()
        warm_spec = _grid_spec("warm", tmp_path, workers=workers)
        warm = run_campaign(warm_spec)
        warm_prep = sum_prep_stats(_cell_records(warm_spec))
        # Zero prep recomputation: every prep-using cell hit the store.
        assert warm_prep["store_hits"] == 2
        assert warm_prep["store_misses"] == 0
        assert warm_prep["store_puts"] == 0
        assert _deterministic_rows(warm) == _deterministic_rows(cold)
        assert warm.prep.get("store_hits") == 2

    def test_serial_and_parallel_warm_runs_agree(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PREP_STORE_DIR", str(tmp_path / "store"))
        from repro.experiments import prepstore

        monkeypatch.setattr(prepstore, "_STORE", None)
        clear_prep_cache()
        run_campaign(_grid_spec("seed", tmp_path))  # populate the store

        clear_prep_cache()
        serial = run_campaign(_grid_spec("serial", tmp_path, workers=0))
        clear_prep_cache()
        parallel = run_campaign(_grid_spec("parallel", tmp_path, workers=2))
        assert _deterministic_rows(serial) == _deterministic_rows(parallel)
        for result in (serial, parallel):
            assert result.prep.get("store_hits") == 2
            assert result.prep.get("store_misses", 0) == 0

    def test_status_reports_prep_and_store_stats(self, tmp_path, monkeypatch,
                                                 capsys):
        monkeypatch.setenv("REPRO_PREP_STORE_DIR", str(tmp_path / "store"))
        from repro.experiments import prepstore

        monkeypatch.setattr(prepstore, "_STORE", None)
        clear_prep_cache()
        spec = _grid_spec("stat", tmp_path)
        run_campaign(spec)
        status = campaign_status(spec=spec)
        assert status["prep"]["store_misses"] == 2
        assert status["store"]["entries"] == 2
        assert status["store"]["root"] == str(tmp_path / "store")
        assert status["healthy"] == 2

        from repro.cli import main

        assert main(["campaign", "status", "stat",
                     "--root", spec.results_root]) == 0
        out = capsys.readouterr().out
        assert "prep: store hits=0 misses=2 puts=2" in out
        assert "store: 2/64 entries (on)" in out

    def test_prep_store_false_option_bypasses_store(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_PREP_STORE_DIR", str(tmp_path / "store"))
        from repro.experiments import prepstore

        monkeypatch.setattr(prepstore, "_STORE", None)
        clear_prep_cache()
        spec = _grid_spec("nostore", tmp_path, prep_store=False)
        result = run_campaign(spec)
        assert result.errors == []
        assert result.prep.get("store_misses", 0) == 0
        assert result.prep.get("store_puts", 0) == 0
        assert not os.path.exists(str(tmp_path / "store"))


class TestTimeoutOnlyCampaign:
    """status/report must not assume at least one healthy cell exists."""

    @pytest.fixture
    def timeout_spec(self, tmp_path):
        spec = CampaignSpec(
            name="all-timeout",
            artifacts=("selftest",),
            options={"cells": 2, "sleep_s": 300.0},
            workers=1,
            cell_timeout=0.2,
            results_root=str(tmp_path / "campaigns"),
        )
        result = run_campaign(spec)
        assert sorted(result.timeouts) == [
            "selftest--cell=0", "selftest--cell=1"
        ]
        return spec

    def test_status_survives_timeout_only_records(self, timeout_spec):
        status = campaign_status(spec=timeout_spec)
        assert status["done"] == status["total"] == 2
        assert status["healthy"] == 0
        assert len(status["timeouts"]) == 2
        assert status["prep"] == {}  # killed cells carried no accounting

    def test_report_survives_timeout_only_records(self, timeout_spec):
        paths = write_reports(timeout_spec)
        assert paths
        text = open(paths[0]).read()
        assert "Campaign self-test" in text

    def test_resume_skips_timeout_only_records(self, timeout_spec):
        again = run_campaign(timeout_spec)
        assert again.ran == 0
        assert again.skipped == 2
        assert again.complete

    def test_cli_status_handles_timeout_only(self, timeout_spec, capsys):
        from repro.cli import main

        rc = main([
            "campaign", "status", "all-timeout",
            "--root", timeout_spec.results_root,
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "total: 2/2 done" in out
        assert "prep: store hits=0" in out
        assert "timed out:" in out
