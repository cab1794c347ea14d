"""Tests for the experiment harness: preparation, its caches, formatting."""

from repro.experiments import (
    PrepCache,
    Timer,
    format_table,
    prep_cache_info,
    prepare_locked,
)
from repro.experiments.harness import _prep_key


class TestHarness:
    def test_prepare_locked_cached_and_deterministic(self):
        a = prepare_locked("c6288", "sarlock", scale="tiny")
        b = prepare_locked("c6288", "sarlock", scale="tiny")
        assert a is b  # memoized
        assert a.locked.correct_key == b.locked.correct_key

    def test_prepared_netlist_is_resynthesized(self):
        prep = prepare_locked("c6288", "ttlock", scale="tiny")
        internal = set(prep.netlist.signals) - set(prep.netlist.inputs) - set(
            prep.netlist.outputs
        )
        assert not any(s.startswith("ttl_") for s in internal)

    def test_timer(self):
        with Timer() as t:
            pass
        assert t.elapsed >= 0.0

    def test_format_table(self):
        text = format_table("T", ("a", "bb"), [(1, 2), ("xxx", 4)], note="n")
        assert "T" in text and "xxx" in text and text.endswith("n")


class TestPrepCache:
    def test_differing_preps_never_alias(self):
        """Every argument that changes the output must distinguish the key."""
        base = prepare_locked("c6288", "sfll_hd", scale="tiny")
        assert prepare_locked("c6288", "sfll_hd", scale="tiny", h=2) is not base
        assert prepare_locked("c6288", "sfll_hd", scale="tiny",
                              synth_seed=7) is not base
        assert prepare_locked("c6288", "sfll_hd", scale="tiny",
                              resynth=False) is not base
        assert prepare_locked("c6288", "sfll_hd", scale="tiny", seed=5) is not base

    def test_equivalent_preps_share_one_entry(self):
        """h=None means h=1 for SFLL-HD; other techniques ignore h entirely."""
        assert prepare_locked("c6288", "sfll_hd", scale="tiny") is prepare_locked(
            "c6288", "sfll_hd", scale="tiny", h=1
        )
        assert prepare_locked("c6288", "sarlock", scale="tiny") is prepare_locked(
            "c6288", "sarlock", scale="tiny", h=3
        )

    def test_prep_key_normalization(self):
        assert _prep_key("c", "sfll_hd", "tiny", 0, 1, True, None) == _prep_key(
            "c", "sfll_hd", "tiny", 0, 1, True, 1
        )
        assert _prep_key("c", "sarlock", "tiny", 0, 1, True, 2) == _prep_key(
            "c", "sarlock", "tiny", 0, 1, True, None
        )
        assert _prep_key("c", "sfll_hd", "tiny", 0, 1, True, 2) != _prep_key(
            "c", "sfll_hd", "tiny", 0, 1, True, 1
        )

    def test_lru_bound_and_eviction(self):
        cache = PrepCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now the LRU entry
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.get("b") is None and cache.evictions == 1
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_cache_info_shape(self):
        info = prep_cache_info()
        assert info["capacity"] >= 1
        assert info["size"] <= info["capacity"]
        assert set(info) >= {"pid", "hits", "misses", "evictions"}

    def test_fork_safety_resets_on_pid_change(self, monkeypatch):
        """A cache first touched in a new process must start empty."""
        import repro.experiments.harness as harness

        cache = PrepCache(capacity=4)
        cache.put("parent", 1)
        monkeypatch.setattr(
            harness.os, "getpid", lambda: harness.os.getppid() ^ 0x5A5A
        )
        assert cache.get("parent") is None
        assert len(cache) == 0
