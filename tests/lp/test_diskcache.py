"""Persistent on-disk LP solve cache."""

import os
import pickle

import pytest

from repro.core.scatter import ScatterProblem, build_scatter_lp
from repro.lp import diskcache, solve
from repro.lp.dispatch import cache_stats, clear_cache
from repro.platform.examples import figure2_platform, figure2_targets


@pytest.fixture
def cache_dir(tmp_path):
    """Enable the disk store in a temp dir; restore the disabled state."""
    clear_cache()
    path = diskcache.set_cache_dir(str(tmp_path / "lpcache"))
    yield path
    diskcache.set_cache_dir(None)
    clear_cache()


def _fig2_lp():
    return build_scatter_lp(
        ScatterProblem(figure2_platform(), "Ps", figure2_targets()))


class TestStore:
    def test_disabled_by_default(self):
        diskcache.set_cache_dir(None)
        assert diskcache.get_cache_dir() is None
        assert diskcache.store("k", solve(_fig2_lp())) is False
        assert diskcache.load("k") is None
        assert diskcache.stats()["enabled"] is False

    def test_round_trip(self, cache_dir):
        sol = solve(_fig2_lp(), cache=False)
        assert diskcache.store("some-key", sol)
        loaded = diskcache.load("some-key")
        assert loaded is not None
        assert loaded.objective == sol.objective
        assert loaded.values == sol.values
        assert loaded.lp is None  # model stripped on disk

    def test_corrupt_entry_is_a_miss(self, cache_dir):
        sol = solve(_fig2_lp(), cache=False)
        diskcache.store("k", sol)
        (path,) = [os.path.join(cache_dir, f) for f in os.listdir(cache_dir)
                   if f.endswith(diskcache.SUFFIX)]
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        assert diskcache.load("k") is None

    def test_truncated_entry_is_a_miss(self, cache_dir):
        """A crash mid-write leaves a syntactically-valid prefix of a
        pickle stream; loading it must be a miss, never a crash."""
        sol = solve(_fig2_lp(), cache=False)
        diskcache.store("k", sol)
        (path,) = [os.path.join(cache_dir, f) for f in os.listdir(cache_dir)
                   if f.endswith(diskcache.SUFFIX)]
        blob = open(path, "rb").read()
        assert len(blob) > 16
        with open(path, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        assert diskcache.load("k") is None

    def test_non_solution_pickle_rejected(self, cache_dir):
        path = diskcache._entry_path(cache_dir, "evil")
        with open(path, "wb") as fh:
            pickle.dump({"not": "a solution"}, fh)
        assert diskcache.load("evil") is None

    def test_stats_and_clear(self, cache_dir):
        sol = solve(_fig2_lp(), cache=False)
        diskcache.store("a", sol)
        diskcache.store("b", sol)
        st = diskcache.stats()
        assert st["entries"] == 2 and st["bytes"] > 0
        assert diskcache.clear() == 2
        assert diskcache.stats()["entries"] == 0


class TestLRUEviction:
    @pytest.fixture
    def small_limit(self, cache_dir):
        """Cap the store at roughly two fig2 entries."""
        sol = solve(_fig2_lp(), cache=False)
        assert diskcache.store("probe", sol)
        entry_bytes = diskcache.stats()["bytes"]
        diskcache.clear()
        diskcache.set_cache_limit(int(entry_bytes * 2.5))
        yield sol
        diskcache.set_cache_limit(None)

    def test_default_limit_active(self):
        assert diskcache.get_cache_limit() == diskcache.DEFAULT_MAX_BYTES

    def test_store_evicts_oldest_beyond_limit(self, small_limit):
        sol = small_limit
        for key in ("k1", "k2", "k3"):
            diskcache.store(key, sol)
            os.utime(diskcache._entry_path(diskcache.get_cache_dir(), key),
                     (1_000_000, 1_000_000 + int(key[1])))
        diskcache.evict()
        assert diskcache.load("k1") is None        # oldest: evicted
        assert diskcache.load("k3") is not None    # newest: kept
        assert diskcache.stats()["entries"] <= 2
        assert diskcache.stats()["evictions"] >= 1

    def test_load_refreshes_recency(self, small_limit):
        sol = small_limit
        root = diskcache.get_cache_dir()
        diskcache.store("old", sol)
        diskcache.store("new", sol)
        # force "old" older than "new", then touch it via a load hit
        os.utime(diskcache._entry_path(root, "old"), (1, 1))
        assert diskcache.load("old") is not None
        os.utime(diskcache._entry_path(root, "new"), (2, 2))
        diskcache.store("k3", sol)  # pushes past the limit, evicts LRU
        assert diskcache.load("old") is not None   # refreshed: survives
        assert diskcache.load("new") is None       # stale: evicted

    def test_zero_limit_disables_eviction(self, cache_dir):
        diskcache.set_cache_limit(0)
        try:
            sol = solve(_fig2_lp(), cache=False)
            for i in range(5):
                diskcache.store(f"k{i}", sol)
            assert diskcache.evict() == 0
            assert diskcache.stats()["entries"] == 5
        finally:
            diskcache.set_cache_limit(None)

    def test_env_var_limit(self, cache_dir, monkeypatch):
        monkeypatch.setenv(diskcache.CACHE_MAX_BYTES_ENV, "12345")
        diskcache.set_cache_limit(None)
        assert diskcache.get_cache_limit() == 12345


class TestDispatchIntegration:
    def test_cross_process_simulation(self, cache_dir):
        """Memory cache cleared between solves == a fresh process; the
        second solve must be served from disk."""
        lp = _fig2_lp()
        first = solve(lp)
        assert diskcache.stats()["entries"] == 1
        clear_cache()  # forget in-process state, keep the disk store
        before = cache_stats()["disk_hits"]
        second = solve(_fig2_lp())
        assert cache_stats()["disk_hits"] == before + 1
        assert second.objective == first.objective
        assert second.values == first.values
        assert second.lp is not None  # caller's model re-attached
        assert second.by_name("TP") == first.objective

    def test_memory_hit_shortcircuits_disk(self, cache_dir):
        solve(_fig2_lp())
        before = cache_stats()["disk_hits"]
        solve(_fig2_lp())  # memo hit; disk untouched
        assert cache_stats()["disk_hits"] == before

    def test_warm_basis_implies_a_tag(self, cache_dir):
        """An explicit warm basis must never shadow the cold cache slot."""
        first = solve(_fig2_lp())
        warm = solve(_fig2_lp(), warm_basis=first.basis_labels)
        assert warm.objective == first.objective
        assert diskcache.stats()["entries"] == 2

    def test_env_var_enables_cache(self, tmp_path, monkeypatch):
        clear_cache()
        diskcache.set_cache_dir(None)
        target = str(tmp_path / "envcache")
        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, target)
        # reset the lazy env check
        monkeypatch.setattr(diskcache, "_env_checked", False)
        monkeypatch.setattr(diskcache, "_cache_dir", None)
        try:
            solve(_fig2_lp())
            assert diskcache.stats()["entries"] == 1
            assert diskcache.get_cache_dir() == os.path.abspath(target)
        finally:
            diskcache.set_cache_dir(None)
            clear_cache()
