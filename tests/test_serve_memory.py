"""Read-through memory tier: LRU bounds, bit-identity, counters."""

import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.runner import replicate
from repro.serve import MemoryTier, ReadThroughStore
from repro.store import DiskStore, task_key
from repro.utils.rng import as_seed_sequence


@pytest.fixture
def results():
    cfg = SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=15))
    return replicate(ProbabilisticRelay(0.5), cfg, 4, seed=7)


@pytest.fixture
def keys():
    cfg = SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=15))
    children = as_seed_sequence(7).spawn(4)
    return [
        task_key(ProbabilisticRelay(0.5), cfg, child, "vector", "phase")
        for child in children
    ]


def assert_same(a, b):
    np.testing.assert_array_equal(a.new_informed_by_slot, b.new_informed_by_slot)
    np.testing.assert_array_equal(a.broadcasts_by_slot, b.broadcasts_by_slot)
    assert a.seed_entropy == b.seed_entropy


class TestMemoryTier:
    def test_bounded_lru_evicts_oldest(self):
        tier = MemoryTier(max_entries=2)
        tier.put("a", 1)
        tier.put("b", 2)
        tier.put("c", 3)
        assert len(tier) == 2
        assert "a" not in tier
        assert tier.get("b") == 2

    def test_get_refreshes_recency(self):
        tier = MemoryTier(max_entries=2)
        tier.put("a", 1)
        tier.put("b", 2)
        tier.get("a")  # a is now most recent
        tier.put("c", 3)
        assert "a" in tier
        assert "b" not in tier

    def test_peek_does_not_refresh_recency(self):
        tier = MemoryTier(max_entries=2)
        tier.put("a", 1)
        tier.put("b", 2)
        assert tier.peek("a") == 1  # no LRU move
        tier.put("c", 3)
        assert "a" not in tier

    def test_hit_miss_counters(self):
        tier = MemoryTier(max_entries=4)
        tier.put("a", 1)
        tier.get("a")
        tier.get("a")
        tier.get("zzz")
        assert tier.stats()["hits"] == 2
        assert tier.stats()["misses"] == 1

    def test_discard_and_clear(self):
        tier = MemoryTier(max_entries=4)
        tier.put("a", 1)
        tier.put("b", 2)
        tier.discard("a")
        assert "a" not in tier
        tier.clear()
        assert len(tier) == 0

    def test_stats(self):
        tier = MemoryTier(max_entries=3)
        tier.put("a", 1)
        stats = tier.stats()
        assert stats["entries"] == 1
        assert stats["max_entries"] == 3

    def test_eviction_cannot_split_a_get(self):
        """One thread's ``get`` pauses between its lookup and its LRU
        move while another thread's ``put`` would evict the key.  The
        tier's lock holds the ``put`` back until the ``get`` is done;
        without it the ``get`` would raise ``KeyError('a')``."""

        class PausingDict(OrderedDict):
            def __init__(self) -> None:
                super().__init__()
                self.pause = False
                self.paused = threading.Event()
                self.resume = threading.Event()

            def get(self, key, default=None):
                value = super().get(key, default)
                if self.pause:
                    self.paused.set()
                    self.resume.wait(0.5)
                return value

        tier = MemoryTier(max_entries=1)
        entries = PausingDict()
        tier._entries = entries
        tier.put("a", 1)
        entries.pause = True
        got, errors = [], []

        def read() -> None:
            try:
                got.append(tier.get("a"))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        reader = threading.Thread(target=read)
        reader.start()
        assert entries.paused.wait(5)
        writer = threading.Thread(target=tier.put, args=("b", 2))
        writer.start()
        writer.join(0.2)  # an unlocked put evicts "a" in this window
        entries.resume.set()
        reader.join(5)
        writer.join(5)
        assert not reader.is_alive() and not writer.is_alive()
        assert errors == []
        assert got == [1]
        assert "b" in tier and "a" not in tier
        assert tier.stats()["evictions"] == 1


class TestReadThroughStore:
    # Backed by a DiskStore given to it, or by a path it opens itself.
    @pytest.mark.parametrize("backend_of", [DiskStore, Path])
    def test_warm_reads_bit_identical(self, tmp_path, results, keys, backend_of):
        store = ReadThroughStore(backend_of(tmp_path / "s"), max_entries=8)
        for key, res in zip(keys, results):
            store.put(key, [res])
        # Cold (memory populated by put's write-through or first get),
        # then warm from memory: both bit-identical to the original.
        for key, res in zip(keys, results):
            (cold,) = store.get(key)
            (warm,) = store.get(key)
            assert_same(res, cold)
            assert_same(res, warm)

    def test_get_populates_memory_from_disk(self, tmp_path, results, keys):
        backend = DiskStore(tmp_path / "s")
        backend.put(keys[0], [results[0]])
        store = ReadThroughStore(backend, max_entries=8)
        assert store.memory.peek(keys[0]) is None
        store.get(keys[0])
        assert store.memory.peek(keys[0]) is not None

    def test_warm_get_skips_disk(self, tmp_path, results, keys):
        backend = DiskStore(tmp_path / "s")
        store = ReadThroughStore(backend, max_entries=8)
        store.put(keys[0], [results[0]])
        store.get(keys[0])  # memory now warm
        # Removing the backing file proves warm reads never touch disk.
        store.path_for(keys[0]).unlink()
        (warm,) = store.get(keys[0])
        assert_same(results[0], warm)

    def test_delete_clears_both_tiers(self, tmp_path, results, keys):
        backend = DiskStore(tmp_path / "s")
        store = ReadThroughStore(backend, max_entries=8)
        store.put(keys[0], [results[0]])
        store.get(keys[0])
        assert store.delete(keys[0])
        assert keys[0] not in store
        assert store.memory.peek(keys[0]) is None

    def test_eviction_falls_back_to_disk(self, tmp_path, results, keys):
        backend = DiskStore(tmp_path / "s")
        store = ReadThroughStore(backend, max_entries=1)
        for key, res in zip(keys, results):
            store.put(key, [res])
        # Only one key fits in memory; the rest read through to disk.
        for key, res in zip(keys, results):
            (back,) = store.get(key)
            assert_same(res, back)

    def test_stats_include_memory_substats(self, tmp_path, results, keys):
        backend = DiskStore(tmp_path / "s")
        store = ReadThroughStore(backend, max_entries=8)
        store.put(keys[0], [results[0]])
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["memory"]["max_entries"] == 8

    def test_wrapping_path_opens_backend(self, tmp_path, results, keys):
        store = ReadThroughStore(tmp_path / "s", max_entries=8)
        assert isinstance(store.backend, DiskStore)
        store.put(keys[0], [results[0]])
        assert keys[0] in store
