"""Disk backend: round-trips, checksums, atomicity, the advisory index."""

import hashlib
import json

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.errors import StoreCorruptionError, StoreError
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.runner import replicate
from repro.store import (
    RESULT_SCHEMA_VERSION,
    DiskStore,
    canonical_json,
    open_store,
    pack_result,
    task_key,
    unpack_result,
)
from repro.store.backend import STORE_SCHEMA, _pack_array, _unpack_array


@pytest.fixture
def cfg():
    return SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=15))


@pytest.fixture
def runs(cfg):
    return replicate(ProbabilisticRelay(0.5), cfg, 2, seed=7)


@pytest.fixture
def store(tmp_path):
    return DiskStore(tmp_path / "store")


def key_for(cfg, seed=7):
    return task_key(ProbabilisticRelay(0.5), cfg, seed, "vector", "phase")


def assert_results_identical(a, b):
    np.testing.assert_array_equal(a.new_informed_by_slot, b.new_informed_by_slot)
    np.testing.assert_array_equal(a.broadcasts_by_slot, b.broadcasts_by_slot)
    assert a.new_informed_by_slot.dtype == b.new_informed_by_slot.dtype
    assert (a.n_field_nodes, a.collisions, a.total_tx, a.total_rx) == (
        b.n_field_nodes,
        b.collisions,
        b.total_tx,
        b.total_rx,
    )
    assert a.seed_entropy == b.seed_entropy
    np.testing.assert_array_equal(a.trace.new_by_phase_ring, b.trace.new_by_phase_ring)
    assert a.trace.config == b.trace.config
    if a.informed_mask is None:
        assert b.informed_mask is None
    else:
        np.testing.assert_array_equal(a.informed_mask, b.informed_mask)
        assert a.informed_mask.dtype == b.informed_mask.dtype


class TestPackUnpack:
    def test_round_trip_bit_identical(self, runs):
        for r in runs:
            assert_results_identical(r, unpack_result(pack_result(r)))

    def test_metrics_not_persisted(self, runs):
        assert "metrics" not in pack_result(runs[0])


def write_entry(store, key, payload, result_schema):
    """Write ``payload`` under ``key`` with a valid checksum, as ``put`` does."""
    text = canonical_json(payload)
    doc = {
        "schema": STORE_SCHEMA,
        "result_schema": result_schema,
        "key": key,
        "checksum": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "payload_json": text,
    }
    path = store.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


class TestBitPackedBooleans:
    @pytest.mark.parametrize("shape", [(0,), (1,), (7,), (8,), (9,), (3501,), (5, 13)])
    def test_round_trip(self, shape):
        a = np.random.default_rng(sum(shape)).random(shape) < 0.5
        packed = json.loads(json.dumps(_pack_array(a)))
        assert "data" not in packed
        b = _unpack_array(packed)
        assert b.dtype == np.bool_ and b.shape == a.shape
        np.testing.assert_array_equal(a, b)

    def test_other_dtypes_stay_lists(self):
        for a in (np.arange(5, dtype=np.int32), np.linspace(0, 1, 4)):
            packed = _pack_array(a)
            assert packed["data"] == a.tolist() and "bits" not in packed
            b = _unpack_array(packed)
            assert b.dtype == a.dtype
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "field",
        [
            {"dtype": "bool", "shape": [20], "bits": "/w=="},  # 1 byte, needs 3
            {"dtype": "bool", "shape": [4], "bits": "////"},  # 3 bytes, needs 1
            {"dtype": "bool", "shape": [4], "bits": "8!A=="},  # not base64
            {"dtype": "int64", "shape": [4], "bits": "8A=="},  # not boolean
        ],
    )
    def test_malformed_fields_raise(self, field):
        with pytest.raises(ValueError):
            _unpack_array(field)

    def test_legacy_list_mask_still_served(self, store, cfg, runs):
        """Entries written before bit-packing hold the mask as a list."""
        payload = {"results": [pack_result(r) for r in runs]}
        for doc, r in zip(payload["results"], runs, strict=True):
            doc["informed_mask"] = {
                "dtype": "bool",
                "shape": list(r.informed_mask.shape),
                "data": r.informed_mask.tolist(),
            }
        key = key_for(cfg)
        write_entry(store, key, payload, result_schema=2)
        got = store.get(key)
        for a, b in zip(runs, got, strict=True):
            assert_results_identical(a, b)
        assert store.verify() == []

    def test_short_bits_with_valid_checksum_rejected(self, store, cfg, runs):
        payload = {"results": [pack_result(r) for r in runs]}
        mask = payload["results"][0]["informed_mask"]
        assert mask["shape"][0] > 8
        mask["bits"] = "/w=="  # one byte of True: zero-padding would hide it
        key = key_for(cfg)
        write_entry(store, key, payload, result_schema=RESULT_SCHEMA_VERSION)
        with pytest.raises(StoreCorruptionError):
            store.get(key)
        assert [k for k, _ in store.verify()] == [key]

    def test_rho140_entry_is_small(self, store):
        """One 3501-node run: ~19 KB when its mask was a list of booleans."""
        cfg140 = SimulationConfig(analysis=AnalysisConfig(rho=140))
        (run,) = replicate(ProbabilisticRelay(0.5), cfg140, 1, seed=7)
        assert run.informed_mask.size == 3501
        key = task_key(ProbabilisticRelay(0.5), cfg140, 7, "vector", "phase")
        assert store.put(key, [run]) < 4096
        assert_results_identical(run, store.get(key)[0])


class TestDiskStore:
    def test_put_get_round_trip(self, store, cfg, runs):
        key = key_for(cfg)
        nbytes = store.put(key, runs)
        assert nbytes > 0
        got = store.get(key)
        assert len(got) == len(runs)
        for a, b in zip(runs, got, strict=True):
            assert_results_identical(a, b)

    def test_missing_key_is_none(self, store, cfg):
        assert store.get(key_for(cfg)) is None
        assert key_for(cfg) not in store

    def test_bad_key_rejected(self, store):
        with pytest.raises(StoreError):
            store.get("not-a-key")

    def test_tampered_payload_detected(self, store, cfg, runs):
        key = key_for(cfg)
        store.put(key, runs)
        path = store.path_for(key)
        doc = json.loads(path.read_text())
        doc["payload_json"] = doc["payload_json"].replace(
            '"collisions":', '"collisions": 9', 1
        )
        path.write_text(json.dumps(doc))
        with pytest.raises(StoreCorruptionError):
            store.get(key)

    def test_truncated_entry_detected(self, store, cfg, runs):
        key = key_for(cfg)
        store.put(key, runs)
        path = store.path_for(key)
        path.write_text(path.read_text()[: 50])
        with pytest.raises(StoreCorruptionError):
            store.get(key)

    def test_no_tmp_left_behind(self, store, cfg, runs):
        store.put(key_for(cfg), runs)
        assert list(store.objects_dir.rglob("*.tmp")) == []

    def test_delete(self, store, cfg, runs):
        key = key_for(cfg)
        store.put(key, runs)
        assert store.delete(key) is True
        assert store.get(key) is None
        assert store.delete(key) is False

    def test_keys_sorted(self, store, cfg, runs):
        ks = [key_for(cfg, seed=s) for s in (1, 2, 3)]
        for k in ks:
            store.put(k, runs[:1])
        assert list(store.keys()) == sorted(ks)

    def test_stats_and_verify(self, store, cfg, runs):
        store.put(key_for(cfg), runs)
        stats = store.stats()
        assert stats["entries"] == 1 and stats["nbytes"] > 0
        assert store.verify() == []

    def test_verify_reports_corruption(self, store, cfg, runs):
        key = key_for(cfg)
        store.put(key, runs)
        store.path_for(key).write_text("garbage")
        bad = store.verify()
        assert len(bad) == 1 and bad[0][0] == key

    def test_get_touches_mtime(self, store, cfg, runs):
        import os

        key = key_for(cfg)
        store.put(key, runs)
        path = store.path_for(key)
        os.utime(path, (1.0, 1.0))
        store.get(key)
        assert path.stat().st_mtime > 1.0

    def test_reopen_existing_store(self, store, cfg, runs):
        key = key_for(cfg)
        store.put(key, runs)
        again = DiskStore(store.root)
        got = again.get(key)
        assert got is not None and len(got) == len(runs)

    def test_wrong_schema_rejected(self, tmp_path):
        root = tmp_path / "bad"
        root.mkdir()
        (root / "store.json").write_text('{"schema": "something/else"}')
        with pytest.raises(StoreError):
            DiskStore(root)
        # The retired sharded layout's marker is refused before any write.
        (root / "store.json").write_text('{"schema": "repro.store/sharded-1"}')
        with pytest.raises(StoreError, match="repro.store/sharded-1"):
            open_store(root)
        assert sorted(p.name for p in root.iterdir()) == ["store.json"]

    def test_index_rebuilt_from_objects(self, store, cfg, runs):
        key = key_for(cfg)
        store.put(key, runs)
        store.flush_index()
        (store.root / "index.json").write_text("garbage")
        fresh = DiskStore(store.root)
        assert set(fresh.load_index()) == {key}

    def test_flush_index_persists(self, store, cfg, runs):
        key = key_for(cfg)
        store.put(key, runs)
        store.flush_index()
        doc = json.loads((store.root / "index.json").read_text())
        assert key in doc["entries"]
