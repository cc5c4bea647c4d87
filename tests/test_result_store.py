"""The content-addressed result store (repro.harness.store).

Pins the storage contract documented in docs/SERVING.md: atomic
publish, self-verifying entries (corruption degrades to recompute,
never a wrong answer), LRU eviction under a byte cap, concurrent
writers racing the same key resolving to one entry, and — the
acceptance oracle — :func:`manifest_bytes` reproducing the exact bytes
``RunLedger.write`` puts on disk.
"""

import hashlib
import json
import os
import threading

import pytest

from repro.harness.store import (
    KIND_RUN,
    STORE_VERSION,
    ResultStore,
    job_digest,
    manifest_bytes,
    store_key,
)
from repro.obs.monitor import RunLedger


def make_store(tmp_path, **kwargs) -> ResultStore:
    return ResultStore(str(tmp_path / "cache"), **kwargs)


def a_key(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        store = make_store(tmp_path)
        key = a_key("one")
        payload = {"result": {"x": 1}, "manifest": {"app": "lu"}}
        store.put(key, KIND_RUN, payload,
                  artifacts={"trace.jsonl": b'{"seq":0}\n'})
        entry = store.get(key)
        assert entry is not None
        assert entry.kind == KIND_RUN
        assert entry.payload == payload
        assert entry.has_artifact("trace.jsonl")
        assert entry.read_artifact("trace.jsonl") == b'{"seq":0}\n'
        assert store.stats() == {"hits": 1, "misses": 0, "stores": 1,
                                 "evictions": 0, "corruptions": 0,
                                 "races_lost": 0}

    def test_absent_key_is_a_miss(self, tmp_path):
        store = make_store(tmp_path)
        assert store.get(a_key("absent")) is None
        assert store.misses == 1
        assert store.lookups == 1

    def test_put_replaces_existing_entry(self, tmp_path):
        store = make_store(tmp_path)
        key = a_key("upgrade")
        store.put(key, KIND_RUN, {"result": {"x": 1}, "manifest": None})
        store.put(key, KIND_RUN, {"result": {"x": 1}, "manifest": {"m": 2}},
                  artifacts={"trace.jsonl": b"t\n"})
        entry = store.get(key)
        assert entry.payload["manifest"] == {"m": 2}
        assert entry.has_artifact("trace.jsonl")
        assert list(store.keys()) == [key]

    def test_reserved_artifact_names_rejected(self, tmp_path):
        store = make_store(tmp_path)
        for bad in ("entry.json", "meta.json", os.path.join("a", "b")):
            with pytest.raises(ValueError):
                store.put(a_key("bad"), KIND_RUN, {}, artifacts={bad: b""})


class TestCorruption:
    def _entry_dir(self, store, key):
        return os.path.join(store.root, "objects", key[:2], key)

    def test_flipped_artifact_byte_degrades_to_miss(self, tmp_path):
        store = make_store(tmp_path)
        key = a_key("corrupt")
        store.put(key, KIND_RUN, {"result": {}, "manifest": {}},
                  artifacts={"trace.jsonl": b"payload"})
        trace = os.path.join(self._entry_dir(store, key), "trace.jsonl")
        with open(trace, "wb") as handle:
            handle.write(b"tampered")
        assert store.get(key) is None
        assert store.corruptions == 1
        # The entry is gone: the caller recomputes and re-stores.
        assert not os.path.isdir(self._entry_dir(store, key))
        store.put(key, KIND_RUN, {"result": {}, "manifest": {}},
                  artifacts={"trace.jsonl": b"payload"})
        assert store.get(key) is not None

    def test_truncated_entry_json_degrades_to_miss(self, tmp_path):
        store = make_store(tmp_path)
        key = a_key("truncated")
        store.put(key, KIND_RUN, {"result": {}, "manifest": {}})
        entry_file = os.path.join(self._entry_dir(store, key), "entry.json")
        with open(entry_file, "w") as handle:
            handle.write('{"store_version"')
        assert store.get(key) is None
        assert store.corruptions == 1

    def test_missing_meta_degrades_to_miss(self, tmp_path):
        store = make_store(tmp_path)
        key = a_key("no-meta")
        store.put(key, KIND_RUN, {"result": {}, "manifest": {}})
        os.remove(os.path.join(self._entry_dir(store, key), "meta.json"))
        assert store.get(key) is None
        assert store.corruptions == 1


class TestEviction:
    def test_lru_eviction_under_byte_cap(self, tmp_path):
        clock = iter(range(1, 100))
        store = make_store(tmp_path, max_bytes=4096,
                           clock=lambda: float(next(clock)))
        blob = b"x" * 1500
        keys = [a_key(f"evict-{i}") for i in range(3)]
        for key in keys[:2]:
            store.put(key, KIND_RUN, {}, artifacts={"blob": blob})
        assert store.evictions == 0
        # Third entry pushes past 4096 bytes: the oldest goes.
        store.put(keys[2], KIND_RUN, {}, artifacts={"blob": blob})
        assert store.evictions == 1
        assert store.get(keys[0]) is None
        assert store.get(keys[1]) is not None
        assert store.get(keys[2]) is not None
        assert store.total_bytes() <= 4096

    def test_get_refreshes_recency(self, tmp_path):
        clock = iter(range(1, 100))
        store = make_store(tmp_path, max_bytes=4096,
                           clock=lambda: float(next(clock)))
        blob = b"x" * 1500
        keys = [a_key(f"touch-{i}") for i in range(3)]
        for key in keys[:2]:
            store.put(key, KIND_RUN, {}, artifacts={"blob": blob})
        assert store.get(keys[0]) is not None   # touch: now newest of the two
        store.put(keys[2], KIND_RUN, {}, artifacts={"blob": blob})
        assert store.get(keys[1]) is None       # LRU victim was keys[1]
        assert store.get(keys[0]) is not None

    def test_just_written_entry_never_evicted(self, tmp_path):
        store = make_store(tmp_path, max_bytes=64)
        key = a_key("huge")
        store.put(key, KIND_RUN, {}, artifacts={"blob": b"y" * 4096})
        assert store.get(key) is not None

    def test_bad_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_store(tmp_path, max_bytes=0)


class TestConcurrency:
    def test_writers_racing_the_same_key(self, tmp_path):
        store = make_store(tmp_path)
        key = a_key("race")
        payload = {"result": {"x": 1}, "manifest": {"m": 1}}
        barrier = threading.Barrier(8)
        errors = []

        def writer():
            try:
                barrier.wait()
                for _ in range(5):
                    store.put(key, KIND_RUN, payload,
                              artifacts={"trace.jsonl": b"identical\n"})
            except Exception as exc:  # noqa: BLE001 — collect, assert below
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        entry = store.get(key)
        assert entry is not None
        assert entry.payload == payload
        assert entry.read_artifact("trace.jsonl") == b"identical\n"
        assert list(store.keys()) == [key]
        # No staging debris left behind.
        tmp_dir = os.path.join(store.root, "tmp")
        assert not os.path.isdir(tmp_dir) or not os.listdir(tmp_dir)


class TestKeys:
    def test_store_key_separates_trace_category_filters(self):
        digest = "d" * 64
        full = store_key(digest)
        filtered = store_key(digest, trace_categories=["coh", "mem"])
        reordered = store_key(digest, trace_categories=["mem", "coh"])
        assert full != filtered
        assert filtered == reordered   # order-insensitive, set semantics

    def test_store_key_folds_store_version(self, monkeypatch):
        digest = "d" * 64
        before = store_key(digest)
        monkeypatch.setattr("repro.harness.store.STORE_VERSION",
                            STORE_VERSION + 1)
        assert store_key(digest) != before

    def test_job_digest_matches_ledger(self):
        kwargs = {"scale": 0.1, "n_procs": 4}
        from repro.workloads.splash2 import SPLASH2_SPECS
        seed = SPLASH2_SPECS["lu"].seed
        ledger = RunLedger("lu", "cp_parity", run_args=kwargs, seed=seed)
        assert job_digest("lu", "cp_parity", kwargs) == \
            ledger.config_digest()


class TestManifestBytes:
    def test_matches_run_ledger_write(self, tmp_path):
        ledger = RunLedger("lu", "cp_parity",
                           run_args={"scale": 0.1, "n_procs": 4}, seed=7)
        manifest = ledger.finalize()
        path = str(tmp_path / "ledger.json")
        ledger.write(path)
        with open(path, "rb") as handle:
            fresh = handle.read()
        # Through a JSON round trip, as a cached manifest would travel.
        cached = json.loads(json.dumps(manifest))
        assert manifest_bytes(cached) == fresh
