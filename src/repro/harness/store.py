"""Content-addressed result store: memoized simulation results on disk.

Every run's :class:`~repro.obs.monitor.RunLedger` stamps its
configuration with a sha256 digest over the *canonicalised* run
arguments, and a deterministic simulator makes that digest a complete
description of the output — two runs with the same digest produce
byte-identical results, manifests, and traces.  This module turns that
property into a cache: a :class:`ResultStore` keyed by
:func:`store_key` (the config digest folded with the trace-category
filter and the ledger/trace schema versions) holding each run's
:class:`~repro.harness.runner.RunResult`, its ledger manifest, and
optionally its full JSONL trace as an artifact.

Consumers (all documented in ``docs/SERVING.md``):

* :func:`repro.harness.parallel.run_sweep` — ``cache_dir=`` skips
  digest-identical sweep cells;
* :class:`repro.serve.SimulationService` — the async simulation
  service dedupes every request against the store;
* ``repro.harness.perf`` — the hit-path latency benchmark gated in CI.

Storage contract:

* **Atomic writes.** An entry is staged in a private temp directory
  and published with one ``os.rename`` — readers never observe a
  partial entry, and concurrent writers racing on the same key resolve
  to one winner (the loser's staging directory is discarded; the
  content was identical anyway).
* **Self-verifying entries.** ``meta.json`` carries a sha256 checksum
  over the entry payload and every artifact; any mismatch, missing
  file, or JSON decode error makes :meth:`ResultStore.get` delete the
  entry and report a miss, so corruption degrades to recompute — never
  to a wrong answer.
* **Size-bounded LRU eviction.** With ``max_bytes`` set, each
  :meth:`~ResultStore.put` evicts least-recently-used entries until
  the store fits (the entry just written is always kept, even if it
  alone exceeds the cap).
* **Byte-identity.** :func:`manifest_bytes` serialises a cached
  manifest exactly as :meth:`RunLedger.write` does, so a cache hit's
  ledger file is byte-identical to the fresh run's —
  ``tests/test_result_store.py`` and ``tests/test_cached_sweep.py``
  pin this, and it is the acceptance oracle of ``docs/SERVING.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Version of the on-disk entry layout.  Folded into every
#: :func:`store_key`, so bumping it orphans (rather than misreads)
#: entries written under an older layout.
STORE_VERSION = 1

#: Entry kind of a cached simulation run (result + manifest + trace).
KIND_RUN = "run"

#: Entry kind of a warm machine image captured for a fault campaign.
KIND_SNAPSHOT = "snapshot"

#: Artifact name under which a run's JSONL trace is stored.
TRACE_ARTIFACT = "trace.jsonl"

#: Artifact name under which a pickled machine image is stored.
SNAPSHOT_ARTIFACT = "image.pkl"


def snapshot_key(app: str, variant: str, run_kwargs: Dict,
                 warm_checkpoints: int) -> str:
    """Store key of a warm campaign image.

    Folds the job's config digest with the warm-up depth and the
    machine-snapshot layout version
    (:data:`~repro.machine.snapshot.SNAPSHOT_VERSION`), so layout bumps
    orphan stale images exactly like :func:`store_key` orphans stale
    runs.
    """
    from repro.machine.snapshot import SNAPSHOT_VERSION

    inner = json.dumps(
        {"config_digest": job_digest(app, variant, run_kwargs),
         "warm_checkpoints": warm_checkpoints,
         "snapshot_version": SNAPSHOT_VERSION},
        sort_keys=True, separators=(",", ":"))
    return store_key(hashlib.sha256(inner.encode("utf-8")).hexdigest())


def job_digest(app: str, variant: str, run_kwargs: Dict,
               seed: Optional[int] = None) -> str:
    """The sha256 config digest of one (app, variant, kwargs) job.

    Exactly the digest a :class:`~repro.obs.monitor.RunLedger` for the
    same job would stamp into its manifest — the ledger is the oracle
    that makes cache hits provably equivalent to fresh runs.  ``seed``
    defaults to the workload's registered seed, mirroring the ledger
    construction in :meth:`repro.harness.observe.Instruments.close`.
    """
    from repro.obs.monitor import RunLedger
    from repro.workloads.splash2 import SPLASH2_SPECS

    if seed is None:
        spec = SPLASH2_SPECS.get(app)
        seed = spec.seed if spec is not None else None
    return RunLedger(app, variant, run_args=run_kwargs,
                     seed=seed).config_digest()


def store_key(config_digest: str,
              trace_categories: Optional[Sequence[str]] = None) -> str:
    """The store key of one cached run.

    Folds the config digest with the trace-category filter (a filtered
    trace is a different artifact than an unfiltered one) and with the
    ledger/trace-schema/store versions — so bumping any of those
    versions automatically invalidates every older entry instead of
    serving a stale layout.  The full contract is documented in
    ``docs/OBSERVABILITY.md`` ("The cache-key contract").
    """
    from repro.obs.monitor import LEDGER_VERSION
    from repro.obs.tracer import SCHEMA_VERSION

    blob = json.dumps(
        {"config_digest": config_digest,
         "trace_categories": (None if trace_categories is None
                              else sorted(trace_categories)),
         "ledger_version": LEDGER_VERSION,
         "schema_version": SCHEMA_VERSION,
         "store_version": STORE_VERSION},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_entry(cache: Optional[ResultStore], key: str,
              traced: bool) -> Optional[StoreEntry]:
    """The stored run under ``key``, or None when the cell must run.

    A traced caller needs the entry's manifest and trace as well as its
    result: an entry stored by an untraced run is a miss for it, and
    the re-run upgrades the entry in place.
    """
    entry = cache.get(key) if cache is not None else None
    if entry is not None and traced and (
            entry.payload.get("manifest") is None
            or not entry.has_artifact(TRACE_ARTIFACT)):
        return None
    return entry


def manifest_bytes(manifest: Dict) -> bytes:
    """Serialise a ledger manifest exactly as ``RunLedger.write`` does.

    Sorted keys, two-space indent, trailing newline — a cached
    manifest written through this function is byte-identical to the
    file the fresh run wrote.
    """
    return (json.dumps(manifest, sort_keys=True, indent=2)
            + "\n").encode("utf-8")


def run_payload(result, manifest: Optional[Dict] = None) -> Dict:
    """The entry payload of a cached run.

    ``result`` is a :class:`~repro.harness.runner.RunResult`; its
    wall-clock ``profile`` is deliberately dropped — a cached result
    must be wall-clock-free, like the ledger manifest.
    """
    fields = dataclasses.asdict(result)
    fields["profile"] = None
    return {"result": fields, "manifest": manifest}


def result_from_payload(payload: Dict):
    """Rebuild the :class:`RunResult` stored in a run entry."""
    from repro.harness.runner import RunResult

    return RunResult(**payload["result"])


class StoreEntry:
    """One retrieved cache entry: payload dict plus named artifacts."""

    def __init__(self, key: str, kind: str, payload: Dict,
                 path: str, artifacts: Sequence[str]) -> None:
        self.key = key
        self.kind = kind
        self.payload = payload
        self.path = path
        self.artifacts = tuple(artifacts)

    def has_artifact(self, name: str) -> bool:
        """True when the entry carries the named artifact file."""
        return name in self.artifacts

    def read_artifact(self, name: str) -> bytes:
        """The raw bytes of one artifact (checksum already verified)."""
        with open(os.path.join(self.path, name), "rb") as handle:
            return handle.read()


class ResultStore:
    """Digest-keyed result store with atomic writes and LRU eviction.

    ``root`` is created on demand.  ``max_bytes=None`` disables
    eviction.  ``tracer`` (any :class:`~repro.obs.tracer.Tracer`)
    receives ``svc.cache_*`` events for every hit, miss, store,
    eviction, and corruption — wire a
    :class:`~repro.obs.monitor.CacheHealthMonitor` behind it for live
    cache health.  ``clock`` is the recency source for LRU (tests
    inject a fake).
    """

    _ENTRY_FILE = "entry.json"
    _META_FILE = "meta.json"

    def __init__(self, root: str, max_bytes: Optional[int] = None,
                 tracer=None, clock: Callable[[], float] = time.time) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.root = root
        self.max_bytes = max_bytes
        self.tracer = tracer
        self.clock = clock
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corruptions = 0
        self.races_lost = 0
        self._stage_seq = 0
        os.makedirs(os.path.join(root, "objects"), exist_ok=True)

    # -- layout ---------------------------------------------------------

    def _entry_dir(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], key)

    def _stage_dir(self) -> str:
        self._stage_seq += 1
        return os.path.join(self.root, "tmp",
                            f"{os.getpid()}-{self._stage_seq}-"
                            f"{self.clock():.6f}")

    def _emit(self, name: str, **fields) -> None:
        if self.tracer is not None and self.tracer.enabled:
            # Service/cache events happen outside simulated time; the
            # schema fixes their ``ts`` at 0 (docs/OBSERVABILITY.md).
            self.tracer.emit(0, "svc", name, **fields)

    @staticmethod
    def _checksum(entry_bytes: bytes,
                  artifacts: Dict[str, bytes]) -> str:
        digest = hashlib.sha256(entry_bytes)
        for name in sorted(artifacts):
            digest.update(name.encode("utf-8"))
            digest.update(artifacts[name])
        return digest.hexdigest()

    # -- read path ------------------------------------------------------

    def get(self, key: str) -> Optional[StoreEntry]:
        """The entry under ``key``, or None on miss/corruption.

        A corrupted entry (missing file, bad JSON, checksum mismatch)
        is deleted and reported as a miss, so callers always fall back
        to recompute.
        """
        path = self._entry_dir(key)
        if not os.path.isdir(path):
            self.misses += 1
            self._emit("svc.cache_miss", key=key)
            return None
        try:
            entry = self._load(key, path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.corruptions += 1
            self.misses += 1
            self._emit("svc.cache_corrupt", key=key, reason=str(exc))
            shutil.rmtree(path, ignore_errors=True)
            return None
        self._touch(path)
        self.hits += 1
        self._emit("svc.cache_hit", key=key)
        return entry

    def _load(self, key: str, path: str) -> StoreEntry:
        with open(os.path.join(path, self._ENTRY_FILE), "rb") as handle:
            entry_bytes = handle.read()
        with open(os.path.join(path, self._META_FILE),
                  "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        artifact_names = [name for name in os.listdir(path)
                          if name not in (self._ENTRY_FILE, self._META_FILE)]
        artifacts = {}
        for name in artifact_names:
            with open(os.path.join(path, name), "rb") as handle:
                artifacts[name] = handle.read()
        if self._checksum(entry_bytes, artifacts) != meta["checksum"]:
            raise ValueError("checksum mismatch")
        entry = json.loads(entry_bytes)
        if entry["store_version"] != STORE_VERSION:
            raise ValueError(f"store version {entry['store_version']!r}")
        return StoreEntry(key, entry["kind"], entry["payload"], path,
                          sorted(artifact_names))

    def _touch(self, path: str) -> None:
        """Refresh the entry's LRU stamp (best-effort, atomic)."""
        meta_path = os.path.join(path, self._META_FILE)
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
            meta["last_access"] = self.clock()
            tmp = meta_path + f".touch-{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(meta, handle)
            os.replace(tmp, meta_path)
        except OSError:
            pass

    # -- write path -----------------------------------------------------

    def put(self, key: str, kind: str, payload: Dict,
            artifacts: Optional[Dict[str, bytes]] = None) -> None:
        """Publish one entry atomically; evict if over the size cap.

        An existing entry under ``key`` is replaced (used to *upgrade*
        a result-only entry with a manifest and trace).  Losing a
        publish race to a concurrent writer is silently tolerated —
        same key means same content.
        """
        artifacts = dict(artifacts or {})
        for name in artifacts:
            if name in (self._ENTRY_FILE, self._META_FILE) or os.sep in name:
                raise ValueError(f"invalid artifact name {name!r}")
        entry_bytes = json.dumps(
            {"store_version": STORE_VERSION, "key": key, "kind": kind,
             "payload": payload},
            sort_keys=True, indent=2).encode("utf-8")
        stage = self._stage_dir()
        os.makedirs(stage, exist_ok=True)
        try:
            with open(os.path.join(stage, self._ENTRY_FILE), "wb") as handle:
                handle.write(entry_bytes)
            size = len(entry_bytes)
            for name, data in artifacts.items():
                with open(os.path.join(stage, name), "wb") as handle:
                    handle.write(data)
                size += len(data)
            meta = {"checksum": self._checksum(entry_bytes, artifacts),
                    "size_bytes": size, "last_access": self.clock()}
            with open(os.path.join(stage, self._META_FILE), "w",
                      encoding="utf-8") as handle:
                json.dump(meta, handle)

            final = self._entry_dir(key)
            os.makedirs(os.path.dirname(final), exist_ok=True)
            if os.path.isdir(final):
                trash = final + f".old-{os.getpid()}-{self._stage_seq}"
                try:
                    os.rename(final, trash)
                except OSError:
                    pass  # a racer already moved it
                else:
                    shutil.rmtree(trash, ignore_errors=True)
            try:
                os.rename(stage, final)
            except OSError:
                # A concurrent writer published the same key first;
                # its content is equivalent by construction.
                self.races_lost += 1
                shutil.rmtree(stage, ignore_errors=True)
                return
        except BaseException:
            shutil.rmtree(stage, ignore_errors=True)
            raise
        self.stores += 1
        self._emit("svc.cache_store", key=key, bytes=size)
        if self.max_bytes is not None:
            self._evict(keep=key)

    # -- eviction & introspection --------------------------------------

    def _scan(self) -> List[Tuple[float, str, int, str]]:
        """(last_access, key, size, path) for every readable entry."""
        rows = []
        objects = os.path.join(self.root, "objects")
        for shard in sorted(os.listdir(objects)):
            shard_path = os.path.join(objects, shard)
            if not os.path.isdir(shard_path):
                continue
            for key in sorted(os.listdir(shard_path)):
                path = os.path.join(shard_path, key)
                try:
                    with open(os.path.join(path, self._META_FILE),
                              "r", encoding="utf-8") as handle:
                        meta = json.load(handle)
                    rows.append((float(meta["last_access"]), key,
                                 int(meta["size_bytes"]), path))
                except (OSError, ValueError, KeyError):
                    # Unreadable metadata: treat as oldest (evict first).
                    rows.append((float("-inf"), key, 0, path))
        return rows

    def _evict(self, keep: str) -> None:
        rows = self._scan()
        total = sum(size for _, _, size, _ in rows)
        # Oldest first; ties break on key for determinism.
        for last_access, key, size, path in sorted(rows):
            if total <= self.max_bytes:
                break
            if key == keep:
                continue  # never evict the entry just published
            shutil.rmtree(path, ignore_errors=True)
            total -= size
            self.evictions += 1
            self._emit("svc.cache_evict", key=key, bytes=size)

    def keys(self) -> Iterator[str]:
        """Every key currently in the store (unordered scan)."""
        for _, key, _, _ in self._scan():
            yield key

    def total_bytes(self) -> int:
        """Sum of entry sizes currently on disk."""
        return sum(size for _, _, size, _ in self._scan())

    @property
    def lookups(self) -> int:
        """Total ``get`` calls (hits + misses)."""
        return self.hits + self.misses

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for logs, ledgers, and the CLI."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corruptions": self.corruptions,
            "races_lost": self.races_lost,
        }
