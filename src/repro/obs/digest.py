"""Determinism observatory: windowed state digests and chain diffing.

The repo's central invariant is bit-identical determinism — every
execution tier, sweep worker, snapshot restore, and forked campaign
must reproduce the reference run exactly.  This module provides the
instrument panel for that invariant: cheap, deterministic fingerprints
of component state, rolled into a hash chain with one *window* per
checkpoint boundary, so two runs can be compared window-by-window and
a divergence localized instead of merely detected.

Vocabulary (docs/OBSERVABILITY.md, "Determinism observatory"):

* **component digest** — sha256 over a canonical encoding of one
  component's plain-data state.  :func:`component_digest` prefers a
  component's ``digest_state()`` hook and falls back to hashing its
  ``snapshot()`` output, so every snapshot-capable component is
  digestable for free and any component can override what its
  fingerprint covers (e.g. to exclude state another component owns).
* **window** — the named component digests at one checkpoint boundary
  plus the machine digest folding them together with the previous
  window's machine digest (:func:`window_digest`).  Window 0 is the
  initial state; window *k* corresponds to checkpoint epoch *k*.
* **chain** — the ordered windows of one run (:class:`DigestChain`).
  Because each machine digest incorporates its predecessor, equal
  chain *tips* imply equal histories, and the first divergent window
  of two runs is well-defined (:func:`first_divergence`).

Digests are *observations*: they never enter cache keys, ledgers, or
any byte-identical artifact; they ride beside results exactly the way
profiles do (``RunResult.digest``, ``sweep.digest.json``).  Canonical
encoding is JSON with sorted keys (integer dict keys are coerced to
their decimal strings, sets are sorted into lists), which is
deterministic for the plain-data values ``snapshot()`` methods return.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.tracer import NULL_TRACER

#: Version of the digest window/chain shape (events and side-channel
#: files carry it; bump when the hashed encoding or window layout
#: changes — digests from different schemas are never comparable).
DIGEST_SCHEMA = 1

#: ``prev`` of the first window in every chain.
GENESIS = "genesis"


def _canonical_default(value):
    """Encode the non-JSON types snapshot state may contain."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"cannot canonicalize {type(value).__name__!r} "
                    f"for digesting: {value!r}")


def canonical_bytes(value) -> bytes:
    """Deterministic byte encoding of plain snapshot data.

    JSON with sorted keys and no whitespace; integer dict keys become
    decimal strings (all-int key spaces stay totally ordered), sets
    are sorted.  Equal values always encode equally; the encoding is
    stable across processes and interpreter runs.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=_canonical_default).encode("utf-8")


def digest_value(value) -> str:
    """sha256 hex digest of :func:`canonical_bytes`."""
    return hashlib.sha256(canonical_bytes(value)).hexdigest()


def packed_ints_digest(values: Iterable[int]) -> str:
    """sha256 over little-endian int64-packed ``values``.

    The fast path for large homogeneous integer state — calendar
    buckets, sample time series — where canonical JSON spends nearly
    all its time on int-to-decimal conversion.  Roughly 5x cheaper for
    the same data; ``digest_state()`` hooks use it so that per-window
    digesting stays inside the perf gate
    (``repro.harness.perf.DIGEST_OVERHEAD_MAX``) and event-granularity
    bisection replays stay fast.  Byte order is normalised so digests
    compare across hosts.
    """
    packed = array("q", values)
    if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
        packed.byteswap()
    return hashlib.sha256(packed.tobytes()).hexdigest()


def component_digest(component) -> str:
    """Fingerprint one stateful component.

    Prefers the component's ``digest_state()`` hook; every component
    without one is digested from its ``snapshot()`` output, which the
    uniform capture protocol (docs/SNAPSHOTS.md) already guarantees is
    plain, deterministic data.
    """
    hook = getattr(component, "digest_state", None)
    state = hook() if hook is not None else component.snapshot()
    return digest_value(state)


def window_digest(prev: str, components: Dict[str, str]) -> str:
    """Fold one window's component digests onto the chain.

    Deliberately a pure function of ``(prev, components)`` so
    ``trace-lint`` can recompute it from a ``digest.window`` event's
    fields and verify the chain linkage offline.
    """
    return digest_value({"schema": DIGEST_SCHEMA, "prev": prev,
                         "components": components})


class DigestChain:
    """The ordered digest windows of one run.

    Plain-data throughout: :meth:`to_jsonable` / :meth:`from_jsonable`
    round-trip through JSON (and through machine snapshot images, so a
    restored run's chain continues exactly where the image left off —
    the same contract trace sequence numbers follow).
    """

    __slots__ = ("windows",)

    def __init__(self, windows: Optional[List[Dict]] = None) -> None:
        self.windows: List[Dict] = list(windows or [])

    @property
    def tip(self) -> str:
        """The latest machine digest (``GENESIS`` for an empty chain)."""
        return self.windows[-1]["machine"] if self.windows else GENESIS

    def append(self, components: Dict[str, str], *, epoch: int,
               ts: int) -> Dict:
        """Record one window and return it."""
        prev = self.tip
        window = {"window": len(self.windows), "epoch": epoch, "ts": ts,
                  "prev": prev, "components": dict(components),
                  "machine": window_digest(prev, components)}
        self.windows.append(window)
        return window

    def to_jsonable(self) -> Dict:
        return {"schema": DIGEST_SCHEMA,
                "windows": [dict(w) for w in self.windows]}

    @classmethod
    def from_jsonable(cls, data: Dict) -> "DigestChain":
        schema = data.get("schema")
        if schema != DIGEST_SCHEMA:
            raise ValueError(f"digest chain schema {schema!r} != "
                             f"supported {DIGEST_SCHEMA}")
        # Copy each window: a restored chain must never alias the
        # (possibly shared) image it came from (docs/SNAPSHOTS.md).
        return cls([dict(w, components=dict(w["components"]))
                    for w in data["windows"]])

    def __len__(self) -> int:
        return len(self.windows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DigestChain)
                and self.windows == other.windows)


class DigestRecorder:
    """Collects a machine's digest chain and narrates it to a tracer.

    Installed on a machine with ``Machine.install_digests``; the
    machine records a window at every checkpoint boundary (and on
    demand via ``Machine.record_digest``).  When a tracer is attached
    each window is also emitted live as a ``digest.window`` event, in
    stream order right after the ``ckpt.commit`` it observes.
    """

    __slots__ = ("chain", "tracer")

    def __init__(self, tracer=NULL_TRACER) -> None:
        self.chain = DigestChain()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def record(self, components: Dict[str, str], *, epoch: int,
               ts: int) -> Dict:
        """Append one window; emit ``digest.window`` when traced."""
        window = self.chain.append(components, epoch=epoch, ts=ts)
        if self.tracer.enabled:
            self.tracer.emit(ts, "digest", "digest.window",
                             window=window["window"], epoch=epoch,
                             machine=window["machine"],
                             prev=window["prev"],
                             components=window["components"])
        return window


def first_divergence(a: Sequence[Dict],
                     b: Sequence[Dict]) -> Optional[Dict]:
    """Locate the first divergent window of two chains.

    ``a`` and ``b`` are window lists (``DigestChain.windows`` or the
    ``windows`` key of a side-channel file).  Returns ``None`` when the
    chains are identical, else a dict naming the first divergent
    window, the first divergent component inside it (components are
    compared in sorted-name order; ``None`` when only chain length
    differs), and both sides' values.
    """
    for wa, wb in zip(a, b):
        if wa["machine"] == wb["machine"]:
            continue
        component = None
        for name in sorted(set(wa["components"]) | set(wb["components"])):
            if wa["components"].get(name) != wb["components"].get(name):
                component = name
                break
        return {"window": wa["window"], "epoch": wa["epoch"],
                "component": component,
                "a": wa["components"].get(component) if component else
                wa["machine"],
                "b": wb["components"].get(component) if component else
                wb["machine"]}
    if len(a) != len(b):
        short, long_ = (a, b) if len(a) < len(b) else (b, a)
        extra = long_[len(short)]
        return {"window": extra["window"], "epoch": extra["epoch"],
                "component": None,
                "a": a[len(short)]["machine"] if len(a) > len(short)
                else None,
                "b": b[len(short)]["machine"] if len(b) > len(short)
                else None}
    return None


def merge_sweep_digests(labels: Sequence[str],
                        digests: Sequence[Optional[Dict]]) -> Dict:
    """Fold per-job digest chains into the ``sweep.digest.json`` shape.

    Jobs appear in sweep order (which is deterministic), so the merged
    document is identical for serial and parallel executions of the
    same sweep — the property the CI determinism gate checks.
    """
    jobs = [{"label": label, "digest": chain}
            for label, chain in zip(labels, digests)]
    return {"schema": DIGEST_SCHEMA, "jobs": jobs}


def write_digest_file(path: str, payload: Dict) -> None:
    """Write a digest side-channel document (sorted keys, trailing NL)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def read_digest_file(path: str) -> Dict:
    """Read a digest side-channel document, validating its schema."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    schema = payload.get("schema")
    if schema != DIGEST_SCHEMA:
        raise ValueError(f"{path}: digest schema {schema!r} != "
                         f"supported {DIGEST_SCHEMA}")
    return payload
