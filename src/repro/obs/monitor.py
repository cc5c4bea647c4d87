"""Streaming run-health monitors and the run ledger.

Post-mortem traces (``docs/OBSERVABILITY.md``) answer "what happened";
this module answers "how is the run doing *right now*".  A
:class:`MonitorSuite` interposes on the tracer's sink, so monitors see
every event in-process — no file round-trip, no re-parse — and keep
O(1)-per-event health state:

* :class:`LogOccupancyMonitor` — per-node log occupancy and its
  high-water mark, with configurable high-water alerts (the live view
  of Figure 11's "maximum log size").
* :class:`CheckpointCadenceMonitor` — checkpoint-interval jitter
  against the configured cadence (emergency checkpoints show up as
  short intervals).
* :class:`TrafficRateMonitor` — per-node coherence-transition and
  log-append (parity-update) rates over simulated time.
* :class:`RecoveryMonitor` — recovery-phase durations and whether an
  in-flight recovery completed.
* :class:`MemTrafficMonitor` — per-node L1/L2 hit/miss and
  remote-reference totals from the fast path's ``mem.batch`` events.
* :class:`SpanLatencyMonitor` — streaming per-class transaction
  latency digests from ``span.end`` events (schema v2), with optional
  tail-latency high-water alerts.

Monitors deliberately mirror the simulator's warmup semantics: the
``sim.warmup_done`` event resets the same state the machine resets
(watermarks, hit/miss totals), so final verdicts agree bit-for-bit
with the simulator's own steady-state statistics — pinned by
``tests/test_obs_monitor.py``.

The :class:`RunLedger` stamps a finished run into a machine-readable
manifest: config digest (sha256 over the canonicalised run arguments),
workload seed, trace schema version, headline results, and the final
monitor verdicts.  Ledgers are deliberately free of wall-clock values
so a re-run (serial or parallel) produces a byte-identical manifest —
the property the sweep determinism test pins.

Quick start (:func:`repro.harness.observe.run_monitors` is the
standard set a run's ledger and ``repro report`` both use)::

    from repro.harness.observe import run_monitors
    from repro.obs import JsonlFileSink, MonitorSuite, Tracer

    suite = MonitorSuite(run_monitors("cp_parity",
                                      {"interval_ns": 250_000}),
                         sink=JsonlFileSink("run.jsonl"))
    tracer = Tracer(suite)
    ... run the machine ...
    tracer.close()
    print(suite.verdicts())
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Optional

from repro.obs.metrics import LogHistogram
from repro.obs.tracer import SCHEMA_VERSION, Tracer

#: Version of the ledger manifest layout (bumped on incompatible change).
LEDGER_VERSION = 1


class Monitor:
    """Base class: consumes trace events, renders a health verdict.

    Subclasses override :meth:`observe` (called once per event, in
    emission order) and :meth:`verdict` (a JSON-able dict that must
    contain a boolean ``"healthy"`` key).
    """

    #: Stable key of this monitor in suite verdicts and ledgers.
    name = "monitor"

    def observe(self, event: Dict) -> None:
        """Consume one trace event (same dicts the sink receives)."""
        raise NotImplementedError

    def verdict(self) -> Dict:
        """Current health state as a JSON-able dict with ``healthy``."""
        raise NotImplementedError

    @property
    def healthy(self) -> bool:
        """Convenience view of ``verdict()["healthy"]``."""
        return bool(self.verdict().get("healthy", True))


class MonitorSuite:
    """A tee *sink*: feeds every event to each monitor, then onward.

    Install it as (or around) a tracer's sink —
    ``Tracer(MonitorSuite(monitors, JsonlFileSink(path)))`` — and the
    monitors observe the live stream in-process while the wrapped sink
    still persists it.  ``sink=None`` monitors without writing a file
    at all.
    """

    def __init__(self, monitors, sink=None) -> None:
        self.monitors: List[Monitor] = list(monitors)
        names = [m.name for m in self.monitors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate monitor names: {names}")
        self.sink = sink

    def write(self, event: Dict) -> None:
        """Sink protocol: observe, then forward."""
        for monitor in self.monitors:
            monitor.observe(event)
        if self.sink is not None:
            self.sink.write(event)

    def close(self) -> None:
        """Sink protocol: close the wrapped sink (monitors stay live)."""
        if self.sink is not None:
            self.sink.close()

    def verdicts(self) -> Dict[str, Dict]:
        """``{monitor name: verdict dict}`` for every monitor."""
        return {m.name: m.verdict() for m in self.monitors}

    @property
    def healthy(self) -> bool:
        """True when every monitor reports healthy."""
        return all(m.healthy for m in self.monitors)


class LogOccupancyMonitor(Monitor):
    """Per-node log occupancy, high-water marks, and overflow alerts.

    Occupancy tracks ``bytes_used`` from ``log.append`` /
    ``log.reclaim`` events; the watermark restarts at the
    ``sim.warmup_done`` marker exactly like the simulator's own
    ``MemoryLog.max_bytes_used`` reset, so the final
    ``watermark_bytes`` equal Figure 11's per-node maxima bit-for-bit.

    With ``capacity_bytes`` set, crossing ``high_water_fraction`` of it
    records an alert (one per excursion: the alert re-arms only after
    occupancy falls back below the threshold).
    """

    name = "log_occupancy"

    def __init__(self, capacity_bytes: Optional[int] = None,
                 high_water_fraction: float = 0.9) -> None:
        if not 0.0 < high_water_fraction <= 1.0:
            raise ValueError("high_water_fraction must be in (0, 1]")
        self.capacity_bytes = capacity_bytes
        self.high_water_fraction = high_water_fraction
        self.threshold_bytes = (None if capacity_bytes is None
                                else high_water_fraction * capacity_bytes)
        self.occupancy: Dict[int, int] = {}
        self.watermark: Dict[int, int] = {}
        self.alerts: List[Dict] = []
        self._above: Dict[int, bool] = {}

    def observe(self, event: Dict) -> None:
        name = event.get("name")
        if name == "log.append":
            node = event["node"]
            used = event["bytes_used"]
            self.occupancy[node] = used
            if used > self.watermark.get(node, 0):
                self.watermark[node] = used
            if self.threshold_bytes is not None:
                if used >= self.threshold_bytes:
                    if not self._above.get(node):
                        self._above[node] = True
                        self.alerts.append({"node": node, "ts": event["ts"],
                                            "bytes_used": used})
                else:
                    self._above[node] = False
        elif name == "log.reclaim":
            node = event["node"]
            used = event["bytes_used"]
            self.occupancy[node] = used
            if (self.threshold_bytes is not None
                    and used < self.threshold_bytes):
                self._above[node] = False
        elif name == "sim.warmup_done":
            # Mirror Machine.note_warmup_done: the high-water mark
            # restarts (occupancy itself carries on) so the verdict
            # reports steady state, not first-touch initialisation.
            self.watermark = {}

    def verdict(self) -> Dict:
        watermarks = dict(sorted(self.watermark.items()))
        return {
            "healthy": not self.alerts,
            "capacity_bytes": self.capacity_bytes,
            "watermark_bytes": watermarks,
            "max_watermark_bytes": max(watermarks.values(), default=0),
            "high_water_alerts": list(self.alerts),
        }


class CheckpointCadenceMonitor(Monitor):
    """Checkpoint-interval jitter against the configured cadence.

    Tracks the gap between consecutive ``ckpt.commit`` events.  With
    ``interval_ns`` set, an interval outside ``(1 ± tolerance) ×
    interval_ns`` is recorded as an excursion — emergency (log
    pressure) checkpoints show up as short intervals, stalled
    checkpointing as long ones.  Without ``interval_ns`` (CpInf
    variants) the monitor is purely informational.
    """

    name = "checkpoint_cadence"

    def __init__(self, interval_ns: Optional[int] = None,
                 tolerance: float = 0.5) -> None:
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.interval_ns = interval_ns
        self.tolerance = tolerance
        self.commit_ts: List[int] = []
        self.excursions: List[Dict] = []

    def observe(self, event: Dict) -> None:
        if event.get("name") != "ckpt.commit":
            return
        ts = event["ts"]
        if self.commit_ts and self.interval_ns:
            gap = ts - self.commit_ts[-1]
            lo = (1.0 - self.tolerance) * self.interval_ns
            hi = (1.0 + self.tolerance) * self.interval_ns
            if not lo <= gap <= hi:
                self.excursions.append(
                    {"epoch": event.get("epoch"), "ts": ts, "gap_ns": gap})
        self.commit_ts.append(ts)

    def verdict(self) -> Dict:
        gaps = [b - a for a, b in zip(self.commit_ts, self.commit_ts[1:])]
        return {
            "healthy": not self.excursions,
            "interval_ns": self.interval_ns,
            "commits": len(self.commit_ts),
            "mean_gap_ns": (sum(gaps) / len(gaps)) if gaps else None,
            "min_gap_ns": min(gaps, default=None),
            "max_gap_ns": max(gaps, default=None),
            "excursions": list(self.excursions),
        }


class TrafficRateMonitor(Monitor):
    """Per-node coherence and parity-update (log-append) event rates.

    Every ``coh.transition`` is one directory transaction; every
    ``log.append`` implies one logging + parity-update action on its
    home node.  Rates are events per simulated microsecond over the
    observed time span — a live load profile per node, and an
    imbalance check (``max_over_mean`` spikes when one node is hot).
    """

    name = "traffic_rate"

    def __init__(self, max_over_mean_limit: Optional[float] = None) -> None:
        self.max_over_mean_limit = max_over_mean_limit
        self.coh_events: Dict[int, int] = {}
        self.log_events: Dict[int, int] = {}
        self.first_ts: Optional[int] = None
        self.last_ts: Optional[int] = None

    def observe(self, event: Dict) -> None:
        name = event.get("name")
        if name == "coh.transition":
            node = event["node"]
            self.coh_events[node] = self.coh_events.get(node, 0) + 1
        elif name == "log.append":
            node = event["node"]
            self.log_events[node] = self.log_events.get(node, 0) + 1
        else:
            return
        ts = event["ts"]
        if self.first_ts is None:
            self.first_ts = ts
        self.last_ts = ts

    def verdict(self) -> Dict:
        span_ns = ((self.last_ts - self.first_ts)
                   if self.first_ts is not None else 0)
        span_us = span_ns / 1e3 if span_ns > 0 else None

        def rates(counts: Dict[int, int]) -> Dict[int, float]:
            if span_us is None:
                return {}
            return {node: count / span_us
                    for node, count in sorted(counts.items())}

        coh_rates = rates(self.coh_events)
        ratio = None
        if coh_rates:
            mean = sum(coh_rates.values()) / len(coh_rates)
            ratio = (max(coh_rates.values()) / mean) if mean else None
        unhealthy = (self.max_over_mean_limit is not None
                     and ratio is not None
                     and ratio > self.max_over_mean_limit)
        return {
            "healthy": not unhealthy,
            "span_ns": span_ns,
            "coh_events": dict(sorted(self.coh_events.items())),
            "log_events": dict(sorted(self.log_events.items())),
            "coh_per_us": coh_rates,
            "log_per_us": rates(self.log_events),
            "coh_max_over_mean": ratio,
        }


class RecoveryMonitor(Monitor):
    """Recovery-phase durations and completion tracking.

    Unhealthy exactly when a recovery began (``recovery.begin``) but
    never reached ``recovery.end`` — a run that died mid-recovery.
    Phase durations come from ``phase_begin``/``phase_end`` pairs, the
    same ground truth :func:`repro.obs.analysis.recovery_breakdown`
    uses for Figure 12.
    """

    name = "recovery"

    def __init__(self) -> None:
        self.recoveries = 0
        self.completed = 0
        self.phase_ns: Dict[str, int] = {}
        self.lost_work_ns: Optional[int] = None
        self.entries_undone: Optional[int] = None
        self._phase_begin: Dict[str, int] = {}

    def observe(self, event: Dict) -> None:
        name = event.get("name")
        if name == "recovery.begin":
            self.recoveries += 1
            self._phase_begin.clear()
        elif name == "recovery.phase_begin":
            self._phase_begin[event["phase"]] = event["ts"]
        elif name == "recovery.phase_end":
            phase = event["phase"]
            begin = self._phase_begin.get(phase)
            if begin is not None:
                self.phase_ns[phase] = event["ts"] - begin
        elif name == "recovery.end":
            self.completed += 1
            self.lost_work_ns = event.get("lost_work_ns")
            self.entries_undone = event.get("entries_undone")

    def verdict(self) -> Dict:
        return {
            "healthy": self.recoveries == self.completed,
            "recoveries": self.recoveries,
            "completed": self.completed,
            "phase_ns": dict(self.phase_ns),
            "lost_work_ns": self.lost_work_ns,
            "entries_undone": self.entries_undone,
        }


class MemTrafficMonitor(Monitor):
    """Per-node cache hit/miss and remote-reference totals.

    Aggregates the fast path's ``mem.batch`` events.  Totals restart at
    ``sim.warmup_done`` — the same reset the machine applies to its
    L1/L2 counters — so final totals equal the simulator's steady-state
    hit/miss statistics exactly.  Informational (always healthy);
    absent ``mem`` events (reference loop, category filtered out) leave
    every total at zero.
    """

    name = "mem_traffic"
    _FIELDS = ("refs", "l1_hits", "l1_misses", "l2_hits", "l2_misses",
               "remote")

    def __init__(self) -> None:
        self.per_node: Dict[int, Dict[str, int]] = {}
        self.batches = 0

    def observe(self, event: Dict) -> None:
        name = event.get("name")
        if name == "mem.batch":
            self.batches += 1
            totals = self.per_node.setdefault(
                event["node"], dict.fromkeys(self._FIELDS, 0))
            for fieldname in self._FIELDS:
                totals[fieldname] += event[fieldname]
        elif name == "sim.warmup_done":
            # Mirror Machine.note_warmup_done's counter reset.
            self.per_node = {}

    def verdict(self) -> Dict:
        totals = dict.fromkeys(self._FIELDS, 0)
        for node_totals in self.per_node.values():
            for fieldname in self._FIELDS:
                totals[fieldname] += node_totals[fieldname]
        l1 = totals["l1_hits"] + totals["l1_misses"]
        l2 = totals["l2_hits"] + totals["l2_misses"]
        return {
            "healthy": True,
            "batches": self.batches,
            "per_node": {node: dict(vals) for node, vals
                         in sorted(self.per_node.items())},
            "totals": totals,
            "l1_hit_rate": (totals["l1_hits"] / l1) if l1 else None,
            "l2_hit_rate": (totals["l2_hits"] / l2) if l2 else None,
            "remote_fraction": ((totals["remote"] / totals["refs"])
                                if totals["refs"] else None),
        }


class SpanLatencyMonitor(Monitor):
    """Streaming per-class transaction-latency digests with tail alerts.

    Consumes ``span.end`` events (schema v2) into one
    :class:`~repro.obs.metrics.LogHistogram` per span class — the same
    histogram type the machine feeds live through its
    :class:`~repro.obs.spans.SpanRecorder` — so the final digests equal
    the live ``lat.*`` summaries bit-for-bit (pinned by
    ``tests/test_obs_monitor.py``).  Deliberately *not* reset at
    ``sim.warmup_done``: the live latency histograms are never reset
    either (unlike the ``txn.*`` counters), and warmup transactions are
    real latency samples.

    ``high_water_ns`` maps span classes to latency ceilings; a span of
    that class exceeding its ceiling records one alert (class, txn,
    ts, dur_ns) and makes the verdict unhealthy.  ``max_alerts`` bounds
    the retained list so a pathological run cannot balloon the ledger;
    ``alerts_total`` keeps the true count.
    """

    name = "span_latency"

    def __init__(self, high_water_ns: Optional[Dict[str, int]] = None,
                 max_alerts: int = 32) -> None:
        self.high_water_ns = dict(high_water_ns or {})
        self.max_alerts = max_alerts
        self.by_class: Dict[str, LogHistogram] = {}
        self.alerts: List[Dict] = []
        self.alerts_total = 0

    def observe(self, event: Dict) -> None:
        if event.get("name") != "span.end":
            return
        cls = event["class"]
        histogram = self.by_class.get(cls)
        if histogram is None:
            histogram = self.by_class[cls] = LogHistogram("lat." + cls)
        dur = event["dur_ns"]
        histogram.record(dur)
        ceiling = self.high_water_ns.get(cls)
        if ceiling is not None and dur > ceiling:
            self.alerts_total += 1
            if len(self.alerts) < self.max_alerts:
                self.alerts.append({"class": cls, "txn": event["txn"],
                                    "ts": event["ts"], "dur_ns": dur})

    def verdict(self) -> Dict:
        return {
            "healthy": self.alerts_total == 0,
            "classes": {cls: histogram.summary() for cls, histogram
                        in sorted(self.by_class.items())},
            "high_water_ns": dict(sorted(self.high_water_ns.items())),
            "alerts": list(self.alerts),
            "alerts_total": self.alerts_total,
        }


class CacheHealthMonitor(Monitor):
    """Result-cache health from the serving layer's ``svc.*`` stream.

    Counts cache hits, misses, stores, evictions, and corruptions as
    :class:`~repro.harness.store.ResultStore` (or the simulation
    service wrapping it) emits them, and renders the live hit rate.
    Unhealthy when any entry was found corrupted — corruption degrades
    to recompute, never to a wrong answer, but it still means disk rot
    or an interrupted writer worth investigating — or, with
    ``min_hit_rate`` set, when the hit rate over at least
    ``min_lookups`` lookups falls below it.
    """

    name = "cache_health"

    def __init__(self, min_hit_rate: Optional[float] = None,
                 min_lookups: int = 10) -> None:
        if min_hit_rate is not None and not 0.0 <= min_hit_rate <= 1.0:
            raise ValueError("min_hit_rate must be in [0, 1]")
        self.min_hit_rate = min_hit_rate
        self.min_lookups = min_lookups
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.corruptions = 0
        self.corrupt_keys: List[str] = []

    def observe(self, event: Dict) -> None:
        name = event.get("name")
        if name == "svc.cache_hit":
            self.hits += 1
        elif name == "svc.cache_miss":
            self.misses += 1
        elif name == "svc.cache_store":
            self.stores += 1
        elif name == "svc.cache_evict":
            self.evictions += 1
            self.evicted_bytes += event.get("bytes", 0)
        elif name == "svc.cache_corrupt":
            self.corruptions += 1
            if len(self.corrupt_keys) < 32:
                self.corrupt_keys.append(event.get("key"))

    def verdict(self) -> Dict:
        lookups = self.hits + self.misses
        hit_rate = (self.hits / lookups) if lookups else None
        starved = (self.min_hit_rate is not None
                   and lookups >= self.min_lookups
                   and hit_rate is not None
                   and hit_rate < self.min_hit_rate)
        return {
            "healthy": self.corruptions == 0 and not starved,
            "lookups": lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": hit_rate,
            "stores": self.stores,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "corruptions": self.corruptions,
            "corrupt_keys": list(self.corrupt_keys),
            "min_hit_rate": self.min_hit_rate,
        }


def _canonical(obj):
    """Reduce run arguments to a deterministic JSON-able structure."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(key): _canonical(value)
                for key, value in sorted(obj.items(), key=lambda kv:
                                         str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_canonical(item) for item in obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


class RunLedger:
    """A machine-readable manifest stamping one simulation run.

    Records *what ran* (app, variant, canonicalised run arguments and
    their sha256 digest, workload seed), *under which contract* (trace
    schema version, ledger version), and *how it went* (headline
    results, events emitted, final monitor verdicts).  Contains no
    wall-clock values: identical configurations yield byte-identical
    manifests, which is what lets the sweep determinism test compare
    serial and parallel ledgers directly.
    """

    def __init__(self, app: str, variant: str,
                 run_args: Optional[Dict] = None,
                 seed: Optional[int] = None) -> None:
        self.app = app
        self.variant = variant
        self.run_args = _canonical(run_args or {})
        self.seed = seed
        self.manifest: Optional[Dict] = None

    def config_digest(self) -> str:
        """sha256 over the canonical (app, variant, run_args, seed)."""
        blob = json.dumps(
            {"app": self.app, "variant": self.variant,
             "run_args": self.run_args, "seed": self.seed},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def finalize(self, result=None, monitors: Optional[MonitorSuite] = None,
                 tracer: Optional[Tracer] = None) -> Dict:
        """Assemble (and retain) the manifest dict.

        ``result`` is a :class:`~repro.harness.runner.RunResult` (or
        None for partial runs such as ``repro recover``); ``monitors``
        contributes verdicts, ``tracer`` the emitted-event count.
        """
        # Canonicalised so the in-memory manifest equals its JSON
        # round-trip (per-node dicts are int-keyed in verdicts; JSON
        # object keys are strings).
        verdicts = _canonical(monitors.verdicts()) if monitors is not None \
            else {}
        manifest = {
            "ledger_version": LEDGER_VERSION,
            "schema_version": SCHEMA_VERSION,
            "app": self.app,
            "variant": self.variant,
            "seed": self.seed,
            "config_digest": self.config_digest(),
            "run_args": self.run_args,
            "events_emitted": (tracer.events_emitted
                               if tracer is not None else None),
            "result": None,
            "verdicts": verdicts,
            "healthy": all(v.get("healthy", True)
                           for v in verdicts.values()),
        }
        if result is not None:
            manifest["result"] = {
                "execution_time_ns": result.execution_time_ns,
                "total_refs": result.total_refs,
                "l2_miss_rate": result.l2_miss_rate,
                "checkpoints": result.checkpoints,
                "max_log_bytes": result.max_log_bytes,
            }
        self.manifest = manifest
        return manifest

    def write(self, path: str) -> None:
        """Serialise the manifest as sorted-key JSON (finalize first)."""
        if self.manifest is None:
            raise RuntimeError("finalize() the ledger before writing it")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.manifest, handle, sort_keys=True, indent=2)
            handle.write("\n")


def read_ledger(path: str) -> Dict:
    """Load one ledger manifest (or the merged sweep manifest)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
