"""The async simulation service behind ``repro serve``.

A :class:`SimulationService` accepts run/latency/sweep/report/campaign
requests,
dedupes them against a content-addressed
:class:`~repro.harness.store.ResultStore` keyed by the ledger config
digest, schedules cache misses across a multiprocessing worker pool
(through the job executor of
:mod:`repro.harness.executor`), and streams progress back as ``svc.*``
events — cache hit/miss per cell, monitor verdicts, span-latency
classes, the result itself, and (for ``report`` requests) Figure-8
style overhead rows.  The architecture, request lifecycle, and
consistency guarantees are documented in ``docs/SERVING.md``.

Two properties make the cache *correct*, not merely fast:

* every simulation is deterministic given its arguments, and
* the ledger manifest is wall-clock-free,

so a cache hit's manifest is byte-identical to the one a fresh run
would write (``tests/test_serve.py`` pins this).  Requests racing on
the same cell coalesce onto one in-flight computation.

Transport: :func:`start_server` wraps the service in an asyncio TCP
server speaking newline-delimited JSON — one request line in, one
event per line out, connection closed after ``svc.done`` /
``svc.error``.  :func:`repro.serve.client.submit` is the matching
client.

Telemetry (docs/SERVING.md "Live telemetry"): every service keeps a
:class:`~repro.obs.metrics.MetricsRegistry` of request counters,
worker-pool gauges, and per-phase latency histograms; a heartbeat
task samples the pool/queue gauges while the server runs; the
``stats`` op streams recent heartbeats plus the full metrics
snapshot; ``svc.timing`` attributes each request's host time to
cache lookup, queue wait, and worker execution; and the same TCP
port answers ``GET /metrics`` with the Prometheus text exposition,
so a deployed ``repro serve`` is scrapeable as-is.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import tempfile
from collections import deque
from time import perf_counter
from typing import AsyncIterator, Dict, List, Optional, Tuple

from repro.harness import executor, parallel
from repro.harness.observe import Observe
from repro.harness.runner import (
    DEFAULT_INTERVAL_NS,
    VARIANTS,
    tiny_revive_overrides,
)
from repro.harness.store import (
    KIND_RUN,
    TRACE_ARTIFACT,
    ResultStore,
    job_digest,
    result_from_payload,
    run_entry,
    run_payload,
    store_key,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import CacheHealthMonitor, MonitorSuite
from repro.obs.report import overhead_rows
from repro.obs.telemetry import prometheus_text
from repro.obs.tracer import SCHEMA_VERSION, Tracer
from repro.workloads.registry import APP_NAMES

#: Default TCP port of ``repro serve`` (chosen arbitrarily, unassigned).
DEFAULT_PORT = 7316

#: Default bind address: loopback only — the service performs no
#: authentication and is meant to sit behind one machine's trust
#: boundary (docs/SERVING.md).
DEFAULT_HOST = "127.0.0.1"

#: The request operations the service accepts.
OPS = ("run", "latency", "sweep", "report", "campaign", "stats")

#: Seconds between heartbeat samples while the TCP server runs.
HEARTBEAT_PERIOD_S = 2.0

#: Heartbeats retained for ``stats`` requests to re-stream.
_RECENT_HEARTBEATS = 64

#: Variants a ``campaign`` request may name: the campaign warms to a
#: committed checkpoint, so checkpoint-free configurations are out.
CAMPAIGN_VARIANTS = ("cp_parity", "cp_mirroring")

#: Node counts accepted for ``MachineConfig.tiny`` machines (mirrors
#: the CLI's ``--nodes`` choices).
TINY_NODES = (2, 4, 8, 16)


class ServiceError(ValueError):
    """A request the service rejects (streamed back as ``svc.error``)."""


def _is_int(value) -> bool:
    """A JSON integer: ``4.0`` and ``true`` are not node counts or ids."""
    return isinstance(value, int) and not isinstance(value, bool)


def _normalise(request) -> Dict:
    """Validate a raw request dict into its canonical form.

    Returns ``{op, apps, variants, nodes, scale, interval_us,
    no_cache, observe}`` with every field defaulted and validated, or
    raises :class:`ServiceError`.  ``run``/``latency`` requests name
    one ``app`` (and optional ``variant``); ``sweep``/``report``
    requests name ``apps`` (and optional ``variants``).  The request's
    ``digest: true`` becomes ``observe``, an
    :class:`~repro.harness.observe.Observe` that records the
    determinism-observatory chain in every simulated cell (campaigns
    included); chains ride back inside each ``svc.result`` and the
    service accumulates per-cell chain tips for the ``stats`` op's
    digest surface.
    """
    if not isinstance(request, dict):
        raise ServiceError("request must be a JSON object")
    op = request.get("op", "run")
    if op not in OPS:
        raise ServiceError(f"unknown op {op!r}; choose from "
                           f"{', '.join(OPS)}")
    if op == "stats":
        # Pure telemetry read: no apps, machines, or cache involved.
        return {"op": "stats"}
    if op in ("run", "latency", "campaign"):
        app = request.get("app")
        apps = [app] if app is not None else list(request.get("apps") or [])
        if len(apps) != 1:
            raise ServiceError(f"op {op!r} takes exactly one app")
        variant = request.get("variant")
        variants = ([variant] if variant is not None
                    else list(request.get("variants") or ["cp_parity"]))
        if len(variants) != 1:
            raise ServiceError(f"op {op!r} takes exactly one variant")
        if op == "campaign" and variants[0] not in CAMPAIGN_VARIANTS:
            raise ServiceError(
                f"op 'campaign' needs a checkpointing variant "
                f"({', '.join(CAMPAIGN_VARIANTS)})")
    else:
        apps = list(request.get("apps") or [])
        if not apps:
            raise ServiceError(f"op {op!r} needs a non-empty 'apps' list")
        variants = list(request.get("variants")
                        or ["baseline", "cp_parity"])
    unknown = sorted(set(apps) - set(APP_NAMES))
    if unknown:
        raise ServiceError(f"unknown apps: {', '.join(unknown)}")
    unknown = sorted(set(variants) - set(VARIANTS))
    if unknown:
        raise ServiceError(f"unknown variants: {', '.join(unknown)}")
    if op == "report" and "baseline" not in variants:
        raise ServiceError("op 'report' needs the 'baseline' variant "
                           "to compute overheads against")
    nodes = request.get("nodes")
    if nodes is not None and not (_is_int(nodes) and nodes in TINY_NODES):
        raise ServiceError(f"nodes must be one of {TINY_NODES} (or null "
                           f"for the 16-node bench machine)")
    scale = request.get("scale", 0.1)
    if not isinstance(scale, (int, float)) or scale <= 0:
        raise ServiceError("scale must be a positive number")
    interval_us = request.get("interval_us", DEFAULT_INTERVAL_NS / 1000)
    if not isinstance(interval_us, (int, float)) or interval_us <= 0:
        raise ServiceError("interval_us must be a positive number")
    req = {"op": op, "apps": apps, "variants": variants, "nodes": nodes,
           "scale": float(scale), "interval_us": float(interval_us),
           "no_cache": bool(request.get("no_cache", False)),
           "observe": Observe(digest=bool(request.get("digest", False)))}
    if op == "campaign":
        warm = request.get("warm_checkpoints", 2)
        if not _is_int(warm) or warm < 1:
            raise ServiceError("warm_checkpoints must be a positive "
                               "integer")
        lost_nodes = request.get("lost_nodes", [None, 1])
        n_nodes = nodes or 16
        if (not isinstance(lost_nodes, list) or not lost_nodes
                or not all(n is None or (_is_int(n) and 0 <= n < n_nodes)
                           for n in lost_nodes)):
            raise ServiceError(f"lost_nodes must be a non-empty list of "
                               f"node ids in [0, {n_nodes}) "
                               f"(null = transient fault)")
        fractions = request.get("detect_fractions", [0.2, 0.5, 0.8])
        if (not isinstance(fractions, list) or not fractions
                or not all(isinstance(f, (int, float)) and 0 < f < 1
                           for f in fractions)):
            raise ServiceError("detect_fractions must be a non-empty "
                               "list of fractions in (0, 1)")
        req.update(warm_checkpoints=warm, lost_nodes=lost_nodes,
                   detect_fractions=[float(f) for f in fractions])
    return req


def request_key(req: Dict) -> str:
    """sha256 over the canonical normalised request (stream identity)."""
    blob = json.dumps(req, sort_keys=True, separators=(",", ":"),
                      default=dataclasses.asdict)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _service_campaign(req: Dict, cache_dir: Optional[str]):
    """Worker body: one fault campaign; module-level so it pickles.

    Runs the campaign serially inside this worker (no nested pools)
    with the service's result store as the warm-image cache, spooling
    the campaign's ``snap.*`` events through a scratch trace file (as
    a run cell's trace is) so the service can re-stream them.
    """
    from repro.harness.campaign import run_campaign
    from repro.machine.config import MachineConfig
    from repro.obs.analysis import read_trace

    nodes = req["nodes"]
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as spool:
        observe = dataclasses.replace(
            req["observe"], trace=os.path.join(spool, "campaign.jsonl"))
        campaign = run_campaign(
            req["apps"][0], req["variants"][0],
            warm_checkpoints=req["warm_checkpoints"],
            lost_nodes=tuple(req["lost_nodes"]),
            detect_fractions=tuple(req["detect_fractions"]),
            scale=req["scale"], n_procs=nodes or 16,
            interval_ns=int(req["interval_us"] * 1000),
            machine_config=MachineConfig.tiny(nodes) if nodes else None,
            cache_dir=cache_dir, serial=True, observe=observe,
            **tiny_revive_overrides(nodes, req["variants"][0]))
        return campaign.to_jsonable(), read_trace(observe.trace)


class SimulationService:
    """Request → event-stream core of the simulation service.

    ``cache_dir=None`` disables the result store entirely (every
    request simulates); otherwise results are served from / stored
    into a :class:`ResultStore` there, bounded by ``max_cache_bytes``.
    ``workers`` sizes the process pool for cache misses (default: CPU
    count capped at 4); environments without multiprocessing fall back
    to a thread.  ``self.health`` is a :class:`MonitorSuite` holding a
    :class:`CacheHealthMonitor` fed by the store's ``svc.cache_*``
    events — ``service.health.verdicts()`` is the live cache health.
    ``self.metrics`` is a :class:`MetricsRegistry` of request
    counters, pool gauges, and phase latency histograms; the ``stats``
    op and ``GET /metrics`` expose it (docs/SERVING.md).
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 workers: Optional[int] = None,
                 max_cache_bytes: Optional[int] = None,
                 heartbeat_period: float = HEARTBEAT_PERIOD_S) -> None:
        self.workers = workers or max(1, min(os.cpu_count() or 1, 4))
        self.health = MonitorSuite([CacheHealthMonitor()])
        self.metrics = MetricsRegistry()
        self.heartbeat_period = heartbeat_period
        self.recent_heartbeats: "deque[Dict]" = \
            deque(maxlen=_RECENT_HEARTBEATS)
        self.store: Optional[ResultStore] = None
        if cache_dir is not None:
            self.store = ResultStore(cache_dir, max_bytes=max_cache_bytes,
                                     tracer=Tracer(self.health))
        #: Chain tips of digested cells, keyed by store key — the
        #: ``stats`` op's digest surface.  Two entries for the same key
        #: must agree (determinism); last write wins either way.
        self.digest_tips: Dict[str, Dict] = {}
        self._inflight: Dict[str, asyncio.Task] = {}
        self._executor = None
        self._executor_broken = False
        self._beat = 0
        self._busy = 0
        self._heartbeat_task: Optional[asyncio.Task] = None

    # -- telemetry -----------------------------------------------------

    def heartbeat(self) -> Dict:
        """Sample the pool/queue gauges; returns ``stats.heartbeat`` fields.

        ``beat`` is a strictly increasing sequence number (the trace
        linter checks monotonicity), ``inflight`` the coalescable
        in-flight cells, ``workers_busy``/``queue_depth`` the pool
        occupancy split at the worker count.  Called by the periodic
        heartbeat task while the server runs and on demand by every
        ``stats`` request, so the gauges are fresh either way.
        """
        self._beat += 1
        inflight = len(self._inflight)
        busy = min(self._busy, self.workers)
        queued = max(0, self._busy - self.workers)
        self.metrics.gauge("svc.inflight").set(inflight)
        self.metrics.gauge("svc.workers_busy").set(busy)
        self.metrics.gauge("svc.queue_depth").set(queued)
        self.metrics.gauge("svc.workers").set(self.workers)
        sample = {"beat": self._beat, "inflight": inflight,
                  "queue_depth": queued, "workers_busy": busy,
                  "workers": self.workers}
        self.recent_heartbeats.append(sample)
        return sample

    def start_heartbeat(self) -> None:
        """Start the periodic gauge sampler (idempotent; needs a loop)."""
        if self._heartbeat_task is None or self._heartbeat_task.done():
            self._heartbeat_task = asyncio.ensure_future(
                self._heartbeat_loop())

    async def _heartbeat_loop(self) -> None:
        while True:
            self.heartbeat()
            await asyncio.sleep(self.heartbeat_period)

    # -- request handling ----------------------------------------------

    def _jobs_for(self, req: Dict) -> List[Tuple[str, str, Dict]]:
        """The request's cells, through the canonical sweep job list.

        Going through :func:`~repro.harness.parallel.sweep_jobs` (with
        the same tiny-machine overrides the CLI applies for
        ``--nodes``) guarantees the run kwargs — and therefore the
        config digests and cache keys — match CLI sweeps exactly.
        """
        from repro.machine.config import MachineConfig

        nodes = req["nodes"]
        machine_config = MachineConfig.tiny(nodes) if nodes else None
        return parallel.sweep_jobs(
            req["apps"], req["variants"], scale=req["scale"],
            n_procs=nodes or 16,
            interval_ns=int(req["interval_us"] * 1000),
            machine_config=machine_config,
            **tiny_revive_overrides(nodes))

    async def events(self, request) -> AsyncIterator[Dict]:
        """Handle one request, yielding enveloped ``svc.*`` events.

        The stream is ``svc.accepted``, then per cell (in canonical
        job order): ``svc.cache_hit`` *or* ``svc.cache_miss`` +
        ``svc.scheduled``/``svc.coalesced``, then ``svc.verdicts``,
        ``svc.latency``, ``svc.result``; then ``svc.report`` for
        ``report`` requests; then ``svc.timing`` (this request's host
        time split into cache-lookup / queue-wait / execute phases)
        and ``svc.done``.  A ``stats`` request instead streams the
        recent ``stats.heartbeat`` samples and one ``stats.snapshot``
        of the full metrics registry plus the digest surface (the
        chain tip of every digested cell).  Any rejection or internal
        failure ends the stream with ``svc.error`` instead.  Events
        carry the standard trace envelope at ``ts`` 0 and pass
        ``repro trace-lint``.
        """
        seq = 0

        def env(name: str, cat: str = "svc", **fields) -> Dict:
            nonlocal seq
            event = {"v": SCHEMA_VERSION, "seq": seq, "ts": 0,
                     "cat": cat, "name": name}
            event.update(fields)
            seq += 1
            return event

        started = perf_counter()
        try:
            req = _normalise(request)
            key = request_key(req)
            self.metrics.counter(f"svc.requests.{req['op']}").add()
            yield env("svc.accepted", op=req["op"], key=key)

            if req["op"] == "stats":
                sample = self.heartbeat()
                for beat in list(self.recent_heartbeats):
                    yield env("stats.heartbeat", cat="stats", **beat)
                yield env("stats.snapshot", cat="stats",
                          beat=sample["beat"],
                          metrics=self.metrics.full_snapshot(),
                          digest={"cells": len(self.digest_tips),
                                  "tips": dict(self.digest_tips)})
                yield env("svc.done", key=key, jobs=0, cached=0)
                return

            if req["op"] == "campaign":
                use_cache = self.store is not None and not req["no_cache"]
                campaign, snap_events = await self._offload(
                    _service_campaign, req,
                    self.store.root if use_cache else None)
                # Re-stream the campaign's own snap.* events under this
                # stream's envelope so the whole stream lints clean.
                for snap in snap_events:
                    fields = {k: v for k, v in snap.items()
                              if k not in ("v", "seq", "ts", "cat", "name")}
                    yield env(snap["name"], cat="snap", **fields)
                yield env("svc.campaign", key=key,
                          outcomes=campaign["outcomes"],
                          digests=campaign.get("digests"))
                yield env("svc.done", key=key,
                          jobs=len(campaign["outcomes"]),
                          cached=sum(1 for image in campaign["images"]
                                     if image["cached"]))
                return

            jobs = self._jobs_for(req)
            use_cache = self.store is not None and not req["no_cache"]
            cells = []
            lookup_begin = perf_counter()
            for app, variant, kwargs in jobs:
                jkey = store_key(job_digest(app, variant, kwargs))
                # The service needs verdicts + trace, so it reads
                # entries as a traced caller.
                entry = run_entry(self.store if use_cache else None,
                                  jkey, traced=True)
                task = None
                coalesced = False
                if entry is None:
                    task = self._inflight.get(jkey) if use_cache else None
                    coalesced = task is not None
                    if task is None:
                        task = asyncio.ensure_future(self._run_and_store(
                            jkey, app, variant, kwargs,
                            register=use_cache, store=use_cache,
                            scheduled_at=perf_counter(),
                            observe=req["observe"]))
                        if use_cache:
                            self._inflight[jkey] = task
                cells.append((app, variant, jkey, entry, task, coalesced))
            lookup_s = perf_counter() - lookup_begin

            results: Dict[Tuple[str, str], Tuple] = {}
            hits = 0
            queue_wait_s = 0.0
            execute_s = 0.0
            for app, variant, jkey, entry, task, coalesced in cells:
                if entry is not None:
                    hits += 1
                    self.metrics.counter("svc.cache_hits").add()
                    yield env("svc.cache_hit", key=jkey)
                    result = result_from_payload(entry.payload)
                    manifest = entry.payload["manifest"]
                    cached = True
                else:
                    self.metrics.counter("svc.cache_misses").add()
                    if coalesced:
                        self.metrics.counter("svc.coalesced").add()
                    yield env("svc.cache_miss", key=jkey)
                    yield env("svc.coalesced" if coalesced
                              else "svc.scheduled", key=jkey)
                    result, manifest, timing = await task
                    queue_wait_s += timing["queue_wait_s"]
                    execute_s += timing["execute_s"]
                    cached = False
                chain = getattr(result, "digest", None)
                if chain and chain.get("windows"):
                    self.digest_tips[jkey] = {
                        "app": app, "variant": variant,
                        "windows": len(chain["windows"]),
                        "machine": chain["windows"][-1]["machine"]}
                    self.metrics.counter("svc.digest_runs").add()
                results[(app, variant)] = (result, manifest)
                yield env("svc.verdicts", key=jkey, app=app,
                          variant=variant, verdicts=manifest["verdicts"])
                latency = manifest["verdicts"].get("span_latency", {})
                yield env("svc.latency", key=jkey, app=app, variant=variant,
                          classes=latency.get("classes", {}))
                yield env("svc.result", key=jkey, app=app, variant=variant,
                          cached=cached,
                          result=dataclasses.asdict(result))

            if req["op"] == "report":
                rows = overhead_rows({
                    cell: result.execution_time_ns
                    for cell, (result, _manifest) in results.items()})
                yield env("svc.report", key=key, rows=rows)

            total_s = perf_counter() - started
            self.metrics.log_histogram("svc.request_us").record(
                int(total_s * 1e6))
            yield env("svc.timing", key=key, phases={
                "cache_lookup_ms": round(lookup_s * 1e3, 3),
                "queue_wait_ms": round(queue_wait_s * 1e3, 3),
                "execute_ms": round(execute_s * 1e3, 3),
                "total_ms": round(total_s * 1e3, 3)})
            yield env("svc.done", key=key, jobs=len(jobs), cached=hits)
        except ServiceError as exc:
            self.metrics.counter("svc.errors").add()
            yield env("svc.error", error=str(exc))
        except Exception as exc:  # noqa: BLE001 — stream, don't crash
            self.metrics.counter("svc.errors").add()
            yield env("svc.error", error=f"internal: {exc!r}")

    # -- execution -----------------------------------------------------

    def _ensure_executor(self):
        """The process pool, or None to use the loop's thread executor."""
        if self._executor_broken:
            return None
        if self._executor is None:
            try:
                # Spawned, not forked: workers start lazily at first
                # submit, mid-connection (executor.open_pool).
                self._executor = executor.open_pool(self.workers,
                                                    spawn=True)
            except executor.POOL_FAILURES:
                self._executor_broken = True
                return None
        return self._executor

    async def _offload(self, fn, *args):
        """``fn(*args)`` in the process pool, counted in ``_busy``.

        A missing or broken pool (fork restrictions, an OOM-killed
        worker, ...) degrades to the loop's thread executor for this
        and every later job.
        """
        loop = asyncio.get_running_loop()
        pool = self._ensure_executor()
        self._busy += 1
        try:
            try:
                return await loop.run_in_executor(pool, fn, *args)
            except executor.POOL_FAILURES:
                if pool is None:
                    raise
                self._executor_broken = True
                self._executor = None
                return await loop.run_in_executor(None, fn, *args)
        finally:
            self._busy -= 1

    async def _run_and_store(self, key: str, app: str, variant: str,
                             kwargs: Dict, register: bool, store: bool,
                             scheduled_at: float,
                             observe: Observe) -> Tuple:
        """Simulate one cell in the pool; store the entry on the way out.

        The cell runs through :func:`repro.harness.executor.run_job` —
        the same body as a traced ``repro sweep`` cell — so its
        manifest (and therefore its config digest and every stored
        byte) is identical to what a sweep of the same cell produces.
        The trace spools through a scratch directory, the trace path of
        the request's ``observe``.

        Returns ``(result, manifest, timing)`` where ``timing`` splits
        the cell's host time into ``queue_wait_s`` (scheduling to
        worker start — event-loop plus pool queueing) and
        ``execute_s`` (worker wall time); both also land in the
        ``svc.queue_wait_us``/``svc.execute_us`` latency histograms.
        """
        timing = {"queue_wait_s": 0.0, "execute_s": 0.0}
        try:
            begin = perf_counter()
            timing["queue_wait_s"] = begin - scheduled_at
            with tempfile.TemporaryDirectory(prefix="repro-serve-") as spool:
                observe = dataclasses.replace(observe, trace=spool)
                try:
                    result, manifest = await self._offload(
                        executor.run_job, (app, variant, kwargs), observe)
                    with open(observe.cell(app, variant).trace,
                              "rb") as handle:
                        trace = handle.read()
                finally:
                    timing["execute_s"] = perf_counter() - begin
            self.metrics.log_histogram("svc.queue_wait_us").record(
                int(timing["queue_wait_s"] * 1e6))
            self.metrics.log_histogram("svc.execute_us").record(
                int(timing["execute_s"] * 1e6))
            if store and self.store is not None:
                self.store.put(key, KIND_RUN, run_payload(result, manifest),
                               artifacts={TRACE_ARTIFACT: trace})
            return result, manifest, timing
        finally:
            if register:
                self._inflight.pop(key, None)

    def close(self) -> None:
        """Shut the worker pool and heartbeat down (idempotent).

        Queued jobs are cancelled and the call waits for the workers to
        exit, so no worker process outlives the service.
        """
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None


# -- transport ----------------------------------------------------------

def _event_line(event: Dict) -> bytes:
    return (json.dumps(event, separators=(",", ":")) + "\n").encode("utf-8")


async def _serve_http(service: SimulationService, request_line: bytes,
                      reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
    """Minimal HTTP/1.0 endpoint on the JSONL port: ``GET /metrics``.

    Prometheus and curl speak HTTP, not the JSONL protocol, so the
    server answers any line starting with ``GET `` as an HTTP request:
    ``/metrics`` returns the text exposition of the metrics registry
    (gauges refreshed by an on-demand heartbeat), anything else 404s.
    One request per connection, ``Connection: close`` semantics.
    """
    try:
        while True:  # drain request headers up to the blank line / EOF
            header = await reader.readline()
            if not header.strip():
                break
    except (ConnectionResetError, BrokenPipeError):
        return
    parts = request_line.decode("latin-1").split()
    path = parts[1].split("?")[0] if len(parts) > 1 else "/"
    if path == "/metrics":
        service.heartbeat()
        body = prometheus_text(service.metrics.full_snapshot()) \
            .encode("utf-8")
        status = b"200 OK"
        ctype = b"text/plain; version=0.0.4; charset=utf-8"
    else:
        body = b"repro serve: try GET /metrics\n"
        status = b"404 Not Found"
        ctype = b"text/plain; charset=utf-8"
    writer.write(b"HTTP/1.0 " + status + b"\r\n"
                 b"Content-Type: " + ctype + b"\r\n"
                 b"Content-Length: " + str(len(body)).encode("ascii")
                 + b"\r\nConnection: close\r\n\r\n" + body)
    await writer.drain()


async def _handle(service: SimulationService,
                  reader: asyncio.StreamReader,
                  writer: asyncio.StreamWriter) -> None:
    """One connection: one JSON request line in, event lines out."""
    try:
        line = await reader.readline()
        if not line.strip():
            return
        if line.startswith(b"GET "):
            await _serve_http(service, line, reader, writer)
            return
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            writer.write(_event_line(
                {"v": SCHEMA_VERSION, "seq": 0, "ts": 0, "cat": "svc",
                 "name": "svc.error",
                 "error": f"malformed JSON request: {exc}"}))
            await writer.drain()
            return
        async for event in service.events(request):
            writer.write(_event_line(event))
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass  # client went away mid-stream; nothing to salvage
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def start_server(service: SimulationService,
                       host: str = DEFAULT_HOST,
                       port: int = DEFAULT_PORT) -> asyncio.AbstractServer:
    """Bind the JSONL TCP server (``port=0`` picks a free port).

    Also starts the service's heartbeat task so the pool/queue gauges
    are sampled every ``heartbeat_period`` seconds while serving.
    """

    async def handler(reader, writer):
        await _handle(service, reader, writer)

    service.start_heartbeat()
    return await asyncio.start_server(handler, host=host, port=port)


def bound_port(server: asyncio.AbstractServer) -> int:
    """The port a started server actually bound (resolves ``port=0``)."""
    return server.sockets[0].getsockname()[1]
