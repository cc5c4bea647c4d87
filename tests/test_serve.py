"""The async simulation service (repro.serve).

Pins the request lifecycle documented in docs/SERVING.md: validation
failures stream ``svc.error``; a repeated request is served from the
result store with a manifest byte-identical to the fresh run's ledger
file (the acceptance oracle); requests racing on the same cell
coalesce onto one in-flight computation; the event stream passes the
trace linter; and the JSONL TCP transport round-trips through the
blocking client.

The tests pin the service to the asyncio loop's thread executor
(``_executor_broken``) so they never pay process-pool spawn time; the
process-pool path is exercised end-to-end by ``tools/smoke.py``.
"""

import asyncio
import json

import pytest

from repro.harness.observe import Observe
from repro.harness.parallel import run_sweep
from repro.harness.store import TRACE_ARTIFACT, manifest_bytes
from repro.machine.config import MachineConfig
from repro.obs.lint import lint_events
from repro.serve import (
    ServiceError,
    SimulationService,
    bound_port,
    fetch_metrics,
    request_key,
    start_server,
    submit,
)
from repro.serve.service import _normalise

RUN_REQUEST = {"op": "run", "app": "lu", "variant": "cp_parity",
               "nodes": 4, "scale": 0.05, "interval_us": 50}


def make_service(tmp_path, **kwargs) -> SimulationService:
    service = SimulationService(cache_dir=str(tmp_path / "cache"), **kwargs)
    # Deterministically use the loop's thread executor: no spawn cost.
    service._executor_broken = True
    return service


def collect(service, request):
    async def go():
        return [event async for event in service.events(request)]
    return asyncio.run(go())


def names(events):
    return [event["name"] for event in events]


class TestValidation:
    @pytest.mark.parametrize("request_dict,fragment", [
        (["not", "a", "dict"], "JSON object"),
        ({"op": "frobnicate", "app": "lu"}, "unknown op"),
        ({"op": "run"}, "exactly one app"),
        ({"op": "run", "app": "nosuchapp"}, "unknown apps"),
        ({"op": "run", "app": "lu", "variant": "nosuch"},
         "unknown variants"),
        ({"op": "sweep", "apps": []}, "non-empty 'apps'"),
        ({"op": "report", "apps": ["lu"], "variants": ["cp_parity"]},
         "baseline"),
        ({"op": "run", "app": "lu", "nodes": 5}, "nodes"),
        ({"op": "run", "app": "lu", "scale": -1}, "scale"),
        ({"op": "run", "app": "lu", "interval_us": 0}, "interval_us"),
        ({"op": "run", "app": "lu", "nodes": 4.0}, "nodes"),
        ({"op": "run", "app": "lu", "nodes": True}, "nodes"),
        ({"op": "campaign", "app": "fft", "nodes": 4, "lost_nodes": [99]},
         "lost_nodes"),
        ({"op": "campaign", "app": "fft", "nodes": 4, "lost_nodes": [4]},
         "lost_nodes"),
        ({"op": "campaign", "app": "fft", "lost_nodes": [-1]}, "lost_nodes"),
        ({"op": "campaign", "app": "fft", "lost_nodes": [True]},
         "lost_nodes"),
        ({"op": "campaign", "app": "fft", "warm_checkpoints": True},
         "warm_checkpoints"),
    ])
    def test_rejections_stream_svc_error(self, tmp_path, request_dict,
                                         fragment):
        service = make_service(tmp_path)
        events = collect(service, request_dict)
        assert names(events) == ["svc.error"]
        assert fragment in events[0]["error"]

    def test_normalise_defaults(self):
        req = _normalise({"op": "run", "app": "lu"})
        assert req["variants"] == ["cp_parity"]
        assert req["scale"] == 0.1
        assert req["nodes"] is None
        assert not req["no_cache"]
        with pytest.raises(ServiceError):
            _normalise({"op": "latency"})

    def test_request_key_is_canonical(self):
        one = _normalise({"op": "run", "app": "lu", "scale": 0.1})
        two = _normalise({"scale": 0.1, "app": "lu", "op": "run"})
        assert request_key(one) == request_key(two)


class TestCachePath:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        """The same run request twice: a miss stream, then a hit stream."""
        tmp_path = tmp_path_factory.mktemp("serve")
        service = make_service(tmp_path)
        first = collect(service, RUN_REQUEST)
        second = collect(service, RUN_REQUEST)
        return service, first, second

    def test_miss_then_hit(self, served):
        _, first, second = served
        assert names(first) == ["svc.accepted", "svc.cache_miss",
                                "svc.scheduled", "svc.verdicts",
                                "svc.latency", "svc.result",
                                "svc.timing", "svc.done"]
        assert names(second) == ["svc.accepted", "svc.cache_hit",
                                 "svc.verdicts", "svc.latency",
                                 "svc.result", "svc.timing", "svc.done"]
        assert first[-1]["cached"] == 0
        assert second[-1]["cached"] == 1

    def test_timing_attributes_request_host_time(self, served):
        _, first, second = served
        miss = next(e for e in first if e["name"] == "svc.timing")
        hit = next(e for e in second if e["name"] == "svc.timing")
        for timing in (miss, hit):
            assert set(timing["phases"]) == {"cache_lookup_ms",
                                             "queue_wait_ms",
                                             "execute_ms", "total_ms"}
            assert timing["phases"]["total_ms"] > 0
        # The miss paid for a real simulation; the hit ran nothing.
        assert miss["phases"]["execute_ms"] > 0
        assert hit["phases"]["execute_ms"] == 0

    def test_cached_result_identical(self, served):
        _, first, second = served
        fresh = next(e for e in first if e["name"] == "svc.result")
        cached = next(e for e in second if e["name"] == "svc.result")
        assert not fresh["cached"] and cached["cached"]
        assert fresh["result"] == cached["result"]
        fresh_v = next(e for e in first if e["name"] == "svc.verdicts")
        cached_v = next(e for e in second if e["name"] == "svc.verdicts")
        assert fresh_v["verdicts"] == cached_v["verdicts"]

    def test_cached_manifest_byte_identical_to_fresh_ledger(
            self, served, tmp_path):
        """Acceptance oracle: cached bytes == a fresh run's ledger file."""
        service, first, _ = served
        jkey = next(e for e in first
                    if e["name"] == "svc.cache_miss")["key"]
        entry = service.store.get(jkey)
        assert entry is not None
        # The same cell, fresh, through the traced sweep path.
        trace_dir = str(tmp_path / "fresh")
        run_sweep(["lu"], ["cp_parity"], serial=True, scale=0.05,
                  n_procs=4, interval_ns=50_000,
                  machine_config=MachineConfig.tiny(4),
                  parity_group_size=3, log_bytes_per_node=64 * 1024,
                  observe=Observe(trace=trace_dir))
        with open(f"{trace_dir}/lu__cp_parity.ledger.json", "rb") as handle:
            fresh_ledger = handle.read()
        with open(f"{trace_dir}/lu__cp_parity.jsonl", "rb") as handle:
            fresh_trace = handle.read()
        assert manifest_bytes(entry.payload["manifest"]) == fresh_ledger
        assert entry.read_artifact(TRACE_ARTIFACT) == fresh_trace

    def test_streams_pass_trace_lint(self, served):
        _, first, second = served
        assert lint_events(first) == []
        assert lint_events(second) == []

    def test_cache_health_monitor_observed_the_traffic(self, served):
        service, _, _ = served
        verdict = service.health.verdicts()["cache_health"]
        assert verdict["healthy"]
        assert verdict["hits"] >= 1
        assert verdict["misses"] >= 1
        assert verdict["stores"] >= 1
        assert verdict["corruptions"] == 0

    def test_no_cache_request_skips_the_store(self, tmp_path):
        service = make_service(tmp_path)
        request = dict(RUN_REQUEST, no_cache=True)
        events = collect(service, request)
        assert "svc.cache_miss" in names(events)
        assert service.store.stores == 0
        # And a second no_cache request recomputes again.
        events = collect(service, request)
        assert "svc.cache_hit" not in names(events)


class TestOps:
    def test_run_op_streams_latency_classes(self, tmp_path):
        service = make_service(tmp_path)
        events = collect(service, RUN_REQUEST)
        latency = next(e for e in events if e["name"] == "svc.latency")
        assert latency["classes"]          # non-empty span classes
        for stats in latency["classes"].values():
            assert set(stats) >= {"count", "p50", "p99"}
        # There is no separate latency op: it was the run op renamed.
        events = collect(service, dict(RUN_REQUEST, op="latency"))
        assert names(events) == ["svc.error"]
        assert "unknown op" in events[0]["error"]

    def test_report_op_streams_overhead_rows(self, tmp_path):
        service = make_service(tmp_path)
        request = {"op": "report", "apps": ["lu"], "nodes": 4,
                   "scale": 0.05, "interval_us": 50}
        events = collect(service, request)
        assert lint_events(events) == []
        report = next(e for e in events if e["name"] == "svc.report")
        assert len(report["rows"]) == 1
        row = report["rows"][0]
        assert row["app"] == "lu"
        assert row["baseline_ns"] > 0
        assert row["cp_parity"] > 0        # ReVive costs something
        done = events[-1]
        assert done["name"] == "svc.done"
        assert done["jobs"] == 2           # baseline + cp_parity cells


class TestStats:
    def test_stats_op_streams_heartbeat_and_snapshot(self, tmp_path):
        service = make_service(tmp_path)
        collect(service, RUN_REQUEST)           # generate some traffic
        events = collect(service, {"op": "stats"})
        assert names(events) == ["svc.accepted", "stats.heartbeat",
                                 "stats.snapshot", "svc.done"]
        assert lint_events(events) == []
        beat = next(e for e in events if e["name"] == "stats.heartbeat")
        assert beat["workers"] == service.workers
        assert beat["inflight"] == 0            # nothing running now
        snapshot = next(e for e in events if e["name"] == "stats.snapshot")
        metrics = snapshot["metrics"]
        assert metrics["counters"]["svc.requests.run"] == 1
        assert metrics["counters"]["svc.cache_misses"] == 1
        assert metrics["gauges"]["svc.workers"]["value"] == service.workers
        assert metrics["histograms"]["svc.execute_us"]["count"] == 1

    def test_heartbeat_beats_stay_monotonic_across_requests(self, tmp_path):
        service = make_service(tmp_path)
        first = collect(service, {"op": "stats"})
        second = collect(service, {"op": "stats"})
        beats1 = [e["beat"] for e in first
                  if e["name"] == "stats.heartbeat"]
        beats2 = [e["beat"] for e in second
                  if e["name"] == "stats.heartbeat"]
        # Strictly increasing within each stream (the lint invariant);
        # the second stream replays the ring, then adds a fresh beat.
        assert beats1 == sorted(set(beats1))
        assert beats2 == sorted(set(beats2))
        assert beats2[-1] > beats1[-1]
        assert lint_events(second) == []
        snap1 = next(e for e in first if e["name"] == "stats.snapshot")
        snap2 = next(e for e in second if e["name"] == "stats.snapshot")
        assert snap2["beat"] > snap1["beat"]

    def test_errors_are_counted(self, tmp_path):
        service = make_service(tmp_path)
        collect(service, {"op": "frobnicate"})
        assert service.metrics.value("svc.errors") == 1


class TestCoalescing:
    def test_concurrent_requests_share_one_computation(self, tmp_path):
        service = make_service(tmp_path)

        async def consume():
            return [event async for event in service.events(RUN_REQUEST)]

        async def go():
            return await asyncio.gather(consume(), consume())

        first, second = asyncio.run(go())
        both = names(first) + names(second)
        assert both.count("svc.scheduled") == 1
        assert both.count("svc.coalesced") == 1
        assert service.store.stores == 1
        one = next(e for e in first if e["name"] == "svc.result")
        two = next(e for e in second if e["name"] == "svc.result")
        assert one["result"] == two["result"]


class TestTransport:
    def test_tcp_round_trip_miss_then_hit(self, tmp_path):
        service = make_service(tmp_path)

        async def go():
            server = await start_server(service, port=0)
            port = bound_port(server)
            loop = asyncio.get_running_loop()

            def call():
                return list(submit(RUN_REQUEST, port=port, timeout=120))

            try:
                first = await loop.run_in_executor(None, call)
                second = await loop.run_in_executor(None, call)
            finally:
                server.close()
                await server.wait_closed()
            return first, second

        first, second = asyncio.run(go())
        assert names(first)[0] == "svc.accepted"
        assert names(first)[-1] == "svc.done"
        assert "svc.cache_miss" in names(first)
        assert "svc.cache_hit" in names(second)
        assert lint_events(first) == []

    def test_get_metrics_serves_prometheus_text(self, tmp_path):
        service = make_service(tmp_path)

        async def go():
            server = await start_server(service, port=0)
            port = bound_port(server)
            loop = asyncio.get_running_loop()

            def call():
                list(submit(RUN_REQUEST, port=port, timeout=120))
                return fetch_metrics(port=port)

            try:
                return await loop.run_in_executor(None, call)
            finally:
                server.close()
                await server.wait_closed()

        body = asyncio.run(go())
        assert body.endswith("\n")
        lines = body.splitlines()
        assert "# TYPE repro_svc_requests_run counter" in lines
        assert "repro_svc_requests_run 1" in lines
        assert f"repro_svc_workers {service.workers}" in lines
        assert any(line.startswith("repro_svc_execute_us_count ")
                   for line in lines)

    def test_get_unknown_path_404s(self, tmp_path):
        import socket

        service = make_service(tmp_path)

        async def go():
            server = await start_server(service, port=0)
            port = bound_port(server)
            loop = asyncio.get_running_loop()

            def call():
                with socket.create_connection(("127.0.0.1", port),
                                              timeout=30) as sock:
                    sock.sendall(b"GET /nope HTTP/1.0\r\n\r\n")
                    chunks = b""
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        chunks += chunk
                    return chunks

            try:
                return await loop.run_in_executor(None, call)
            finally:
                server.close()
                await server.wait_closed()

        response = asyncio.run(go())
        assert response.startswith(b"HTTP/1.0 404 ")
        assert b"GET /metrics" in response

    def test_malformed_request_line_streams_svc_error(self, tmp_path):
        import socket

        service = make_service(tmp_path)

        async def go():
            server = await start_server(service, port=0)
            port = bound_port(server)
            loop = asyncio.get_running_loop()

            def call():
                with socket.create_connection(("127.0.0.1", port),
                                              timeout=30) as sock:
                    sock.sendall(b"this is not json\n")
                    stream = sock.makefile("rb")
                    return [json.loads(line) for line in stream]

            try:
                return await loop.run_in_executor(None, call)
            finally:
                server.close()
                await server.wait_closed()

        events = asyncio.run(go())
        assert names(events) == ["svc.error"]
        assert "malformed JSON" in events[0]["error"]
