"""Tests for repro.obs.monitor: streaming monitors and the run ledger.

The load-bearing guarantee (docs/OBSERVABILITY.md): monitors mirror
the simulator's warmup semantics, so their final verdicts agree
bit-for-bit with the simulator's own steady-state statistics — pinned
here against live machine state after a traced toy run.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    LEDGER_VERSION,
    SCHEMA_VERSION,
    CheckpointCadenceMonitor,
    LogOccupancyMonitor,
    MemTrafficMonitor,
    MonitorSuite,
    RecoveryMonitor,
    RingBufferSink,
    RunLedger,
    SpanLatencyMonitor,
    Tracer,
    TrafficRateMonitor,
    read_ledger,
)
from repro.harness.observe import run_monitors
from tests.conftest import ToyWorkload, build_tiny_machine


def ev(seq, name, ts=0, **fields):
    """A schema-shaped event for feeding monitors directly."""
    return dict({"v": SCHEMA_VERSION, "seq": seq, "ts": ts,
                 "cat": name.split(".")[0], "name": name}, **fields)


class TestMonitorSuite:
    def test_tees_events_to_monitors_and_wrapped_sink(self):
        sink = RingBufferSink()
        monitor = LogOccupancyMonitor()
        tracer = Tracer(MonitorSuite([monitor], sink=sink))
        tracer.emit(5, "log", "log.append", node=0, slot=0, epoch=1,
                    line=64, commit=False, bytes_used=72)
        assert [e["name"] for e in sink.events()] == ["log.append"]
        assert monitor.watermark == {0: 72}

    def test_sinkless_suite_monitors_without_writing(self):
        monitor = LogOccupancyMonitor()
        suite = MonitorSuite([monitor])
        tracer = Tracer(suite)
        assert tracer.enabled           # a suite is a sink
        tracer.emit(1, "log", "log.append", node=2, slot=0, epoch=1,
                    line=0, commit=False, bytes_used=10)
        suite.close()                   # no wrapped sink: a no-op
        assert monitor.watermark == {2: 10}

    def test_duplicate_monitor_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate monitor names"):
            MonitorSuite([RecoveryMonitor(), RecoveryMonitor()])

    def test_verdicts_keyed_by_monitor_name(self):
        suite = MonitorSuite(run_monitors("cp_parity", {}))
        verdicts = suite.verdicts()
        assert set(verdicts) == {"log_occupancy", "checkpoint_cadence",
                                 "traffic_rate", "recovery", "mem_traffic",
                                 "span_latency"}
        assert all("healthy" in v for v in verdicts.values())
        assert suite.healthy


class TestLogOccupancyMonitor:
    def append(self, seq, node, used, ts=0):
        return ev(seq, "log.append", ts=ts, node=node, slot=0, epoch=1,
                  line=0, commit=False, bytes_used=used)

    def test_tracks_occupancy_and_watermark(self):
        monitor = LogOccupancyMonitor()
        monitor.observe(self.append(0, 0, 100))
        monitor.observe(self.append(1, 0, 300))
        monitor.observe(ev(2, "log.reclaim", node=0, slots=2,
                           oldest_epoch=1, bytes_used=50))
        monitor.observe(self.append(3, 1, 200))
        verdict = monitor.verdict()
        assert monitor.occupancy == {0: 50, 1: 200}
        assert verdict["watermark_bytes"] == {0: 300, 1: 200}
        assert verdict["max_watermark_bytes"] == 300
        assert verdict["healthy"]

    def test_one_alert_per_excursion_with_rearm(self):
        monitor = LogOccupancyMonitor(capacity_bytes=1000,
                                      high_water_fraction=0.9)
        monitor.observe(self.append(0, 0, 950, ts=10))   # crosses: alert
        monitor.observe(self.append(1, 0, 980, ts=20))   # still up: no new
        monitor.observe(ev(2, "log.reclaim", ts=30, node=0, slots=9,
                           oldest_epoch=1, bytes_used=100))  # re-arms
        monitor.observe(self.append(3, 0, 960, ts=40))   # crosses again
        verdict = monitor.verdict()
        assert [a["ts"] for a in verdict["high_water_alerts"]] == [10, 40]
        assert not verdict["healthy"]

    def test_warmup_resets_watermark_not_occupancy(self):
        monitor = LogOccupancyMonitor()
        monitor.observe(self.append(0, 0, 400))
        monitor.observe(ev(1, "sim.warmup_done"))
        assert monitor.occupancy == {0: 400}
        assert monitor.verdict()["watermark_bytes"] == {}
        monitor.observe(self.append(2, 0, 410))
        assert monitor.verdict()["watermark_bytes"] == {0: 410}

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            LogOccupancyMonitor(capacity_bytes=100, high_water_fraction=0.0)


class TestCheckpointCadenceMonitor:
    def commit(self, seq, ts, epoch=1):
        return ev(seq, "ckpt.commit", ts=ts, epoch=epoch, dur_ns=100)

    def test_regular_cadence_is_healthy(self):
        monitor = CheckpointCadenceMonitor(interval_ns=1000)
        for i, ts in enumerate([1000, 2100, 3050]):
            monitor.observe(self.commit(i, ts))
        verdict = monitor.verdict()
        assert verdict["healthy"]
        assert verdict["commits"] == 3
        assert verdict["mean_gap_ns"] == pytest.approx(1025.0)
        assert verdict["min_gap_ns"] == 950
        assert verdict["max_gap_ns"] == 1100

    def test_short_gap_is_an_excursion(self):
        monitor = CheckpointCadenceMonitor(interval_ns=1000, tolerance=0.5)
        monitor.observe(self.commit(0, 1000))
        monitor.observe(self.commit(1, 1300, epoch=2))  # gap 300 < 500
        verdict = monitor.verdict()
        assert not verdict["healthy"]
        assert verdict["excursions"] == [
            {"epoch": 2, "ts": 1300, "gap_ns": 300}]

    def test_without_interval_is_informational(self):
        monitor = CheckpointCadenceMonitor()       # CpInf: no cadence
        monitor.observe(self.commit(0, 100))
        monitor.observe(self.commit(1, 100_000))
        assert monitor.verdict()["healthy"]

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            CheckpointCadenceMonitor(interval_ns=1000, tolerance=0)


class TestTrafficRateMonitor:
    def test_counts_and_rates_per_node(self):
        monitor = TrafficRateMonitor()
        for seq, (node, ts) in enumerate([(0, 0), (0, 500), (1, 1000)]):
            monitor.observe(ev(seq, "coh.transition", ts=ts, node=node,
                               line=0, state="M", owner=node, sharers=[]))
        monitor.observe(ev(3, "log.append", ts=2000, node=1, slot=0,
                           epoch=1, line=0, commit=False, bytes_used=10))
        verdict = monitor.verdict()
        assert verdict["coh_events"] == {0: 2, 1: 1}
        assert verdict["log_events"] == {1: 1}
        assert verdict["span_ns"] == 2000
        assert verdict["coh_per_us"] == {0: 1.0, 1: 0.5}
        assert verdict["coh_max_over_mean"] == pytest.approx(4 / 3)
        assert verdict["healthy"]

    def test_imbalance_limit_flags_hot_node(self):
        monitor = TrafficRateMonitor(max_over_mean_limit=1.2)
        for seq in range(9):
            monitor.observe(ev(seq, "coh.transition", ts=seq * 10, node=0,
                               line=0, state="M", owner=0, sharers=[]))
        monitor.observe(ev(9, "coh.transition", ts=90, node=1,
                           line=0, state="M", owner=1, sharers=[]))
        assert not monitor.verdict()["healthy"]


class TestRecoveryMonitor:
    def test_begun_but_unfinished_recovery_is_unhealthy(self):
        monitor = RecoveryMonitor()
        monitor.observe(ev(0, "recovery.begin", lost_node=1))
        assert not monitor.healthy
        monitor.observe(ev(1, "recovery.phase_begin", ts=100,
                           phase="log_rebuild"))
        monitor.observe(ev(2, "recovery.phase_end", ts=350,
                           phase="log_rebuild", dur_ns=250))
        monitor.observe(ev(3, "recovery.end", ts=400, target_epoch=1,
                           lost_work_ns=77, entries_undone=5,
                           resume_time=400))
        verdict = monitor.verdict()
        assert verdict["healthy"]
        assert verdict["recoveries"] == verdict["completed"] == 1
        assert verdict["phase_ns"] == {"log_rebuild": 250}
        assert verdict["lost_work_ns"] == 77
        assert verdict["entries_undone"] == 5


class TestMemTrafficMonitor:
    def batch(self, seq, node, **over):
        fields = dict(refs=100, l1_hits=80, l1_misses=20, l2_hits=15,
                      l2_misses=5, remote=3)
        fields.update(over)
        return ev(seq, "mem.batch", node=node, **fields)

    def test_accumulates_per_node_and_rates(self):
        monitor = MemTrafficMonitor()
        monitor.observe(self.batch(0, 0))
        monitor.observe(self.batch(1, 0))
        monitor.observe(self.batch(2, 1, refs=50, l1_hits=50, l1_misses=0,
                                   l2_hits=0, l2_misses=0, remote=0))
        verdict = monitor.verdict()
        assert verdict["batches"] == 3
        assert verdict["per_node"][0]["refs"] == 200
        assert verdict["totals"]["refs"] == 250
        assert verdict["l1_hit_rate"] == pytest.approx(210 / 250)
        assert verdict["l2_hit_rate"] == pytest.approx(30 / 40)
        assert verdict["remote_fraction"] == pytest.approx(6 / 250)

    def test_warmup_resets_totals(self):
        monitor = MemTrafficMonitor()
        monitor.observe(self.batch(0, 0))
        monitor.observe(ev(1, "sim.warmup_done"))
        monitor.observe(self.batch(2, 0, refs=10, l1_hits=10, l1_misses=0,
                                   l2_hits=0, l2_misses=0, remote=0))
        verdict = monitor.verdict()
        assert verdict["totals"]["refs"] == 10
        assert verdict["l1_hit_rate"] == 1.0

    def test_no_mem_events_leaves_rates_undefined(self):
        verdict = MemTrafficMonitor().verdict()
        assert verdict["healthy"]
        assert verdict["l1_hit_rate"] is None
        assert verdict["remote_fraction"] is None


class TestSpanLatencyMonitor:
    def span_end(self, seq, txn, cls, dur, ts=None):
        return ev(seq, "span.end", ts=dur if ts is None else ts,
                  txn=txn, node=0, dur_ns=dur,
                  segs=[["net", dur]], **{"class": cls})

    def test_digests_per_class(self):
        monitor = SpanLatencyMonitor()
        monitor.observe(self.span_end(0, 0, "read_miss", 100))
        monitor.observe(self.span_end(1, 1, "read_miss", 200))
        monitor.observe(self.span_end(2, 2, "writeback", 50))
        verdict = monitor.verdict()
        assert verdict["healthy"]
        assert verdict["classes"]["read_miss"]["count"] == 2
        assert verdict["classes"]["writeback"]["max"] == 50
        assert list(verdict["classes"]) == ["read_miss", "writeback"]

    def test_high_water_alert(self):
        monitor = SpanLatencyMonitor(high_water_ns={"read_miss": 150})
        monitor.observe(self.span_end(0, 0, "read_miss", 150))  # at limit
        monitor.observe(self.span_end(1, 1, "read_miss", 151))  # over
        monitor.observe(self.span_end(2, 2, "writeback", 9999))  # no limit
        verdict = monitor.verdict()
        assert not verdict["healthy"]
        assert verdict["alerts_total"] == 1
        assert verdict["alerts"] == [{"class": "read_miss", "txn": 1,
                                      "ts": 151, "dur_ns": 151}]

    def test_alert_list_capped_count_exact(self):
        monitor = SpanLatencyMonitor(high_water_ns={"upgrade": 0},
                                     max_alerts=2)
        for i in range(5):
            monitor.observe(self.span_end(i, i, "upgrade", 10 + i))
        verdict = monitor.verdict()
        assert len(verdict["alerts"]) == 2
        assert verdict["alerts_total"] == 5

    def test_ignores_non_span_events_and_warmup(self):
        monitor = SpanLatencyMonitor()
        monitor.observe(self.span_end(0, 0, "ckpt", 500))
        monitor.observe(ev(1, "sim.warmup_done", ts=600))
        monitor.observe(ev(2, "log.append", ts=700, node=0, slot=0,
                           epoch=1, line=0, commit=False, bytes_used=8))
        # Latency digests survive the warmup marker (live lat.*
        # histograms are never reset either).
        assert monitor.verdict()["classes"]["ckpt"]["count"] == 1


class TestLiveRunAgreement:
    """Monitors on a live traced run equal the simulator's own stats."""

    @pytest.fixture(scope="class")
    def monitored_run(self):
        machine = build_tiny_machine()
        suite = MonitorSuite(run_monitors("cp_parity", {
            "interval_ns": machine.checkpointing.interval_ns,
            "log_bytes_per_node": 64 * 1024}))
        machine.install_tracer(Tracer(suite))
        machine.attach_workload(ToyWorkload(rounds=3))
        machine.run()
        return machine, suite

    def test_log_watermarks_match_simulator_bit_for_bit(self, monitored_run):
        machine, suite = monitored_run
        verdict = suite.verdicts()["log_occupancy"]
        for node, log in machine.revive.logs.items():
            assert verdict["watermark_bytes"].get(node, 0) == \
                log.max_bytes_used
        assert verdict["max_watermark_bytes"] == \
            machine.revive.max_log_bytes()

    def test_checkpoint_commits_match_coordinator(self, monitored_run):
        machine, suite = monitored_run
        verdict = suite.verdicts()["checkpoint_cadence"]
        assert verdict["commits"] == \
            machine.checkpointing.checkpoints_committed
        assert verdict["commits"] > 0

    def test_mem_totals_match_cache_counters_bit_for_bit(self,
                                                         monitored_run):
        machine, suite = monitored_run
        per_node = suite.verdicts()["mem_traffic"]["per_node"]
        for node_id, node in enumerate(machine.nodes):
            totals = per_node.get(node_id)
            assert totals is not None
            assert totals["l1_hits"] == node.hierarchy.l1.hits
            assert totals["l1_misses"] == node.hierarchy.l1.misses
            assert totals["l2_hits"] == node.hierarchy.l2.hits
            assert totals["l2_misses"] == node.hierarchy.l2.misses
        for proc in machine.processors:
            assert per_node[proc.node_id]["refs"] == proc.mem_refs
        assert suite.verdicts()["mem_traffic"]["totals"]["refs"] == \
            machine.total_mem_refs()

    def test_span_digests_match_live_histograms_bit_for_bit(
            self, monitored_run):
        machine, suite = monitored_run
        monitor = next(m for m in suite.monitors
                       if isinstance(m, SpanLatencyMonitor))
        assert monitor.by_class        # the run produced spans
        for cls, histogram in monitor.by_class.items():
            live = machine.stats.log_histogram("lat." + cls)
            assert histogram.summary() == live.summary(), cls
            assert histogram.buckets() == live.buckets(), cls

    def test_healthy_run_verdicts_are_jsonable(self, monitored_run):
        _machine, suite = monitored_run
        assert suite.healthy
        json.dumps(suite.verdicts())      # must not raise


class TestRunLedger:
    ARGS = {"scale": 0.05, "n_procs": 4, "interval_ns": 50_000}

    def test_digest_is_stable_and_order_insensitive(self):
        a = RunLedger("lu", "cp_parity", run_args=self.ARGS, seed=105)
        b = RunLedger("lu", "cp_parity", seed=105,
                      run_args=dict(reversed(list(self.ARGS.items()))))
        assert a.config_digest() == b.config_digest()

    @pytest.mark.parametrize("change", [
        dict(app="fft"), dict(variant="baseline"), dict(seed=7),
        dict(run_args={"scale": 0.1})])
    def test_digest_is_sensitive_to_config(self, change):
        base = dict(app="lu", variant="cp_parity", run_args=self.ARGS,
                    seed=105)
        assert RunLedger(**base).config_digest() != \
            RunLedger(**dict(base, **change)).config_digest()

    def test_finalize_without_result_or_monitors(self):
        ledger = RunLedger("lu", "cp_parity", seed=105)
        manifest = ledger.finalize()
        assert manifest["ledger_version"] == LEDGER_VERSION
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["result"] is None
        assert manifest["verdicts"] == {}
        assert manifest["healthy"]
        assert manifest["events_emitted"] is None

    def test_manifest_carries_results_and_verdicts(self):
        suite = MonitorSuite([RecoveryMonitor()])
        tracer = Tracer(suite)
        tracer.emit(0, "recovery", "recovery.begin", lost_node=1)
        ledger = RunLedger("lu", "cp_parity", run_args=self.ARGS, seed=105)
        manifest = ledger.finalize(monitors=suite, tracer=tracer)
        assert manifest["events_emitted"] == 1
        assert manifest["verdicts"]["recovery"]["recoveries"] == 1
        assert not manifest["healthy"]    # recovery begun, never ended

    def test_manifest_has_no_wall_clock_fields(self):
        manifest = RunLedger("lu", "cp_parity", run_args=self.ARGS,
                             seed=105).finalize()
        assert set(manifest) == {
            "ledger_version", "schema_version", "app", "variant", "seed",
            "config_digest", "run_args", "events_emitted", "result",
            "verdicts", "healthy"}

    def test_write_requires_finalize(self, tmp_path):
        with pytest.raises(RuntimeError, match="finalize"):
            RunLedger("lu", "cp_parity").write(str(tmp_path / "l.json"))

    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "run.ledger.json")
        ledger = RunLedger("lu", "cp_parity", run_args=self.ARGS, seed=105)
        manifest = ledger.finalize()
        ledger.write(path)
        assert read_ledger(path) == manifest

    def test_canonicalisation_handles_machine_config(self):
        from repro.machine.config import MachineConfig

        args = {"machine_config": MachineConfig.tiny(4), "scale": 0.05}
        a = RunLedger("lu", "cp_parity", run_args=args, seed=1)
        b = RunLedger("lu", "cp_parity", run_args=dict(args), seed=1)
        assert a.config_digest() == b.config_digest()
        json.dumps(a.run_args)            # canonical form is JSON-able
