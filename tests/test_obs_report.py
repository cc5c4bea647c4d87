"""Tests for repro.obs.report: the ``repro report`` dashboard.

Acceptance pins: Figure 11 (log occupancy) and Figure 12 (recovery
breakdown) recomputed from trace + ledger alone must match the
simulator's own statistics bit-for-bit, and Figure 8 overhead rows
recomputed from ledger manifests must match ``SweepResult.overhead_rows``
on the same sweep.
"""

from __future__ import annotations

import json

import pytest

from repro.core.faults import NodeLossFault
from repro.core.recovery import RecoveryManager
from repro.harness.observe import Observe
from repro.harness.parallel import run_sweep
from repro.machine.config import MachineConfig
from repro.obs import (
    JsonlFileSink,
    Tracer,
    latency_report,
    read_trace,
    span_ends,
)
from repro.obs.report import (
    _bucket_curve,
    build_report,
    gather_runs,
    log_occupancy,
    overhead_rows_from_ledgers,
    render_latency,
    render_report,
)
from tests.conftest import ToyWorkload, build_tiny_machine

SWEEP_KW = dict(scale=0.05, n_procs=4, machine_config=MachineConfig.tiny(4),
                parity_group_size=3, log_bytes_per_node=64 * 1024)


def traced_toy_run(tmp_path, rounds=3):
    path = str(tmp_path / "toy.jsonl")
    machine = build_tiny_machine()
    tracer = Tracer(JsonlFileSink(path))
    machine.install_tracer(tracer)
    machine.attach_workload(ToyWorkload(rounds=rounds))
    machine.run()
    tracer.close()
    return machine, read_trace(path)


def traced_node_loss_run(tmp_path):
    """A traced run that loses node 1 and recovers to epoch 1."""
    path = str(tmp_path / "loss.jsonl")
    tracer = Tracer(JsonlFileSink(path))
    machine = build_tiny_machine()
    machine.install_tracer(tracer)
    machine.attach_workload(ToyWorkload(rounds=6))
    coord = machine.checkpointing
    horizon = 3 * coord.interval_ns
    while coord.checkpoints_committed < 2 and not machine.all_finished:
        machine.run(until=horizon)
        horizon += coord.interval_ns
    detect = coord.commit_times[2] + int(0.8 * coord.interval_ns)
    machine.run(until=detect)
    NodeLossFault(1).apply(machine)
    result = RecoveryManager(machine).recover(detect_time=detect,
                                              lost_node=1, target_epoch=1)
    tracer.close()
    return machine, result, read_trace(path)


class TestFigure11LogOccupancy:
    def test_watermarks_match_simulator_bit_for_bit(self, tmp_path):
        machine, events = traced_toy_run(tmp_path)
        occupancy = log_occupancy(events)
        for node, log in machine.revive.logs.items():
            assert occupancy["per_node_watermark"].get(node, 0) == \
                log.max_bytes_used
        assert occupancy["max_log_bytes"] == machine.revive.max_log_bytes()
        assert occupancy["max_log_bytes"] > 0

    def test_warmup_partitions_the_stream(self, tmp_path):
        _machine, events = traced_toy_run(tmp_path)
        occupancy = log_occupancy(events)
        assert occupancy["warmup_ts"] is not None
        # First-touch logging alone must not set the watermark.
        pre = [e for e in events if e["name"] == "log.append"
               and e["ts"] <= occupancy["warmup_ts"]]
        assert pre                 # warmup did log something, yet...
        assert occupancy["per_node_watermark"]   # ...marks are post-warmup

    def test_curve_spans_the_run(self, tmp_path):
        _machine, events = traced_toy_run(tmp_path)
        curve = log_occupancy(events, curve_points=12)["curve"]
        assert len(curve) == 12
        assert all(b[0] >= a[0] for a, b in zip(curve, curve[1:]))
        assert max(value for _ts, value in curve) > 0


class TestBucketCurve:
    def test_empty_and_degenerate_inputs(self):
        assert _bucket_curve([], 8) == []
        assert _bucket_curve([(5, 10)], 8) == [(5, 10)]
        assert _bucket_curve([(5, 10), (5, 30)], 8) == [(5, 30)]

    def test_per_bucket_maxima(self):
        samples = [(0, 1), (10, 5), (40, 3), (99, 2)]
        curve = _bucket_curve(samples, 2)
        assert curve == [(49, 5), (99, 2)]

    def test_empty_buckets_carry_forward_closing_value(self):
        samples = [(0, 10), (5, 7), (100, 5)]
        curve = _bucket_curve(samples, 4)
        # Buckets 1 and 2 are empty: they hold at bucket 0's closing
        # occupancy (7), not at zero.
        assert [value for _ts, value in curve] == [10, 7, 7, 5]


class TestFigure12Recovery:
    def test_report_matches_recovery_result_bit_for_bit(self, tmp_path):
        _machine, result, events = traced_node_loss_run(tmp_path)
        report = build_report([{"name": "loss", "events": events,
                                "ledger": None}])
        (run,) = report["runs"]
        live = dict(result.breakdown(),
                    background_repair=result.phase4_background_ns)
        assert run["recovery"] == live
        recovery = run["verdicts"]["recovery"]
        assert recovery["recoveries"] == recovery["completed"] == 1
        assert run["healthy"]

    def test_rendered_dashboard_shows_the_breakdown(self, tmp_path):
        _machine, _result, events = traced_node_loss_run(tmp_path)
        report = build_report([{"name": "loss", "events": events,
                                "ledger": None}])
        text = render_report(report)
        assert "Figure 12" in text
        assert "log rebuild" in text and "rollback" in text


class TestOverheadRowsFromLedgers:
    @pytest.fixture(scope="class")
    def traced_sweep(self, tmp_path_factory):
        trace_dir = str(tmp_path_factory.mktemp("sweep"))
        sweep = run_sweep(["lu"], ["baseline", "cp_parity"], serial=True,
                          observe=Observe(trace=trace_dir), **SWEEP_KW)
        return sweep, trace_dir

    def test_rows_match_sweep_result_bit_for_bit(self, traced_sweep):
        sweep, _trace_dir = traced_sweep
        assert overhead_rows_from_ledgers(sweep.ledgers) == \
            sweep.overhead_rows()

    def test_rows_from_files_alone(self, traced_sweep):
        sweep, trace_dir = traced_sweep
        runs = gather_runs([trace_dir])
        assert [run["name"] for run in runs] == \
            [f"{app}__{variant}" for app, variant in sweep.job_order]
        report = build_report(runs)
        assert report["overhead_rows"] == sweep.overhead_rows()
        assert all(run["ledger"] is not None for run in report["runs"])

    def test_report_is_jsonable_and_renders(self, traced_sweep):
        _sweep, trace_dir = traced_sweep
        report = build_report(gather_runs([trace_dir]))
        blob = json.dumps(report, sort_keys=True)
        assert "Figure 8" in render_report(json.loads(blob))

    def test_missing_baseline_raises(self):
        ledgers = [{"app": "lu", "variant": "cp_parity",
                    "result": {"execution_time_ns": 100}}]
        with pytest.raises(ValueError, match="baseline"):
            overhead_rows_from_ledgers(ledgers)

    def test_resultless_manifests_are_skipped(self):
        ledgers = [
            {"app": "lu", "variant": "baseline",
             "result": {"execution_time_ns": 100}},
            {"app": "lu", "variant": "cp_parity",
             "result": {"execution_time_ns": 150}},
            {"app": "lu", "variant": "cp_only", "result": None},
        ]
        (row,) = overhead_rows_from_ledgers(ledgers)
        assert row == {"app": "lu", "baseline_ns": 100,
                       "cp_parity": 150 / 100 - 1.0}


class TestLatencyReport:
    def test_report_matches_live_histograms_bit_for_bit(self, tmp_path):
        # The acceptance pin: percentiles recomputed from the trace
        # alone equal the machine's live ``lat.*`` histograms (which
        # include warmup — neither side resets).
        machine, events = traced_toy_run(tmp_path)
        report = latency_report(events)
        assert report["total_spans"] == len(span_ends(events)) > 0
        for cls, digest in report["classes"].items():
            live = machine.stats.log_histogram("lat." + cls).summary()
            assert {k: digest[k] for k in live} == live, cls

    def test_attribution_shares_are_normalized(self, tmp_path):
        from repro.obs import SEGMENTS
        _machine, events = traced_toy_run(tmp_path)
        for digest in latency_report(events)["classes"].values():
            for table in (digest["attribution"],
                          digest["tail_attribution"]):
                assert set(table) <= set(SEGMENTS)
                assert abs(sum(table.values()) - 1.0) < 1e-9

    def test_dashboard_carries_and_renders_the_tables(self, tmp_path):
        _machine, events = traced_toy_run(tmp_path)
        report = build_report([{"name": "toy", "events": events,
                                "ledger": None}])
        (run,) = report["runs"]
        assert run["latency"]["classes"]
        text = render_report(report)
        assert "transaction latency" in text
        assert "critical-path attribution" in text
        assert "read_miss" in text

    def test_spanless_run_renders_without_latency_section(self):
        report = build_report([{"name": "empty", "events": [],
                                "ledger": None}])
        (run,) = report["runs"]
        assert run["latency"] is None
        assert "transaction latency" not in render_report(report)
        assert "no span events" in render_latency(
            latency_report([]))

    def test_serial_and_parallel_sweeps_agree_exactly(
            self, tmp_path_factory):
        reports = []
        for serial in (True, False):
            trace_dir = str(tmp_path_factory.mktemp(
                f"sweep_{'serial' if serial else 'parallel'}"))
            run_sweep(["lu"], ["baseline", "cp_parity"], serial=serial,
                      observe=Observe(trace=trace_dir), **SWEEP_KW)
            reports.append({
                run["name"]: latency_report(run["events"])
                for run in gather_runs([trace_dir])})
        serial_report, parallel_report = reports
        assert serial_report == parallel_report
        assert all(r["total_spans"] > 0 for r in serial_report.values())


class TestGatherRuns:
    def test_single_file_with_sibling_ledger(self, tmp_path):
        _machine, _events = traced_toy_run(tmp_path)
        (run,) = gather_runs([str(tmp_path / "toy.jsonl")])
        assert run["name"] == "toy"
        assert run["events"]
        assert run["ledger"] is None        # no sibling ledger written

    def test_directory_without_merged_ledger_sorts_by_name(self, tmp_path):
        for name in ("b", "a"):
            (tmp_path / f"{name}.jsonl").write_text("")
        runs = gather_runs([str(tmp_path)])
        assert [run["name"] for run in runs] == ["a", "b"]

    def test_empty_report_renders_placeholder(self):
        assert render_report(build_report([])) == "report: no runs"
