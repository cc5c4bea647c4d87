"""Tests for repro.obs: tracer, sinks, and trace analysis.

Covers the tentpole guarantees of docs/OBSERVABILITY.md: the event
envelope, category filtering, the JSONL sink, zero-events-when-disabled,
and the Figure-12 recomputation — recovery phase durations rebuilt from
a JSONL trace must match the live :class:`RecoveryResult`.
"""

from __future__ import annotations

import json

import pytest

from repro.core.faults import NodeLossFault, TransientSystemFault
from repro.core.recovery import RecoveryManager
from repro.obs import (CATEGORIES, SCHEMA_VERSION, JsonlFileSink,
                       RingBufferSink, Tracer, category_counts,
                       read_trace, recovery_breakdown, trace_enabled)
from tests.conftest import ToyWorkload, build_tiny_machine


class TestEnvelope:
    def test_event_envelope_fields(self):
        sink = RingBufferSink()
        tracer = Tracer(sink=sink)
        tracer.emit(125, "ckpt", "ckpt.begin", epoch=1)
        (event,) = sink.events()
        assert event == {"v": SCHEMA_VERSION, "seq": 0, "ts": 125,
                         "cat": "ckpt", "name": "ckpt.begin", "epoch": 1}

    def test_seq_is_monotonic_across_categories(self):
        sink = RingBufferSink()
        tracer = Tracer(sink=sink)
        for i, cat in enumerate(CATEGORIES):
            tracer.emit(i, cat, f"{cat}.x")
        assert [e["seq"] for e in sink.events()] == \
            list(range(len(CATEGORIES)))
        assert tracer.events_emitted == len(CATEGORIES)


class TestFiltering:
    def test_category_filter_drops_before_sink(self):
        sink = RingBufferSink()
        tracer = Tracer(sink=sink, categories={"ckpt", "recovery"})
        tracer.emit(0, "sim", "sim.run_begin")
        tracer.emit(1, "ckpt", "ckpt.begin", epoch=1)
        tracer.emit(2, "coh", "coh.transition")
        tracer.emit(3, "recovery", "recovery.begin")
        assert [e["cat"] for e in sink.events()] == ["ckpt", "recovery"]
        # seq numbers only advance for events that pass the filter.
        assert [e["seq"] for e in sink.events()] == [0, 1]

    def test_disabled_tracer_emits_nothing(self):
        sink = RingBufferSink()
        tracer = Tracer(sink=sink, enabled=False)
        tracer.emit(0, "sim", "sim.run_begin")
        assert sink.events() == []
        assert tracer.events_emitted == 0
        assert not tracer.enabled

    def test_sinkless_tracer_is_disabled(self):
        assert not Tracer(sink=None).enabled

    def test_close_disables_further_emission(self):
        sink = RingBufferSink()
        with Tracer(sink=sink) as tracer:
            tracer.emit(0, "sim", "sim.run_begin")
        assert not tracer.enabled
        tracer.emit(1, "sim", "sim.run_end")
        assert len(sink.events()) == 1

    def test_close_is_idempotent(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tracer = Tracer(sink=JsonlFileSink(path))
        tracer.emit(0, "sim", "sim.hook_fire")
        tracer.close()
        tracer.close()                      # second close: a no-op
        assert not tracer.enabled
        assert [e["ts"] for e in read_trace(path)] == [0]


class TestRingBufferSink:
    def test_keeps_newest_and_counts_dropped(self):
        sink = RingBufferSink(capacity=3)
        tracer = Tracer(sink=sink)
        for i in range(5):
            tracer.emit(i, "sim", "sim.hook_fire")
        assert [e["ts"] for e in sink.events()] == [2, 3, 4]
        assert sink.dropped == 2

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJsonlFileSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with Tracer(sink=JsonlFileSink(path)) as tracer:
            tracer.emit(1, "log", "log.append", node=0)
            tracer.emit(2, "log", "log.reclaim", node=0)
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        assert [e["name"] for e in lines] == ["log.append", "log.reclaim"]
        assert read_trace(path) == lines
        assert category_counts(lines) == {"log": 2}

    def test_sink_close_is_idempotent(self, tmp_path):
        sink = JsonlFileSink(str(tmp_path / "t.jsonl"))
        sink.write({"v": SCHEMA_VERSION, "seq": 0, "ts": 0,
                    "cat": "sim", "name": "sim.hook_fire"})
        sink.close()
        sink.close()                        # must not raise on closed file


class TestZeroCostWhenOff:
    def test_untraced_machine_components_carry_disabled_tracer(self):
        machine = build_tiny_machine()
        assert not trace_enabled(machine)
        assert not machine.simulator.tracer.enabled
        for node in machine.nodes:
            assert not node.directory.tracer.enabled

    def test_untraced_run_emits_zero_events(self):
        # Same run twice: untraced, then traced.  The untraced machine's
        # shared NULL_TRACER must stay at zero emissions.
        machine = build_tiny_machine()
        machine.attach_workload(ToyWorkload(rounds=1, refs_per_round=200))
        machine.run()
        assert machine.tracer.events_emitted == 0

        sink = RingBufferSink()
        traced = build_tiny_machine()
        traced.install_tracer(Tracer(sink=sink))
        traced.attach_workload(ToyWorkload(rounds=1, refs_per_round=200))
        traced.run()
        assert trace_enabled(traced)
        assert len(sink.events()) > 0

    def test_install_tracer_reaches_every_component(self):
        machine = build_tiny_machine()
        tracer = Tracer(sink=RingBufferSink())
        machine.install_tracer(tracer)
        assert machine.simulator.tracer is tracer
        for node in machine.nodes:
            assert node.directory.tracer is tracer
        for log in machine.revive.logs.values():
            assert log.tracer is tracer


class TestRecoveryBreakdownFromTrace:
    """The worked example of docs/OBSERVABILITY.md, as a test.

    Phase durations recomputed purely from the JSONL trace must equal
    the live ``RecoveryResult`` of the same node-loss recovery.
    """

    def run_traced_node_loss(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(sink=JsonlFileSink(path))
        machine = build_tiny_machine()
        machine.install_tracer(tracer)
        machine.attach_workload(ToyWorkload(rounds=6))
        coord = machine.checkpointing
        horizon = 3 * coord.interval_ns
        while coord.checkpoints_committed < 2 and not machine.all_finished:
            machine.run(until=horizon)
            horizon += coord.interval_ns
        assert coord.checkpoints_committed >= 2
        detect = coord.commit_times[2] + int(0.8 * coord.interval_ns)
        machine.run(until=detect)
        NodeLossFault(1).apply(machine)
        result = RecoveryManager(machine).recover(detect_time=detect,
                                                  lost_node=1,
                                                  target_epoch=1)
        tracer.close()
        return machine, result, read_trace(path)

    def test_trace_matches_recovery_result(self, tmp_path):
        machine, result, events = self.run_traced_node_loss(tmp_path)
        assert machine.verify_against_snapshot(1) == []
        live = dict(result.breakdown(),
                    background_repair=result.phase4_background_ns)
        assert recovery_breakdown(events) == live

    def test_trace_carries_all_categories(self, tmp_path):
        _machine, _result, events = self.run_traced_node_loss(tmp_path)
        counts = category_counts(events)
        # Every simulator-emitted category; "svc" belongs to the
        # serving layer (docs/SERVING.md), "snap" to the campaign
        # layer (docs/SNAPSHOTS.md), "prof"/"stats" to the
        # host-time/telemetry layer (docs/OBSERVABILITY.md), and
        # "digest" to the determinism observatory (opt-in via
        # install_digests) — none of them appears in a plain machine
        # trace.
        assert set(counts) == set(CATEGORIES) - {"svc", "snap",
                                                 "prof", "stats",
                                                 "digest"}
        names = {e["name"] for e in events}
        assert {"sim.run_begin", "coh.transition", "log.append",
                "ckpt.commit", "recovery.begin", "recovery.end",
                "recovery.phase_begin", "recovery.phase_end"} <= names

    @pytest.mark.parametrize("fault", [NodeLossFault(1),
                                       TransientSystemFault()])
    def test_no_clear_is_stamped_before_its_predecessor(self, tmp_path,
                                                        fault):
        """A fault wipes directories at the paused machine's time, so
        every ``coh.clear`` (fault and Phase 1 alike) is in time order
        with the event before it."""
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(sink=JsonlFileSink(path))
        machine = build_tiny_machine()
        machine.install_tracer(tracer)
        machine.attach_workload(ToyWorkload(rounds=4))
        machine.run(until=20_000)
        fault.apply(machine)
        RecoveryManager(machine).recover(detect_time=20_000,
                                         lost_node=fault.lost_node)
        tracer.close()
        events = read_trace(path)
        clears = [i for i, e in enumerate(events)
                  if e["name"] == "coh.clear"]
        assert len(clears) == len(machine.nodes) + (
            1 if fault.lost_node is not None else len(machine.nodes))
        for i in clears:
            assert events[i]["ts"] >= events[i - 1]["ts"] > 0

    def test_incomplete_trace_raises(self):
        with pytest.raises(ValueError):
            recovery_breakdown([{"v": 1, "seq": 0, "ts": 0,
                                 "cat": "recovery",
                                 "name": "recovery.begin",
                                 "lost_node": 1}])
