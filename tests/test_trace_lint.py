"""Tests for repro.obs.lint: the trace schema validator.

``repro trace-lint`` is the schema's executable contract: traces the
package writes must lint clean, and each way a foreign (or corrupted)
trace can violate the schema must produce a problem string.
"""

from __future__ import annotations

import json
import os

from repro.obs import (JsonlFileSink, SCHEMA_VERSION, Tracer, lint_events,
                       lint_file)
from repro.obs.lint import ENVELOPE_KEYS, EVENT_FIELDS
from tests.conftest import ToyWorkload, build_tiny_machine


def ev(seq, name, ts=0, **fields):
    return dict({"v": SCHEMA_VERSION, "seq": seq, "ts": ts,
                 "cat": name.split(".")[0], "name": name}, **fields)


def valid_stream():
    return [
        ev(0, "sim.run_begin", until=None, pending=3),
        ev(1, "ckpt.begin", ts=10, epoch=1),
        ev(2, "ckpt.commit", ts=40, epoch=1, dur_ns=30),
        ev(3, "sim.warmup_done", ts=50),
        ev(4, "mem.batch", ts=60, node=0, refs=10, l1_hits=8, l1_misses=2,
           l2_hits=1, l2_misses=1, remote=0),
    ]


class TestLintEvents:
    def test_clean_stream_has_no_problems(self):
        assert lint_events(valid_stream()) == []

    def test_extra_fields_never_fail(self):
        # Fields may be added within a schema version.
        event = ev(0, "ckpt.begin", epoch=1, experimental_hint="x")
        assert lint_events([event]) == []

    def test_non_object_event(self):
        (problem,) = lint_events(["not a dict"])
        assert "not a JSON object" in problem

    def test_missing_envelope_keys(self):
        event = ev(0, "ckpt.begin", epoch=1)
        del event["ts"], event["cat"]
        (problem,) = lint_events([event], source="t.jsonl")
        assert problem.startswith("t.jsonl:0:")
        assert "missing envelope keys" in problem

    def test_wrong_schema_version(self):
        event = ev(0, "ckpt.begin", epoch=1)
        event["v"] = SCHEMA_VERSION + 1
        (problem,) = lint_events([event])
        assert "schema version" in problem

    def test_seq_must_strictly_increase(self):
        events = [ev(0, "sim.warmup_done"), ev(0, "sim.warmup_done", ts=1)]
        (problem,) = lint_events(events)
        assert "does not increase" in problem

    def test_non_integer_seq_and_ts(self):
        event = ev(0, "sim.warmup_done")
        event["seq"] = "zero"
        event["ts"] = -5
        problems = lint_events([event])
        assert any("seq" in p for p in problems)
        assert any("ts" in p for p in problems)

    def test_unknown_category(self):
        event = ev(0, "ckpt.begin", epoch=1)
        event["cat"] = "quantum"
        (problem,) = lint_events([event])
        assert "unknown category 'quantum'" in problem

    def test_name_not_namespaced_under_category(self):
        event = ev(0, "ckpt.begin", epoch=1)
        event["name"] = "log.append"        # cat stays "ckpt"
        (problem,) = lint_events([event])
        assert "not namespaced" in problem

    def test_unknown_event_name_flagged(self):
        (problem,) = lint_events([ev(0, "ckpt.wormhole")])
        assert "unknown event name" in problem

    def test_missing_required_fields(self):
        event = ev(0, "log.append", node=0, slot=1)
        (problem,) = lint_events([event])
        assert "log.append missing required fields" in problem
        assert "bytes_used" in problem

    def test_snap_events_lint_clean(self):
        # The campaign layer's snapshot events (docs/SNAPSHOTS.md):
        # svc-style, outside simulated time, ts 0 by convention.
        stream = [
            ev(0, "snap.capture", key="a" * 64, bytes=253847, epoch=2,
               dur_ms=120),
            ev(1, "snap.fork", key="a" * 64, scenarios=9),
            ev(2, "snap.restore", key="a" * 64, bytes=253847, dur_ms=3),
        ]
        assert lint_events(stream) == []

    def test_snap_capture_missing_fields(self):
        (problem,) = lint_events([ev(0, "snap.capture", key="k")])
        assert "snap.capture missing required fields" in problem
        assert "epoch" in problem and "dur_ms" in problem

    def test_unknown_snap_name_flagged(self):
        (problem,) = lint_events([ev(0, "snap.teleport", key="k")])
        assert "unknown event name" in problem

    def test_live_campaign_trace_lints_clean(self, tmp_path):
        from repro.harness.campaign import run_campaign
        from repro.harness.observe import Observe
        from repro.harness.runner import tiny_revive_overrides
        from repro.machine.config import MachineConfig

        path = str(tmp_path / "campaign.jsonl")
        run_campaign("fft", "cp_parity", scale=0.05, n_procs=4,
                     interval_ns=50_000,
                     machine_config=MachineConfig.tiny(4),
                     warm_checkpoints=2, lost_nodes=(1,),
                     detect_fractions=(0.5,), serial=True,
                     cache_dir=str(tmp_path / "store"),
                     observe=Observe(trace=path),
                     **tiny_revive_overrides(4))
        assert lint_file(path) == []

    def test_catalog_is_namespaced_and_enveloped(self):
        # Internal consistency of the schema catalog itself.
        assert ENVELOPE_KEYS == ("v", "seq", "ts", "cat", "name")
        from repro.obs import CATEGORIES

        for name, fields in EVENT_FIELDS.items():
            assert name.split(".")[0] in set(CATEGORIES)
            assert not set(fields) & set(ENVELOPE_KEYS)


def span_pair(seq=0, ts=100, txn=0, cls="read_miss", node=1, dur=80,
              segs=None):
    """A well-formed span.begin/span.end pair for mutation tests."""
    if segs is None:
        segs = [["net", 30], ["dir", 21], ["mem_read", 29]]
    begin = ev(seq, "span.begin", ts=ts, txn=txn, node=node,
               **{"class": cls})
    end = ev(seq + 1, "span.end", ts=ts + dur, txn=txn, node=node,
             dur_ns=dur, segs=segs, **{"class": cls})
    return [begin, end]


class TestLintSpans:
    def test_well_formed_span_lints_clean(self):
        assert lint_events(span_pair()) == []

    def test_segment_sum_closure_violation(self):
        events = span_pair(segs=[["net", 30], ["dir", 21]])  # sums to 51
        (problem,) = lint_events(events)
        assert "segments sum to 51 but span dur_ns is 80" in problem

    def test_end_without_begin(self):
        (_begin, end) = span_pair()
        (problem,) = lint_events([end])
        assert "span.end for txn 0 without a span.begin" in problem

    def test_begin_without_end_flagged_at_eof(self):
        (begin, _end) = span_pair()
        (problem,) = lint_events([begin], source="t.jsonl")
        assert problem == ("t.jsonl: span.begin for txn 0 has no "
                           "matching span.end")

    def test_duplicate_open_txn(self):
        begin, end = span_pair()
        dup = dict(begin, seq=begin["seq"])
        events = [begin, dict(dup, seq=5), dict(end, seq=6)]
        problems = lint_events(events)
        assert any("already-open txn 0" in p for p in problems)

    def test_class_mismatch_between_begin_and_end(self):
        begin, end = span_pair()
        end = dict(end, **{"class": "writeback"})
        problems = lint_events([begin, end])
        assert any("does not match span.begin class" in p
                   for p in problems)

    def test_unknown_span_class(self):
        events = span_pair(cls="teleport")
        problems = lint_events(events)
        assert any("unknown span class 'teleport'" in p for p in problems)

    def test_unknown_segment_kind(self):
        events = span_pair(segs=[["net", 30], ["warp", 50]])
        problems = lint_events(events)
        assert any("unknown segment kind 'warp'" in p for p in problems)

    def test_dur_must_match_timestamp_difference(self):
        begin, end = span_pair()
        end = dict(end, ts=end["ts"] + 7)
        problems = lint_events([begin, end])
        assert any("!= end ts - begin ts" in p for p in problems)

    def test_malformed_segment_shape(self):
        events = span_pair(segs=[["net", 30, "extra"]])
        problems = lint_events(events)
        assert any("malformed segment" in p for p in problems)

    def test_non_integer_txn(self):
        begin, _end = span_pair()
        begin = dict(begin, txn="seventeen")
        problems = lint_events([begin])
        assert any("is not an integer" in p for p in problems)

    def test_broken_span_fixture_fails_lint(self):
        # The checked-in fixture carries one good span and one whose
        # segments were hand-corrupted to sum short — lint must fail
        # on exactly that span, proving the closure check has teeth.
        fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                               "broken_span_trace.jsonl")
        problems = lint_file(fixture)
        assert len(problems) == 1
        assert "segments sum to 60 but span dur_ns is 101" in problems[0]
        assert "txn 1" in problems[0]


class TestLintTelemetry:
    """prof/stats stateful checks (docs/OBSERVABILITY.md)."""

    def prof_pair(self, wall=1.0, actor_secs=(0.4, 0.5)):
        events = [ev(0, "prof.run", wall_seconds=wall, activations=100)]
        for actor, secs in enumerate(actor_secs):
            events.append(ev(actor + 1, "prof.actor", actor=actor,
                             node=actor, kind="Processor", seconds=secs,
                             activations=50))
        return events

    def test_well_formed_prof_block_lints_clean(self):
        assert lint_events(self.prof_pair()) == []

    def test_actor_seconds_must_not_exceed_run_wall(self):
        (problem,) = lint_events(self.prof_pair(wall=0.8))
        assert "attribution exceeds the run" in problem
        assert "0.900000" in problem and "0.800000" in problem

    def test_actor_without_run_flagged(self):
        (_run, actor, _rest) = self.prof_pair()
        (problem,) = lint_events([dict(actor, seq=0)])
        assert "prof.actor without a preceding prof.run" in problem

    def test_negative_actor_seconds_flagged(self):
        events = self.prof_pair(actor_secs=(-0.1,))
        (problem,) = lint_events(events)
        assert "not a non-negative number" in problem

    def test_block_closes_at_next_run(self):
        # Overattribution is charged to the block it happened in, even
        # when another prof.run follows.
        events = self.prof_pair(wall=0.5)
        events.append(ev(len(events), "prof.run", wall_seconds=9.0,
                         activations=1))
        (problem,) = lint_events(events)
        assert "wall_seconds 0.500000" in problem

    def heartbeat(self, seq, beat):
        return ev(seq, "stats.heartbeat", beat=beat, inflight=0,
                  queue_depth=0, workers_busy=0, workers=2)

    def test_monotonic_heartbeats_lint_clean(self):
        events = [self.heartbeat(index, beat)
                  for index, beat in enumerate((1, 2, 5))]
        assert lint_events(events) == []

    def test_repeated_heartbeat_beat_flagged(self):
        events = [self.heartbeat(0, 3), self.heartbeat(1, 3)]
        (problem,) = lint_events(events)
        assert "heartbeat beat 3 does not increase" in problem

    def test_non_integer_beat_flagged(self):
        (problem,) = lint_events([self.heartbeat(0, "three")])
        assert "is not an integer" in problem

    def test_stats_snapshot_requires_metrics(self):
        (problem,) = lint_events([ev(0, "stats.snapshot", beat=1)])
        assert "stats.snapshot missing required fields" in problem


class TestLintDigest:
    """digest.window stateful checks (determinism observatory)."""

    def window(self, seq, window, prev, ts=0, epoch=0, components=None,
               machine=None):
        from repro.obs.digest import window_digest

        if components is None:
            components = {"engine": "a" * 64, "node0.memory": "b" * 64}
        if machine is None:
            machine = window_digest(prev, components)
        return ev(seq, "digest.window", ts=ts, window=window, epoch=epoch,
                  machine=machine, prev=prev, components=components)

    def chained(self):
        """Window 0, a checkpoint boundary, and its window 1."""
        from repro.obs.digest import GENESIS

        first = self.window(0, 0, GENESIS)
        stream = [first,
                  ev(1, "ckpt.begin", ts=10, epoch=1),
                  ev(2, "ckpt.commit", ts=40, epoch=1, dur_ns=30),
                  self.window(3, 1, first["machine"], ts=40, epoch=1,
                              components={"engine": "c" * 64})]
        return stream

    def test_well_formed_chain_lints_clean(self):
        assert lint_events(self.chained()) == []

    def test_broken_prev_linkage(self):
        stream = self.chained()
        # Recompute machine from the *claimed* prev so only the
        # linkage check fires, not the recompute check too.
        stream[3] = self.window(3, 1, "0" * 64, ts=40, epoch=1)
        (problem,) = lint_events(stream)
        assert "the chain is broken" in problem

    def test_machine_digest_must_recompute(self):
        from repro.obs.digest import GENESIS

        stream = [self.window(0, 0, GENESIS, machine="f" * 64)]
        (problem,) = lint_events(stream)
        assert "does not recompute" in problem

    def test_window_numbers_must_be_sequential(self):
        stream = self.chained()
        skipped = self.window(4, 3, stream[3]["machine"], ts=40, epoch=1)
        (problem,) = lint_events(stream + [skipped])
        assert "window 3 does not follow window 1" in problem

    def test_non_integer_window(self):
        from repro.obs.digest import GENESIS

        event = self.window(0, 0, GENESIS)
        event["window"] = "zero"
        (problem,) = lint_events([event])
        assert "is not an integer" in problem

    def test_components_must_be_nonempty_mapping(self):
        from repro.obs.digest import GENESIS, window_digest

        event = self.window(0, 0, GENESIS, components={},
                            machine=window_digest(GENESIS, {}))
        (problem,) = lint_events([event])
        assert "non-empty name->hexdigest" in problem

    def test_commit_without_digest_window_flagged(self):
        # Once a stream shows any digest.window, every later
        # ckpt.commit owes the chain a window for its epoch.
        stream = self.chained()
        stream.append(ev(4, "ckpt.begin", ts=50, epoch=2))
        stream.append(ev(5, "ckpt.commit", ts=90, epoch=2, dur_ns=40))
        (problem,) = lint_events(stream)
        assert "epoch 2" in problem
        assert "has no digest.window" in problem

    def test_undigested_runs_carry_no_obligation(self):
        # No digest.window anywhere: commits lint clean (back-compat
        # with traces from before the observatory existed).
        assert lint_events(valid_stream()) == []

    def test_broken_digest_fixture_fails_lint(self):
        # The checked-in fixture carries a valid window 0 and a window
        # 1 whose prev was hand-corrupted (machine recomputed from the
        # corrupt prev, so only the linkage check fires) — lint must
        # fail on exactly the chain-linkage problem.
        fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                               "broken_digest_trace.jsonl")
        problems = lint_file(fixture)
        assert len(problems) == 1
        assert "digest window 1 prev" in problems[0]
        assert "the chain is broken" in problems[0]

    def test_live_digested_run_lints_clean(self, tmp_path):
        from repro.obs.digest import DigestRecorder

        path = str(tmp_path / "digested.jsonl")
        machine = build_tiny_machine()
        tracer = Tracer(JsonlFileSink(path))
        machine.install_tracer(tracer)
        machine.install_digests(DigestRecorder(tracer))
        machine.attach_workload(ToyWorkload(rounds=2))
        machine.record_digest(0)
        machine.run()
        tracer.close()
        assert lint_file(path) == []


class TestLintFile:
    def test_missing_file(self, tmp_path):
        (problem,) = lint_file(str(tmp_path / "nope.jsonl"))
        assert "no such trace" in problem

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        (problem,) = lint_file(str(path))
        assert "trace is empty" in problem

    def test_invalid_jsonl(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"v": 1,\n')
        (problem,) = lint_file(str(path))
        assert "not valid JSONL" in problem

    def test_written_stream_round_trips_clean(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for event in valid_stream():
                handle.write(json.dumps(event) + "\n")
        assert lint_file(path) == []

    def test_live_toy_run_trace_lints_clean(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        machine = build_tiny_machine()
        tracer = Tracer(JsonlFileSink(path))
        machine.install_tracer(tracer)
        machine.attach_workload(ToyWorkload(rounds=2))
        machine.run()
        tracer.close()
        assert lint_file(path) == []
