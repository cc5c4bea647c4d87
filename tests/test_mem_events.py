"""Tests for the columnar engine's ``mem`` trace category.

``mem.batch`` events are emitted at compiled-batch flush boundaries
and must reconcile exactly with the per-node cache counters and
per-processor reference counts — closing the observability blindspot
without costing untraced runs anything.  Also pins the
``Machine.install_tracer`` / compiled-closure interaction: installing
a tracer mid-run must invalidate every processor's stale batch
closure so the new tracer's hooks take effect.
"""

from __future__ import annotations

from repro.obs import RingBufferSink, Tracer, lint_events
from repro.workloads.registry import get_workload
from tests.conftest import ToyWorkload, build_tiny_machine


def traced_toy_run(categories=None, columnar=True, rounds=2):
    sink = RingBufferSink(capacity=1 << 20)
    machine = build_tiny_machine()
    machine.install_tracer(Tracer(sink, categories=categories))
    machine.attach_workload(ToyWorkload(rounds=rounds))
    if not columnar:               # processors exist once attached
        for proc in machine.processors:
            proc.columnar = False
    machine.run()
    return machine, sink.events()


def mem_batches(events):
    return [e for e in events if e["name"] == "mem.batch"]


def split_at_warmup(events):
    """Events strictly after the ``sim.warmup_done`` marker."""
    marker = [e["seq"] for e in events if e["name"] == "sim.warmup_done"]
    assert len(marker) == 1
    return [e for e in events if e["seq"] > marker[0]]


class TestMemBatchEvents:
    def test_batches_present_and_schema_clean(self):
        _machine, events = traced_toy_run()
        batches = mem_batches(events)
        assert batches
        assert all(e["cat"] == "mem" for e in batches)
        assert lint_events(events) == []

    def test_post_warmup_sums_match_counters_bit_for_bit(self):
        machine, events = traced_toy_run()
        steady = mem_batches(split_at_warmup(events))
        assert steady

        def total(node, field):
            return sum(e[field] for e in steady if e["node"] == node)

        for node_id, node in enumerate(machine.nodes):
            assert total(node_id, "l1_hits") == node.hierarchy.l1.hits
            assert total(node_id, "l1_misses") == node.hierarchy.l1.misses
            assert total(node_id, "l2_hits") == node.hierarchy.l2.hits
            assert total(node_id, "l2_misses") == node.hierarchy.l2.misses
        for proc in machine.processors:
            assert total(proc.node_id, "refs") == proc.mem_refs
        assert sum(e["refs"] for e in steady) == machine.total_mem_refs()

    def test_remote_counts_are_bounded_and_present(self):
        _machine, events = traced_toy_run()
        batches = mem_batches(events)
        for event in batches:
            assert 0 <= event["remote"] <= event["refs"]
        # The shared region guarantees some remotely-homed misses.
        assert sum(e["remote"] for e in batches) > 0

    def test_reference_loop_emits_no_mem_events(self):
        _machine, events = traced_toy_run(columnar=False)
        assert mem_batches(events) == []
        assert events                       # other categories still flow

    def test_category_filter_excludes_mem(self):
        _machine, events = traced_toy_run(categories={"ckpt", "log"})
        assert mem_batches(events) == []
        assert {e["cat"] for e in events} <= {"ckpt", "log"}


class TestInstallTracerRebindsFastpath:
    """Satellite regression: no stale compiled closures after install."""

    def test_invalidate_fastpath_flushes_columnar(self):
        # Mid-run, the columnar closure holds deferred L1/L2 state
        # behind the caches' sync hooks.  Invalidating must materialize
        # that state before dropping the closure: the raw cache dicts
        # then equal what an observer of an identical twin sees (its
        # snapshot fires the hooks), and the run ends bit-identical to
        # an uninterrupted one.
        def build():
            machine = build_tiny_machine(revive=False)
            machine.attach_workload(get_workload("lu", scale=0.02,
                                                 n_procs=4))
            return machine

        def raw_lru_order(machine):
            return [[list(cache_set) for cache_set in
                     n.hierarchy.l1.raw_sets() + n.hierarchy.l2.raw_sets()]
                    for n in machine.nodes]

        def caches(machine):
            return [n.hierarchy.snapshot() for n in machine.nodes]

        def final_state(machine):
            return (machine.simulator.now, machine._store_counter,
                    [p.time for p in machine.processors],
                    [p.mem_refs for p in machine.processors],
                    caches(machine),
                    [dict(n.memory.lines()) for n in machine.nodes])

        uninterrupted = build()
        uninterrupted.run()
        machine, twin = build(), build()
        machine.run(until=20_000)
        twin.run(until=20_000)
        assert not machine.all_finished

        pending = raw_lru_order(machine)
        for proc in machine.processors:
            hier = machine.nodes[proc.node_id].hierarchy
            assert proc._columnar_fn is not None
            assert hier.l1.sync_hook is not None
            assert hier.l2.sync_hook is not None
            proc.invalidate_fastpath()
            assert hier.l1.sync_hook is None
            assert hier.l2.sync_hook is None
            assert proc._columnar_fn is None
        # The pause left reorders deferred; invalidation applied them.
        assert raw_lru_order(machine) != pending
        assert caches(machine) == caches(twin)

        machine.run()
        assert final_state(machine) == final_state(uninterrupted)

    def test_tracer_installed_mid_run_reaches_fast_path(self):
        machine = build_tiny_machine()
        machine.attach_workload(ToyWorkload(rounds=3))
        machine.run(until=5_000)            # compile untraced closures
        assert not machine.all_finished
        assert any(p._columnar_fn is not None
                   for p in machine.processors)

        sink = RingBufferSink(capacity=1 << 20)
        machine.install_tracer(Tracer(sink))
        assert all(p._columnar_fn is None for p in machine.processors)

        machine.run()
        assert mem_batches(sink.events())   # new closure carries the hook

    def test_mid_run_tracer_matches_from_start_counters(self):
        # The rebound closure must keep simulating identically: final
        # machine state equals an identically-configured untraced run.
        untraced = build_tiny_machine()
        untraced.attach_workload(ToyWorkload(rounds=3))
        untraced.run()

        traced = build_tiny_machine()
        traced.attach_workload(ToyWorkload(rounds=3))
        traced.run(until=5_000)
        traced.install_tracer(Tracer(RingBufferSink(capacity=1 << 20)))
        traced.run()

        assert traced.execution_time == untraced.execution_time
        assert traced.total_mem_refs() == untraced.total_mem_refs()
        for a, b in zip(traced.nodes, untraced.nodes):
            assert (a.hierarchy.l1.hits, a.hierarchy.l1.misses,
                    a.hierarchy.l2.hits, a.hierarchy.l2.misses) == \
                   (b.hierarchy.l1.hits, b.hierarchy.l1.misses,
                    b.hierarchy.l2.hits, b.hierarchy.l2.misses)


class TestZeroCostWhenOffMemHooks:
    """TestZeroCostWhenOff-style pins for the new mem hooks."""

    def test_untraced_run_emits_zero_events_with_mem_hooks(self):
        machine = build_tiny_machine()
        machine.attach_workload(ToyWorkload(rounds=1, refs_per_round=500))
        machine.run()
        assert machine.tracer.events_emitted == 0

    def test_untraced_and_traced_runs_agree_on_counters(self):
        plain = build_tiny_machine()
        plain.attach_workload(ToyWorkload(rounds=2))
        plain.run()

        traced, _events = traced_toy_run()
        assert traced.execution_time == plain.execution_time
        assert traced.total_mem_refs() == plain.total_mem_refs()
