"""Unit tests for the processor model."""

import numpy as np

from conftest import build_tiny_machine

from repro.cpu.processor import BARRIER_POLL_NS


def ops_chunk(addrs, writes=None, gaps=None):
    n = len(addrs)
    return ("ops",
            np.asarray(gaps if gaps is not None else [1] * n,
                       dtype=np.int64),
            np.asarray(addrs, dtype=np.int64),
            np.asarray(writes if writes is not None else [False] * n))


class ListWorkload:
    """Workload built from explicit per-processor chunk lists."""

    instructions_per_ref = 2.0

    def __init__(self, streams):
        self.streams = streams
        self.n_procs = len(streams)

    def stream_for(self, proc_id):
        return iter(self.streams[proc_id])


class TestExecution:
    def test_processor_consumes_stream_and_retires(self):
        machine = build_tiny_machine(revive=False)
        addrs = [(1 << 30) + i * 64 for i in range(100)]
        machine.attach_workload(ListWorkload([[ops_chunk(addrs)]]))
        machine.run()
        proc = machine.processors[0]
        assert proc.finished
        assert proc.mem_refs == 100
        assert proc.finish_time > 0

    def test_gaps_advance_time(self):
        machine = build_tiny_machine(revive=False)
        addrs = [(1 << 30)] * 50                  # same line: hits after 1st
        fast = [ops_chunk(addrs, gaps=[1] * 50)]
        machine.attach_workload(ListWorkload([fast]))
        machine.run()
        t_fast = machine.processors[0].finish_time

        machine2 = build_tiny_machine(revive=False)
        slow = [ops_chunk(addrs, gaps=[100] * 50)]
        machine2.attach_workload(ListWorkload([slow]))
        machine2.run()
        assert machine2.processors[0].finish_time > t_fast + 49 * 90

    def test_misses_cost_more_than_hits(self):
        machine = build_tiny_machine(revive=False)
        hits = [ops_chunk([(1 << 30)] * 200)]
        machine.attach_workload(ListWorkload([hits]))
        machine.run()
        t_hits = machine.processors[0].finish_time

        machine2 = build_tiny_machine(revive=False)
        misses = [ops_chunk([(1 << 30) + i * 64 for i in range(200)])]
        machine2.attach_workload(ListWorkload([misses]))
        machine2.run()
        assert machine2.processors[0].finish_time > t_hits

    def test_writes_store_unique_values(self):
        machine = build_tiny_machine(revive=False)
        addrs = [(1 << 30) + i * 64 for i in range(10)]
        machine.attach_workload(
            ListWorkload([[ops_chunk(addrs, writes=[True] * 10)]]))
        machine.run()
        hierarchy = machine.nodes[0].hierarchy
        values = {line.value for line in hierarchy.dirty_lines()}
        assert len(values) == 10

    def test_kill_retires_processor(self):
        machine = build_tiny_machine(revive=False)
        chunks = [ops_chunk([(1 << 30) + i * 64 for i in range(1000)])]
        machine.attach_workload(ListWorkload([chunks]))
        machine.processors[0].kill()
        machine.run()
        assert machine.processors[0].killed
        assert machine.processors[0].mem_refs == 0


class TestBarriers:
    def test_barrier_synchronizes_processors(self):
        machine = build_tiny_machine(revive=False)
        # Proc 0 is fast, proc 1 slow; both hit a barrier, then finish.
        fast = [ops_chunk([(1 << 30)] * 10), ("barrier",),
                ops_chunk([(1 << 30)] * 10)]
        slow = [ops_chunk([(2 << 30)] * 10, gaps=[500] * 10), ("barrier",),
                ops_chunk([(2 << 30)] * 10)]
        machine.attach_workload(ListWorkload([fast, slow]))
        machine.run()
        t0 = machine.processors[0].finish_time
        t1 = machine.processors[1].finish_time
        # The fast processor waited: finish times are close.
        assert abs(t0 - t1) < 2000 + 2 * BARRIER_POLL_NS

    def test_mismatched_barriers_would_deadlock_but_kill_releases(self):
        machine = build_tiny_machine(revive=False)
        fast = [ops_chunk([(1 << 30)] * 5), ("barrier",),
                ops_chunk([(1 << 30)] * 5)]
        stuck = [ops_chunk([(2 << 30)] * 5, gaps=[50_000] * 5),
                 ("barrier",), ops_chunk([(2 << 30)] * 5)]
        machine.attach_workload(ListWorkload([fast, stuck]))
        machine.run(until=20_000)
        machine.processors[1].kill()
        machine.run()           # barrier releases with one participant
        assert machine.processors[0].finished

    def test_warmup_marker_resets_stats_once(self):
        machine = build_tiny_machine(revive=False)
        pre = [ops_chunk([(1 << 30) + i * 64 for i in range(50)])]
        stream = pre + [("warmup_done",)] + \
            [ops_chunk([(1 << 30)] * 10)]
        machine.attach_workload(ListWorkload([stream]))
        machine.run()
        l2 = machine.nodes[0].hierarchy.l2
        # Only the post-warmup accesses remain counted.
        assert l2.hits + l2.misses == 10
        assert machine.processors[0].mem_refs == 10
