"""Unit/integration tests for machine assembly and bookkeeping."""

import pytest

from conftest import ToyWorkload, build_tiny_machine, run_toy


class TestAssembly:
    def test_baseline_has_no_revive_parts(self):
        machine = build_tiny_machine(revive=False)
        assert machine.revive is None
        assert machine.checkpointing is None
        assert not machine.geometry.enabled
        assert machine.log_region_pages(0) == []

    def test_revive_machine_reserves_log_region(self):
        machine = build_tiny_machine()
        pages = machine.log_region_pages(0)
        expected_pages = -(-machine.revive_config.log_bytes_per_node
                           // machine.config.page_size)
        assert len(pages) == expected_pages
        lines = machine.log_region_lines(0)
        assert len(lines) == expected_pages * machine.config.lines_per_page

    def test_context_lines_are_reserved_and_local(self):
        machine = build_tiny_machine()
        for node in range(machine.config.n_nodes):
            line = machine.context_line(node)
            assert machine.addr_space.node_of(line) == node
            assert machine.context_lines_of(node) == [line]

    def test_reserved_pages_include_system_and_log(self):
        machine = build_tiny_machine()
        reserved = machine.reserved_pages_of(0)
        assert reserved[0] == machine.system_page(0)
        assert reserved[1:] == machine.log_region_pages(0)

    def test_workload_attach_validation(self):
        machine = build_tiny_machine()

        class TooWide:
            n_procs = 99
            instructions_per_ref = 1.0

            def stream_for(self, p):
                return iter(())

        with pytest.raises(ValueError):
            machine.attach_workload(TooWide())

    def test_double_attach_rejected(self):
        machine = build_tiny_machine()
        machine.attach_workload(ToyWorkload())
        with pytest.raises(RuntimeError):
            machine.attach_workload(ToyWorkload())


class TestRunBookkeeping:
    def test_store_values_are_unique(self):
        machine = build_tiny_machine(revive=False)
        values = [machine.next_store_value() for _ in range(100)]
        assert len(set(values)) == 100

    def test_execution_time_tracks_slowest(self):
        machine = run_toy(build_tiny_machine(revive=False))
        assert machine.all_finished
        assert machine.execution_time == max(
            p.finish_time for p in machine.processors)

    def test_steady_time_excludes_warmup(self):
        machine = run_toy(build_tiny_machine(revive=False))
        assert 0 < machine.steady_execution_time < machine.execution_time

    def test_total_mem_refs(self):
        machine = run_toy(build_tiny_machine(revive=False),
                          ToyWorkload(rounds=2, refs_per_round=500))
        # Post-warmup-reset refs only: rounds * refs per proc * procs.
        assert machine.total_mem_refs() == 2 * 500 * 4


class TestBarrierBookkeeping:
    def test_barrier_release_after_all_arrive(self):
        machine = build_tiny_machine(revive=False)
        machine.attach_workload(ToyWorkload())   # registers 4 procs
        assert machine.barrier_arrive(0, 0, 100) is None
        assert machine.barrier_arrive(0, 1, 200) is None
        assert machine.barrier_arrive(0, 2, 50) is None
        release = machine.barrier_arrive(0, 3, 400)
        assert release == 400 + machine.config.barrier_ns
        assert machine.barrier_release_time(0) == release

    def test_unknown_barrier(self):
        machine = build_tiny_machine(revive=False)
        assert machine.barrier_release_time(7) is None


class TestSnapshots:
    def test_snapshot_roundtrip(self):
        machine = run_toy(build_tiny_machine())
        committed = machine.checkpointing.checkpoints_committed
        assert committed in machine.snapshots
        with pytest.raises(KeyError):
            machine.verify_against_snapshot(committed + 10)

    def test_truncate_history(self):
        machine = run_toy(build_tiny_machine())
        committed = machine.checkpointing.checkpoints_committed
        assert committed >= 2
        machine.truncate_checkpoint_history(1)
        assert len(machine.checkpointing.commit_times) == 2
        assert all(e <= 1 for e in machine.snapshots)

    def test_commit_time_of_epoch_zero(self):
        machine = build_tiny_machine(revive=False)
        assert machine.commit_time_of_epoch(0) == 0
