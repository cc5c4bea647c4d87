"""Unit tests for the ReVive directory-controller extension (Table 1)."""

import pytest

from conftest import ToyWorkload, build_tiny_machine, run_toy

from repro.core.faults import NodeLossFault
from repro.core.recovery import RecoveryManager


@pytest.fixture
def machine():
    return build_tiny_machine()


def mapped_line(machine, node=1, offset=0, value=0):
    vaddr = (node + 1) * (1 << 30) + offset
    line = machine.addr_space.translate_line(vaddr, node)
    if value:
        # Pre-set content through the parity-consistent path.
        machine.nodes[node].memory.write_line(line, value)
        machine.revive.parity.apply_update(line, 0, value)
    return line


class TestStoreIntent:
    def test_first_intent_logs_the_preimage(self, machine):
        line = mapped_line(machine, value=77)
        busy = machine.revive.on_store_intent(1, line, at=100)
        assert busy > 100
        log = machine.revive.logs[1]
        assert log.is_logged(line)
        entries = log.decode_region(machine.nodes[1].memory.read_line)
        assert entries[-1].addr == line
        assert entries[-1].value == 77

    def test_second_intent_is_free(self, machine):
        line = mapped_line(machine)
        machine.revive.on_store_intent(1, line, at=100)
        appends_before = machine.revive.logs[1].appends
        busy = machine.revive.on_store_intent(1, line, at=200)
        assert busy == 200
        assert machine.revive.logs[1].appends == appends_before

    def test_table1_costs_fig5a(self, machine):
        line = mapped_line(machine)
        machine.revive.on_store_intent(1, line, at=0)
        s = machine.stats
        assert s.value("revive.rdx_unlogged.events") == 1
        assert s.value("revive.rdx_unlogged.extra_accesses") == 4
        assert s.value("revive.rdx_unlogged.extra_lines") == 2
        assert s.value("revive.rdx_unlogged.extra_messages") == 2


class TestMemoryWrite:
    def test_logged_write_is_fig4(self, machine):
        line = mapped_line(machine, value=5)
        machine.revive.on_store_intent(1, line, at=0)
        ack, busy = machine.revive.on_memory_write(1, line, 42, at=1000,
                                                   category="ExeWB")
        assert machine.nodes[1].memory.read_line(line) == 42
        assert busy >= ack > 1000
        s = machine.stats
        assert s.value("revive.wb_logged.events") == 1
        assert s.value("revive.wb_logged.extra_accesses") == 3
        assert s.value("revive.wb_logged.extra_lines") == 1
        assert s.value("revive.wb_logged.extra_messages") == 2

    def test_unlogged_write_is_fig5b(self, machine):
        line = mapped_line(machine, value=5)
        ack, busy = machine.revive.on_memory_write(1, line, 42, at=1000,
                                                   category="ExeWB")
        assert machine.nodes[1].memory.read_line(line) == 42
        log = machine.revive.logs[1]
        assert log.is_logged(line)
        entries = log.decode_region(machine.nodes[1].memory.read_line)
        assert entries[-1].value == 5      # pre-image captured
        s = machine.stats
        assert s.value("revive.wb_unlogged.events") == 1
        assert s.value("revive.wb_unlogged.extra_accesses") == 8
        assert s.value("revive.wb_unlogged.extra_lines") == 3
        assert s.value("revive.wb_unlogged.extra_messages") == 4

    def test_write_keeps_parity_exact(self, machine):
        line = mapped_line(machine, value=5)
        machine.revive.on_memory_write(1, line, 42, at=0, category="ExeWB")
        assert machine.revive.parity.check_all_parity() == []

    def test_unlogged_ack_is_delayed_beyond_logged(self, machine):
        """Figure 5(b) delays the write-back ack until the log is safe."""
        line_a = mapped_line(machine, offset=0)
        line_b = mapped_line(machine, offset=4096 * 3)
        machine.revive.on_store_intent(1, line_a, at=0)
        ack_logged, _ = machine.revive.on_memory_write(
            1, line_a, 1, at=10_000, category="ExeWB")
        ack_unlogged, _ = machine.revive.on_memory_write(
            1, line_b, 1, at=10_000, category="ExeWB")
        assert ack_unlogged - 10_000 > ack_logged - 10_000


class TestCommitSupport:
    def test_commit_record_append(self, machine):
        log = machine.revive.logs[2]
        log.advance_epoch()
        done = machine.revive.append_commit_record(2, at=500)
        assert done > 500
        records = log.find_commit_records(machine.nodes[2].memory.read_line)
        assert len(records) == 1 and records[0].value == 1

    def test_on_checkpoint_committed_clears_and_reclaims(self, machine):
        line = mapped_line(machine)
        machine.revive.on_store_intent(1, line, at=0)
        log = machine.revive.logs[1]
        assert log.is_logged(line)
        # Advance two epochs so the first becomes reclaimable
        # (keep_checkpoints = 2).
        log.advance_epoch()
        log.advance_epoch()
        machine.revive.on_checkpoint_committed()
        assert not log.is_logged(line)
        assert log.tail == log.epoch_start[1]

    def test_log_byte_accounting(self, machine):
        line = mapped_line(machine, value=1)
        machine.revive.on_store_intent(1, line, at=0)
        assert machine.revive.total_log_bytes() > 0
        assert machine.revive.max_log_bytes() > 0


class TestMetadataFlush:
    def test_flush_once_per_block(self, machine):
        from repro.core.log import ENTRIES_PER_BLOCK

        for i in range(ENTRIES_PER_BLOCK):
            line = mapped_line(machine, offset=i * 64)
            machine.revive.on_store_intent(1, line, at=i * 1000)
        assert machine.stats.value("revive.metaflush.events") == 1


class TestLazyEventCounters:
    """Event counters exist only once their class has fired: the
    registry (and with it the run fingerprint) names no idle class."""

    def test_silent_class_registers_no_counters(self):
        # Without checkpoints every write-back finds its line logged.
        machine = run_toy(build_tiny_machine(checkpoint_interval_ns=None))
        names = [c.name for c in machine.stats.counters()]
        assert machine.stats.value("revive.wb_logged.events") > 0
        assert not [n for n in names if n.startswith("revive.wb_unlogged.")]
        start = names.index("revive.wb_logged.events")
        assert names[start:start + 4] == [
            "revive.wb_logged.events", "revive.wb_logged.extra_accesses",
            "revive.wb_logged.extra_lines", "revive.wb_logged.extra_messages"]

    def test_baseline_registers_no_revive_counters(self):
        machine = run_toy(build_tiny_machine(revive=False))
        assert not [c.name for c in machine.stats.counters()
                    if c.name.startswith("revive.")]


class TestRunningLogBytes:
    """``total_log_bytes`` is a running total; it must equal the sum
    over the logs after appends, reclaims, rollback and restore."""

    @staticmethod
    def _summed(machine):
        return sum(log.bytes_used for log in machine.revive.logs.values())

    def test_running_total_tracks_every_pointer_move(self):
        machine = build_tiny_machine()
        machine.attach_workload(ToyWorkload(rounds=6))
        coord = machine.checkpointing
        machine.run(until=3 * coord.interval_ns)
        assert coord.checkpoints_committed >= 2
        assert machine.revive.total_log_bytes() == self._summed(machine) > 0
        image = machine.revive.snapshot()

        detect = coord.commit_times[-1] + coord.interval_ns // 2
        machine.run(until=detect)
        assert machine.revive.total_log_bytes() == self._summed(machine)
        NodeLossFault(1).apply(machine)
        RecoveryManager(machine).recover(detect_time=detect, lost_node=1)
        assert machine.revive.total_log_bytes() == self._summed(machine)

        other = build_tiny_machine()
        other.revive.restore(image)
        assert other.revive.total_log_bytes() == self._summed(other) > 0
