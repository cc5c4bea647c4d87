"""Integration tests for rollback recovery (Section 3.2.4).

The golden-snapshot methodology: the machine photographs memory at
every commit; after fault injection and recovery, memory must equal the
target snapshot bit-for-bit (log regions excluded — they are
bookkeeping) and the parity invariant must hold machine-wide.
"""

import pytest

from conftest import ToyWorkload, build_tiny_machine

from repro.core.faults import NodeLossFault, TransientSystemFault
from repro.core.log import MemoryLog
from repro.core.parity import ParityEngine
from repro.core.recovery import RecoveryManager


def run_until_after_second_commit(machine, workload=None):
    machine.attach_workload(workload or ToyWorkload(rounds=6))
    coord = machine.checkpointing
    horizon = 3 * coord.interval_ns
    while coord.checkpoints_committed < 2 and not machine.all_finished:
        machine.run(until=horizon)
        horizon += coord.interval_ns
    assert coord.checkpoints_committed >= 2
    detect = coord.commit_times[2] + int(0.8 * coord.interval_ns)
    machine.run(until=detect)
    return detect


class TestTransientRecovery:
    def test_rollback_to_previous_checkpoint(self):
        machine = build_tiny_machine()
        detect = run_until_after_second_commit(machine)
        TransientSystemFault().apply(machine)
        result = RecoveryManager(machine).recover(detect_time=detect,
                                                  target_epoch=1)
        assert result.target_epoch == 1
        assert machine.verify_against_snapshot(1) == []
        assert machine.revive.parity.check_all_parity() == []

    def test_rollback_to_latest_checkpoint(self):
        machine = build_tiny_machine()
        detect = run_until_after_second_commit(machine)
        TransientSystemFault().apply(machine)
        RecoveryManager(machine).recover(detect_time=detect, target_epoch=2)
        assert machine.verify_against_snapshot(2) == []

    def test_phases_2_and_4_skipped_without_memory_loss(self):
        machine = build_tiny_machine()
        detect = run_until_after_second_commit(machine)
        TransientSystemFault().apply(machine)
        result = RecoveryManager(machine).recover(detect_time=detect)
        assert result.phase2_ns == 0
        assert result.log_lines_rebuilt == 0
        assert result.pages_rebuilt_during_rollback == 0

    def test_lost_work_accounting(self):
        machine = build_tiny_machine()
        detect = run_until_after_second_commit(machine)
        TransientSystemFault().apply(machine)
        result = RecoveryManager(machine).recover(detect_time=detect,
                                                  target_epoch=1)
        expected = detect - machine.commit_time_of_epoch(1)
        assert result.lost_work_ns == expected
        assert result.unavailable_ns == (result.lost_work_ns
                                         + result.phase1_ns
                                         + result.phase3_ns)

    def test_caches_and_directories_cleared(self):
        machine = build_tiny_machine()
        detect = run_until_after_second_commit(machine)
        TransientSystemFault().apply(machine)
        RecoveryManager(machine).recover(detect_time=detect)
        for node in machine.nodes:
            assert node.hierarchy.l2.resident_count() == 0
            assert len(node.directory) == 0

    def test_epoch_state_rewound(self):
        machine = build_tiny_machine()
        detect = run_until_after_second_commit(machine)
        TransientSystemFault().apply(machine)
        RecoveryManager(machine).recover(detect_time=detect, target_epoch=1)
        for log in machine.revive.logs.values():
            assert log.current_epoch == 1
            assert not log.logged_lines
        assert machine.checkpointing.commit_times[-1] == \
            machine.commit_time_of_epoch(1)
        assert 2 not in machine.snapshots


class TestNodeLossRecovery:
    @pytest.mark.parametrize("lost", [0, 1, 2, 3])
    def test_full_recovery_after_losing_any_node(self, lost):
        machine = build_tiny_machine()
        detect = run_until_after_second_commit(machine)
        NodeLossFault(lost).apply(machine)
        result = RecoveryManager(machine).recover(detect_time=detect,
                                                  lost_node=lost)
        assert machine.verify_against_snapshot(result.target_epoch) == []
        assert machine.revive.parity.check_all_parity() == []
        assert result.log_lines_rebuilt > 0
        assert result.phase2_ns > 0
        assert result.pages_rebuilt_background > 0

    def test_each_log_region_is_decoded_once(self, monkeypatch):
        machine = build_tiny_machine()
        detect = run_until_after_second_commit(machine)
        decodes = []
        original = MemoryLog.scan_region

        def counting(log, read_line):
            decodes.append(log.node)
            return original(log, read_line)

        monkeypatch.setattr(MemoryLog, "scan_region", counting)
        NodeLossFault(2).apply(machine)
        result = RecoveryManager(machine).recover(detect_time=detect,
                                                  lost_node=2)
        assert sorted(decodes) == list(range(machine.config.n_nodes))
        assert result.entries_undone > 0
        assert machine.verify_against_snapshot(result.target_epoch) == []

    def test_committed_epoch_determined_from_rebuilt_log(self):
        machine = build_tiny_machine()
        detect = run_until_after_second_commit(machine)
        expected = machine.checkpointing.checkpoints_committed
        NodeLossFault(2).apply(machine)
        manager = RecoveryManager(machine)
        manager._rebuild_lost_log(2)
        assert manager.determine_committed_epoch() == expected

    def test_node_loss_undoes_more_work_than_transient(self):
        m1 = build_tiny_machine()
        d1 = run_until_after_second_commit(m1)
        TransientSystemFault().apply(m1)
        r1 = RecoveryManager(m1).recover(detect_time=d1, target_epoch=1)

        m2 = build_tiny_machine()
        d2 = run_until_after_second_commit(m2)
        NodeLossFault(1).apply(m2)
        r2 = RecoveryManager(m2).recover(detect_time=d2, target_epoch=1)
        assert r2.unavailable_ns > r1.unavailable_ns

    def test_resume_time(self):
        machine = build_tiny_machine()
        detect = run_until_after_second_commit(machine)
        NodeLossFault(3).apply(machine)
        result = RecoveryManager(machine).recover(detect_time=detect,
                                                  lost_node=3)
        assert result.resume_time == (detect + result.phase1_ns
                                      + result.phase2_ns + result.phase3_ns)


class TestPhase4RepairsOnlyStalePages:
    """The rollback keeps every stripe's parity live except where the
    parity page sits on the lost node, so Phase 4 rebuilds only that
    node's pages and a transient fault rebuilds nothing."""

    def recover_counting_stripes(self, monkeypatch, machine, lost):
        detect = run_until_after_second_commit(machine)
        stripes = []
        original = ParityEngine.stripe_xor

        def counting(engine, node, ppage, lines=None):
            stripes.append((node, ppage))
            return original(engine, node, ppage, lines)

        monkeypatch.setattr(ParityEngine, "stripe_xor", counting)
        if lost is None:
            TransientSystemFault().apply(machine)
        else:
            NodeLossFault(lost).apply(machine)
        result = RecoveryManager(machine).recover(detect_time=detect,
                                                  lost_node=lost,
                                                  target_epoch=1)
        rebuilt = list(stripes)
        assert machine.verify_against_snapshot(1) == []
        assert machine.revive.parity.check_all_parity() == []
        return result, rebuilt

    def test_transient_recovery_xors_no_stripe(self, monkeypatch):
        result, rebuilt = self.recover_counting_stripes(
            monkeypatch, build_tiny_machine(), None)
        assert rebuilt == []
        assert result.entries_undone > 0
        assert result.pages_rebuilt_background == 0
        assert result.phase4_background_ns == 0

    @pytest.mark.parametrize("mirrored", [0.0, 0.5])
    def test_node_loss_rebuilds_only_lost_node_pages(self, monkeypatch,
                                                     mirrored):
        machine = build_tiny_machine(mirrored_fraction=mirrored,
                                     log_bytes_per_node=96 * 1024)
        result, rebuilt = self.recover_counting_stripes(monkeypatch,
                                                        machine, 2)
        assert {node for node, _page in rebuilt} == {2}
        assert len(set(rebuilt)) == len(rebuilt)
        assert len(rebuilt) == (len(machine.log_region_pages(2))
                                + result.pages_rebuilt_during_rollback
                                + result.pages_rebuilt_background)


class TestRecoveryValidation:
    def test_cannot_recover_past_reclaimed_epoch(self):
        machine = build_tiny_machine()
        machine.attach_workload(ToyWorkload(rounds=8))
        machine.run()
        committed = machine.checkpointing.checkpoints_committed
        assert committed >= 3
        TransientSystemFault().apply(machine)
        with pytest.raises(ValueError):
            RecoveryManager(machine).recover(
                detect_time=machine.simulator.now,
                target_epoch=committed - 2)

    def test_cannot_recover_to_the_future(self):
        machine = build_tiny_machine()
        detect = run_until_after_second_commit(machine)
        TransientSystemFault().apply(machine)
        with pytest.raises(ValueError):
            RecoveryManager(machine).recover(detect_time=detect,
                                             target_epoch=99)

    def test_phase2_requires_lost_memory(self):
        machine = build_tiny_machine()
        run_until_after_second_commit(machine)
        with pytest.raises(RuntimeError):
            RecoveryManager(machine)._rebuild_lost_log(0)


class TestFaults:
    def test_node_loss_kills_processor_and_memory(self):
        machine = build_tiny_machine()
        machine.attach_workload(ToyWorkload())
        machine.run(until=10_000)
        NodeLossFault(1).apply(machine)
        assert machine.nodes[1].memory.lost
        assert machine.processors[1].killed
        assert machine.stats.value("fault.node_loss") == 1

    def test_node_loss_validates_node_id(self):
        machine = build_tiny_machine()
        with pytest.raises(ValueError):
            NodeLossFault(99).apply(machine)

    def test_transient_keeps_memory(self):
        machine = build_tiny_machine()
        machine.attach_workload(ToyWorkload())
        machine.run(until=10_000)
        fault = TransientSystemFault()
        fault.apply(machine)
        assert not fault.loses_memory
        assert fault.lost_node is None
        for node in machine.nodes:
            assert not node.memory.lost


class TestRecoveryToInitialState:
    def test_rollback_before_any_checkpoint(self):
        """An error before the first commit rolls back to the initial
        state (checkpoint 0, implicitly committed at time zero)."""
        machine = build_tiny_machine()
        machine.attach_workload(ToyWorkload(rounds=4))
        machine.run(until=20_000)           # well before the first commit
        assert machine.checkpointing.checkpoints_committed == 0
        TransientSystemFault().apply(machine)
        result = RecoveryManager(machine).recover(detect_time=20_000)
        assert result.target_epoch == 0
        assert machine.verify_against_snapshot(0) == []
        assert machine.revive.parity.check_all_parity() == []

    def test_node_loss_before_any_checkpoint(self):
        machine = build_tiny_machine()
        machine.attach_workload(ToyWorkload(rounds=4))
        machine.run(until=20_000)
        NodeLossFault(1).apply(machine)
        result = RecoveryManager(machine).recover(detect_time=20_000,
                                                  lost_node=1)
        assert result.target_epoch == 0
        assert machine.verify_against_snapshot(0) == []
        assert machine.revive.parity.check_all_parity() == []
