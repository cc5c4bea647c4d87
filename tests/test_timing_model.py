"""Tests pinning the timing model's defining behaviours."""

import dataclasses

from conftest import ToyWorkload, build_tiny_machine, run_toy

from repro.machine.config import MachineConfig
from repro.machine.system import Machine


def run_with(config, seed=0, rounds=2):
    machine = Machine(config, None)
    machine.attach_workload(ToyWorkload(rounds=rounds, seed=seed))
    machine.run()
    return machine


class TestMLPFactor:
    def test_higher_overlap_shortens_miss_stalls(self):
        base_cfg = MachineConfig.tiny(4)
        slow = run_with(dataclasses.replace(base_cfg, miss_overlap=1.0))
        fast = run_with(dataclasses.replace(base_cfg, miss_overlap=4.0))
        assert fast.execution_time < slow.execution_time
        # Functional behaviour (reference counts) is unchanged.
        assert fast.total_mem_refs() == slow.total_mem_refs()


class TestContention:
    def test_slower_memory_bus_slows_missy_workloads(self):
        base_cfg = MachineConfig.tiny(4)
        fast_mem = run_with(dataclasses.replace(base_cfg,
                                                mem_bytes_per_ns=32.0))
        slow_mem = run_with(dataclasses.replace(base_cfg,
                                                mem_bytes_per_ns=0.4))
        assert slow_mem.execution_time > fast_mem.execution_time

    def test_network_latency_scales_remote_traffic(self):
        base_cfg = MachineConfig.tiny(4)
        near = run_with(dataclasses.replace(base_cfg, net_base_ns=5,
                                            net_per_hop_ns=1))
        far = run_with(dataclasses.replace(base_cfg, net_base_ns=300,
                                           net_per_hop_ns=100))
        assert far.execution_time > near.execution_time


class TestDeterminism:
    def test_identical_runs_produce_identical_results(self):
        a = run_toy(build_tiny_machine())
        b = run_toy(build_tiny_machine())
        assert a.execution_time == b.execution_time
        assert a.stats.network_traffic.as_dict() \
            == b.stats.network_traffic.as_dict()
        assert a.stats.memory_traffic.as_dict() \
            == b.stats.memory_traffic.as_dict()
        assert a.revive.max_log_bytes() == b.revive.max_log_bytes()

    def test_memory_contents_are_reproducible(self):
        a = run_toy(build_tiny_machine())
        b = run_toy(build_tiny_machine())
        for node_a, node_b in zip(a.nodes, b.nodes):
            assert node_a.memory.snapshot() == node_b.memory.snapshot()


class TestTimeAccounting:
    def test_execution_time_exceeds_pure_gap_time(self):
        machine = run_toy(build_tiny_machine(revive=False))
        # Gaps alone put a floor under the runtime; hits/misses add to it.
        total_gap_ns_lower_bound = 2000 * 3  # rounds * refs * min gap
        assert machine.execution_time > total_gap_ns_lower_bound

    def test_revive_never_speeds_things_up(self):
        base = run_toy(build_tiny_machine(revive=False),
                       ToyWorkload(rounds=3, refs_per_round=1200))
        revive = run_toy(build_tiny_machine(),
                         ToyWorkload(rounds=3, refs_per_round=1200))
        assert revive.execution_time >= base.execution_time
