"""Unit tests for the distributed parity engine."""

import pytest

from conftest import build_tiny_machine


@pytest.fixture
def machine():
    return build_tiny_machine()          # 3+1 parity on 4 nodes


@pytest.fixture
def mirror_machine():
    return build_tiny_machine(parity_group_size=1)


def data_line(machine, node=1, page_offset=0):
    """A mapped data line homed at ``node``."""
    vaddr = (node + 1) * (1 << 30) + page_offset
    return machine.addr_space.translate_line(vaddr, node)


class TestAddressing:
    def test_parity_line_is_on_another_node(self, machine):
        line = data_line(machine)
        parity_line = machine.revive.parity.parity_line_of(line)
        assert machine.addr_space.node_of(parity_line) != \
            machine.addr_space.node_of(line)

    def test_parity_offset_preserved(self, machine):
        line = data_line(machine, page_offset=17 * 64)
        parity_line = machine.revive.parity.parity_line_of(line)
        assert parity_line % machine.config.page_size == \
            line % machine.config.page_size

    def test_peer_lines_cover_stripe(self, machine):
        line = data_line(machine)
        peers = machine.revive.parity.peer_lines_of(line)
        assert len(peers) == machine.geometry.cluster_size - 1
        assert line not in peers


class TestFunctionalUpdates:
    def test_apply_update_xor(self, machine):
        parity = machine.revive.parity
        line = data_line(machine)
        parity_line = parity.parity_line_of(line)
        parity_node = machine.nodes[machine.addr_space.node_of(parity_line)]

        parity.apply_update(line, 0, 0b1010)
        assert parity_node.memory.read_line(parity_line) == 0b1010
        parity.apply_update(line, 0b1010, 0b0110)
        assert parity_node.memory.read_line(parity_line) == 0b0110

    def test_mirroring_stores_value_directly(self, mirror_machine):
        parity = mirror_machine.revive.parity
        line = data_line(mirror_machine)
        mirror_line = parity.parity_line_of(line)
        mirror_node = mirror_machine.nodes[
            mirror_machine.addr_space.node_of(mirror_line)]
        parity.apply_update(line, 12345, 999)
        assert mirror_node.memory.read_line(mirror_line) == 999

    def test_reconstruction(self, machine):
        parity = machine.revive.parity
        space = machine.addr_space
        line = data_line(machine)
        home = machine.nodes[space.node_of(line)]
        home.memory.write_line(line, 4242)
        parity.apply_update(line, 0, 4242)
        # Forget the line; rebuild it from the surviving stripe.
        home.memory.write_line(line, 0)
        assert parity.reconstruct_line(line) == 4242

    def test_reconstruction_with_multiple_writers(self, machine):
        parity = machine.revive.parity
        space = machine.addr_space
        # Write different values into each data member of one stripe.
        lines, values = [], [111, 222, 333]
        base_line = data_line(machine, node=1)
        stripe = parity.peer_lines_of(base_line) + [base_line]
        data_members = [l for l in stripe if not machine.geometry.
                        is_parity_page(space.node_of(l), space.page_of(l))]
        for line, value in zip(data_members, values):
            node = machine.nodes[space.node_of(line)]
            old = node.memory.read_line(line)
            node.memory.write_line(line, value)
            parity.apply_update(line, old, value)
            lines.append(line)
        for line, value in zip(lines, values):
            node = machine.nodes[space.node_of(line)]
            node.memory.write_line(line, 0)
            assert parity.reconstruct_line(line) == value
            node.memory.write_line(line, value)


class TestTiming:
    def test_time_update_returns_later_ack(self, machine):
        parity = machine.revive.parity
        line = data_line(machine)
        ack = parity.time_update(line, at=1000)
        assert ack > 1000
        assert parity.updates == 1

    def test_par_traffic_charged(self, machine):
        parity = machine.revive.parity
        line = data_line(machine)
        parity.time_update(line, at=0)
        assert machine.stats.network_traffic.bytes_by_category["PAR"] > 0
        assert machine.stats.memory_traffic.bytes_by_category["PAR"] > 0

    def test_mirroring_uses_fewer_memory_accesses(self, machine,
                                                  mirror_machine):
        line_p = data_line(machine)
        line_m = data_line(mirror_machine)
        machine.revive.parity.time_update(line_p, at=0)
        mirror_machine.revive.parity.time_update(line_m, at=0)
        par_p = machine.stats.memory_traffic.bytes_by_category["PAR"]
        par_m = mirror_machine.stats.memory_traffic.bytes_by_category["PAR"]
        assert par_m < par_p


class TestInvariants:
    def test_check_all_parity_clean_machine(self, machine):
        assert machine.revive.parity.check_all_parity() == []

    def test_check_detects_corruption(self, machine):
        parity = machine.revive.parity
        space = machine.addr_space
        line = data_line(machine)
        home = machine.nodes[space.node_of(line)]
        home.memory.write_line(line, 5)     # bypass parity maintenance
        broken = parity.check_all_parity()
        assert broken, "corruption went unnoticed"

    def test_memory_overhead_fraction(self, machine, mirror_machine):
        assert machine.revive.parity.memory_overhead_fraction() == \
            pytest.approx(0.25)          # 3+1 on the tiny machine
        assert mirror_machine.revive.parity.memory_overhead_fraction() == \
            pytest.approx(0.5)


class TestConvenienceAndCosts:
    def test_update_for_write_combines_both_halves(self, machine):
        parity = machine.revive.parity
        line = data_line(machine)
        parity_line = parity.parity_line_of(line)
        parity_node = machine.nodes[machine.addr_space.node_of(parity_line)]
        parity.apply_update(line, 0, 0xfeed)
        ack = parity.time_update(line, at=100)
        assert ack > 100
        assert parity_node.memory.read_line(parity_line) == 0xfeed
        # Read-modify-write at the parity home: two DRAM accesses.
        assert parity_node.mem_timing.accesses == 2
        assert machine.stats.memory_traffic.bytes_by_category["PAR"] == \
            2 * machine.config.line_size

    def test_recovery_line_cost_grows_with_group_size(self):
        from repro.core.recovery import RecoveryManager

        small = build_tiny_machine(parity_group_size=1)
        big = build_tiny_machine(parity_group_size=3)
        cost_small = RecoveryManager(small)._line_rebuild_cost_ns()
        cost_big = RecoveryManager(big)._line_rebuild_cost_ns()
        assert cost_big > cost_small
