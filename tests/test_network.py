"""Unit tests for the torus topology and network timing."""

import pytest

from repro.machine.config import MachineConfig
from repro.network.network import Network
from repro.network.topology import Torus2D
from repro.sim.stats import StatsRegistry


class TestTorus2D:
    def test_coords_roundtrip(self):
        t = Torus2D(4, 4)
        for node in range(16):
            x, y = t.coords(node)
            assert t.node_at(x, y) == node

    def test_neighbors_wrap(self):
        t = Torus2D(4, 4)
        assert t.neighbor(0, 1) == 3        # -x wraps
        assert t.neighbor(3, 0) == 0        # +x wraps
        assert t.neighbor(0, 3) == 12       # -y wraps

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            Torus2D(4, 4).neighbor(0, 9)

    def test_route_length_equals_hops(self):
        t = Torus2D(4, 4)
        for src in range(16):
            for dst in range(16):
                assert len(t.route(src, dst)) == t.hops(src, dst)

    def test_route_endpoints(self):
        t = Torus2D(4, 4)
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                route = t.route(src, dst)
                assert route[0][0] == src
                node = src
                for link_node, direction in route:
                    assert link_node == node
                    node = t.neighbor(node, direction)
                assert node == dst

    def test_shortest_way_around(self):
        t = Torus2D(4, 4)
        assert t.hops(0, 3) == 1
        assert t.hops(0, 2) == 2
        assert t.hops(0, 10) == 4

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            Torus2D(0, 4)


class TestNetwork:
    def make(self):
        cfg = MachineConfig.tiny(4)
        stats = StatsRegistry()
        return cfg, stats, Network(cfg, stats)

    def test_local_messages_are_free(self):
        _cfg, stats, net = self.make()
        assert net.send(1, 1, 1000, at=50, category="PAR") == 50
        assert stats.network_traffic.total == 0
        assert net.messages_sent == 0

    def test_latency_matches_table3_formula(self):
        cfg, _stats, net = self.make()
        arrival = net.send_control(0, 1, at=0, category="RD/RDX")
        # NI occupancy start + serialisation + 30 + 8 * hops.
        occupancy = max(1, round(cfg.header_bytes / cfg.ni_bytes_per_ns))
        assert arrival == occupancy + cfg.net_base_ns + cfg.net_per_hop_ns

    def test_traffic_accounting(self):
        cfg, stats, net = self.make()
        net.send_line(0, 1, at=0, category="PAR")
        net.send_control(1, 0, at=0, category="PAR")
        expected = cfg.line_message_bytes() + cfg.header_bytes
        assert stats.network_traffic.bytes_by_category["PAR"] == expected
        assert net.messages_sent == 2

    def test_contention_slows_messages(self):
        _cfg, _stats, net = self.make()
        arrivals = [net.send_line(0, 1, at=0, category="PAR")
                    for _ in range(200)]
        assert max(arrivals) > arrivals[0] + 1000

    def test_link_utilization_bounds(self):
        _cfg, _stats, net = self.make()
        for _ in range(100):
            net.send_line(0, 1, at=0, category="PAR")
        u = net.link_utilization(10_000)
        assert 0.0 < u <= 1.0

    def test_reset(self):
        _cfg, _stats, net = self.make()
        net.send_line(0, 1, at=0, category="PAR")
        net.reset()
        assert net.messages_sent == 0
        assert net.link_utilization(1000) == 0.0


class TestTable3Latency:
    """Pin ``30ns + 8ns x hops`` against hand-computed torus routes.

    ``tiny(8)`` is a 4x2 torus and ``tiny(16)`` a 4x4 torus with
    ``x = node % width``, ``y = node // width`` and minimal-wrap
    distances in each dimension; every hop count below is worked out
    by hand from those coordinates, not recomputed via the formula
    under test.
    """

    # (src, dst, hand-computed min-wrap hops) on the 4x2 torus.
    HOPS_4X2 = [
        (0, 1, 1),   # (0,0) -> (1,0): one +x hop
        (0, 2, 2),   # (0,0) -> (2,0): 2 either way around x
        (0, 3, 1),   # (0,0) -> (3,0): -x wrap beats 3 forward hops
        (0, 4, 1),   # (0,0) -> (0,1): one y hop (height 2)
        (0, 6, 3),   # (0,0) -> (2,1): 2 in x + 1 in y
        (0, 7, 2),   # (0,0) -> (3,1): x wrap + 1 in y
        (1, 7, 3),   # (1,0) -> (3,1): 2 in x + 1 in y
    ]

    def test_hand_checked_hops_8_nodes(self):
        cfg = MachineConfig.tiny(8)
        for src, dst, hops in self.HOPS_4X2:
            assert cfg.hops(src, dst) == hops, (src, dst)
            assert cfg.hops(dst, src) == hops, (dst, src)

    def test_hand_checked_hops_16_nodes(self):
        # 4x4 torus: (0,3) -x wrap; (0,10) 2 in x + 2 in y;
        # (0,15) -x wrap + -y wrap; (5,15) and (1,11) 2 + 2.
        cfg = MachineConfig.tiny(16)
        for src, dst, hops in [(0, 3, 1), (0, 10, 4), (0, 15, 2),
                               (5, 15, 4), (1, 11, 4)]:
            assert cfg.hops(src, dst) == hops, (src, dst)

    def test_control_latency_multi_hop(self):
        # 8-byte header: NI occupancy round(8 / 3.2) = 2 (round-half-
        # to-even), then 30 + 8 x hops.
        cfg = MachineConfig.tiny(8)
        net = Network(cfg, StatsRegistry())
        for src, dst, hops in self.HOPS_4X2:
            arrival = net.send_control(src, dst, at=0, category="RD/RDX")
            assert arrival == 2 + 30 + 8 * hops, (src, dst)
            net.reset()

    def test_line_latency_multi_hop(self):
        # 72-byte line message: NI occupancy round(72 / 3.2) = 22.
        cfg = MachineConfig.tiny(16)
        net = Network(cfg, StatsRegistry())
        assert cfg.line_message_bytes() == 72
        for src, dst, hops in [(0, 10, 4), (0, 15, 2), (5, 15, 4)]:
            arrival = net.send_line(src, dst, at=0, category="ExeWB")
            assert arrival == 22 + 30 + 8 * hops, (src, dst)
            net.reset()

    def test_uncontended_latency_matches_idle_send(self):
        cfg = MachineConfig.tiny(8)
        for nbytes in (cfg.header_bytes, cfg.line_message_bytes()):
            for src in range(8):
                for dst in range(8):
                    net = Network(cfg, StatsRegistry())
                    assert (net.uncontended_latency(src, dst, nbytes)
                            == net.send(src, dst, nbytes, 0, "RD/RDX"))

    def test_uncontended_latency_is_local_free(self):
        net = Network(MachineConfig.tiny(4), StatsRegistry())
        assert net.uncontended_latency(2, 2, 10_000) == 0

    def test_uncontended_latency_ignores_contention(self):
        cfg = MachineConfig.tiny(4)
        net = Network(cfg, StatsRegistry())
        floor = net.uncontended_latency(0, 1, cfg.line_message_bytes())
        for _ in range(200):
            net.send_line(0, 1, at=0, category="PAR")
        assert net.uncontended_latency(
            0, 1, cfg.line_message_bytes()) == floor
        assert net.send_line(0, 1, at=0, category="PAR") > floor


class TestLinkUtilization:
    def test_exact_value_single_message(self):
        # One 72-byte line 0 -> 1 on the 2x2 torus claims one link for
        # round(72 / 3.2) = 22ns; 4 nodes x 4 directed links = 16
        # links total.
        cfg = MachineConfig.tiny(4)
        net = Network(cfg, StatsRegistry())
        net.send_line(0, 1, at=0, category="PAR")
        assert net.link_utilization(1000) == 22 / (1000 * 16)

    def test_exact_value_accumulates_and_scales(self):
        cfg = MachineConfig.tiny(4)
        net = Network(cfg, StatsRegistry())
        net.send_line(0, 1, at=0, category="PAR")
        net.send_line(0, 1, at=0, category="PAR")
        assert net.link_utilization(1000) == 44 / (1000 * 16)
        assert net.link_utilization(2000) == 44 / (2000 * 16)

    def test_multi_hop_charges_every_link_on_route(self):
        # 0 -> 10 on the 4x4 torus is 4 hops: the one message charges
        # 22ns on each of 4 links out of 16 x 4 = 64.
        cfg = MachineConfig.tiny(16)
        net = Network(cfg, StatsRegistry())
        net.send_line(0, 10, at=0, category="PAR")
        assert net.link_utilization(1000) == (22 * 4) / (1000 * 64)

    def test_clamped_at_one(self):
        cfg = MachineConfig.tiny(4)
        net = Network(cfg, StatsRegistry())
        for _ in range(50):
            net.send_line(0, 1, at=0, category="PAR")
        assert net.link_utilization(1) == 1.0

    def test_zero_elapsed_is_zero(self):
        net = Network(MachineConfig.tiny(4), StatsRegistry())
        net.send_line(0, 1, at=0, category="PAR")
        assert net.link_utilization(0) == 0.0


class TestPathsTable:
    """The precomputed per-pair paths equal what ``route`` derives."""

    @pytest.mark.parametrize("n_nodes", [16, 8])     # 4x4 and 4x2
    def test_paths_match_route_and_table3(self, n_nodes):
        cfg = MachineConfig.tiny(n_nodes)
        net = Network(cfg, StatsRegistry())
        pairs = [(s, d) for s in range(n_nodes) for d in range(n_nodes)
                 if s != d]
        assert sorted(net._paths) == pairs
        for src, dst in pairs:
            ni, links, flight = net._paths[src, dst]
            assert ni is net._ni[src]
            assert links == tuple(net._links[link]
                                  for link in net.topology.route(src, dst))
            assert flight == cfg.net_latency(src, dst)

    @pytest.mark.parametrize("n_nodes", [16, 8])
    def test_idle_send_equals_uncontended_latency(self, n_nodes):
        cfg = MachineConfig.tiny(n_nodes)
        net = Network(cfg, StatsRegistry())
        for nbytes in (cfg.header_bytes, cfg.line_message_bytes(), 500):
            for src in range(n_nodes):
                for dst in range(n_nodes):
                    assert (net.send(src, dst, nbytes, 0, "PAR")
                            == net.uncontended_latency(src, dst, nbytes))
                    net.reset()

    def test_restore_keeps_paths_live(self):
        """Restore refills the calendars the table points at, so a
        restored network books exactly like the one it was taken from."""
        cfg = MachineConfig.tiny(8)
        live = Network(cfg, StatsRegistry())
        for i in range(300):
            live.send_line(i % 8, (3 * i + 1) % 8, at=7 * i, category="PAR")
        restored = Network(cfg, StatsRegistry())
        restored.restore(live.snapshot())
        for i in range(300):
            src, dst, at = (5 * i) % 8, (i + 3) % 8, 900 + 3 * i
            assert (restored.send_line(src, dst, at, "PAR")
                    == live.send_line(src, dst, at, "PAR"))
        assert restored.snapshot() == live.snapshot()
