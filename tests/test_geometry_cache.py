"""The memoized geometry cache: correctness, sharing, and invalidation.

The cache (`repro.memory.geomcache`) answers the same questions as the
pure geometry functions — home node, covering parity line, mirroring,
stripe peers — so every answer is pinned against the direct derivation,
and the two lifecycle rules are pinned too: a rebuilt machine starts
with a fresh cache, and node-loss recovery invalidates the memoized
stripe map before post-recovery operation resumes.
"""

import pytest

from conftest import ToyWorkload, build_tiny_machine, run_toy

from repro.core.faults import NodeLossFault
from repro.core.recovery import RecoveryManager
from repro.memory.geomcache import GeometryCache


def _touched_data_lines(machine, limit=64):
    """Line addresses of mapped (data) pages, a bounded sample."""
    space = machine.addr_space
    lines = []
    for node, ppage in space.mapped_physical_pages():
        lines.append(space.page_base(node, ppage))
        lines.append(space.page_base(node, ppage)
                     + machine.config.page_size
                     - machine.config.line_size)
        if len(lines) >= limit:
            break
    assert lines, "workload mapped no pages"
    return lines


class TestEntryCorrectness:
    def test_entry_matches_direct_geometry(self):
        machine = run_toy(build_tiny_machine())
        space = machine.addr_space
        geometry = machine.geometry
        cache = machine.geom_cache
        for line in _touched_data_lines(machine):
            node, ppage = space.node_page_of(line)
            parity_node, parity_page = geometry.parity_location(node, ppage)
            expected_parity = (space.page_base(parity_node, parity_page)
                               + line % machine.config.page_size)
            assert cache.entry(line) == (
                node, expected_parity, parity_node,
                geometry.is_mirrored_page(node, ppage))

    def test_entry_is_memoized(self):
        machine = build_tiny_machine()
        cache = machine.geom_cache
        line = machine.addr_space.page_base(1, 1)
        first = cache.entry(line)
        builds = cache.builds
        assert cache.entry(line) is first
        assert cache.builds == builds

    def test_mirroring_flag(self):
        machine = build_tiny_machine(parity_group_size=1)
        # Find a data line and check the mirrored flag + single peer.
        space = machine.addr_space
        for node in range(machine.config.n_nodes):
            for ppage in range(4):
                if not machine.geometry.is_parity_page(node, ppage):
                    line = space.page_base(node, ppage)
                    assert machine.geom_cache.entry(line)[3] is True
                    assert len(machine.geom_cache.peers(line)) == 1
                    return
        pytest.fail("no data page found")

    def test_parity_page_has_no_covering_parity(self):
        machine = build_tiny_machine()
        space = machine.addr_space
        geometry = machine.geometry
        for node in range(machine.config.n_nodes):
            for ppage in range(geometry.cluster_size):
                if geometry.is_parity_page(node, ppage):
                    line = space.page_base(node, ppage)
                    node_, parity_line, parity_home, mirrored = \
                        machine.geom_cache.entry(line)
                    assert node_ == node
                    assert parity_line is None and parity_home is None
                    assert mirrored is False
                    with pytest.raises(ValueError):
                        machine.revive.parity.parity_line_of(line)
                    return
        pytest.fail("no parity page found")

    def test_baseline_machine_has_home_only_entries(self):
        machine = build_tiny_machine(revive=False)
        line = machine.addr_space.page_base(2, 3)
        assert machine.geom_cache.entry(line) == (2, None, None, False)
        assert machine.geom_cache.home_node(line) == 2

    def test_peers_match_parity_engine(self):
        machine = run_toy(build_tiny_machine())
        parity = machine.revive.parity
        for line in _touched_data_lines(machine, limit=16):
            assert list(machine.geom_cache.peers(line)) == \
                parity.peer_lines_of(line)

    def test_home_node_matches_addr_space(self):
        machine = build_tiny_machine()
        space = machine.addr_space
        for node in range(machine.config.n_nodes):
            for line in (space.page_base(node, 0),
                         space.page_base(node, 2) + 128):
                assert machine.geom_cache.home_node(line) == \
                    space.node_of(line)


def _per_line_entry(space, geometry, line_addr):
    """The per-line derivation the cache used before its page records."""
    node, ppage = space.node_page_of(line_addr)
    if geometry.enabled and not geometry.is_parity_page(node, ppage):
        parity_node, parity_page = geometry.parity_location(node, ppage)
        parity_line = (space.page_base(parity_node, parity_page)
                       + line_addr % space.config.page_size)
        return (node, parity_line, parity_node,
                geometry.is_mirrored_page(node, ppage))
    return (node, None, None, False)


class TestPageRecords:
    @pytest.mark.parametrize("overrides", [
        dict(mirrored_fraction=0.25),            # hybrid: partly mirrored
        dict(parity_group_size=1),               # mirroring
        dict(revive=False),                      # no redundancy
    ])
    def test_every_line_matches_per_line_derivation(self, overrides):
        machine = build_tiny_machine(**overrides)
        space, geometry = machine.addr_space, machine.geometry
        cache = GeometryCache(space, geometry)
        cfg = machine.config
        lines = range(0, cfg.n_nodes * cfg.node_memory_bytes, cfg.line_size)
        expected = {line: _per_line_entry(space, geometry, line)
                    for line in lines}
        if overrides.get("mirrored_fraction"):
            flags = {e[3] for e in expected.values() if e[1] is not None}
            assert flags == {True, False}
        for rounds in (1, 2):           # before and after invalidate()
            assert all(cache.entry(line) == want
                       for line, want in expected.items())
            assert cache.builds == rounds * len(expected)
            cache.invalidate()


class TestSharing:
    def test_parity_engine_uses_machine_cache(self):
        machine = build_tiny_machine()
        assert machine.revive.parity.geom is machine.geom_cache

    def test_rebuild_gets_fresh_cache(self):
        m1 = build_tiny_machine()
        m1.geom_cache.entry(m1.addr_space.page_base(1, 1))
        m2 = build_tiny_machine()
        assert m2.geom_cache is not m1.geom_cache
        assert len(m2.geom_cache) == 0
        assert m2.geom_cache.builds == 0


class TestInvalidation:
    def test_invalidate_clears_and_counts(self):
        machine = build_tiny_machine()
        cache = machine.geom_cache
        line = machine.addr_space.page_base(1, 1)
        cache.entry(line)
        cache.peers(line)
        cache.home_node(line)
        assert len(cache) == 3
        cache.invalidate()
        assert len(cache) == 0
        assert cache.invalidations == 1
        # Entries recompute to the same answers after invalidation.
        assert cache.entry(line)[0] == 1

    def _run_to_detect(self, machine):
        machine.attach_workload(ToyWorkload(rounds=6))
        coord = machine.checkpointing
        horizon = 3 * coord.interval_ns
        while coord.checkpoints_committed < 2 and not machine.all_finished:
            machine.run(until=horizon)
            horizon += coord.interval_ns
        detect = coord.commit_times[2] + int(0.8 * coord.interval_ns)
        machine.run(until=detect)
        return detect

    def test_node_loss_recovery_invalidates_stripe_map(self):
        machine = build_tiny_machine()
        detect = self._run_to_detect(machine)
        cache = machine.geom_cache
        assert len(cache) > 0          # hot path populated it
        stale_snapshot = dict(cache._entries)
        NodeLossFault(2).apply(machine)
        result = RecoveryManager(machine).recover(detect_time=detect,
                                                  lost_node=2)
        # The pre-fault stripe map did not survive mark_recovered ...
        assert cache.invalidations >= 1
        # ... recovery itself repopulated entries afresh, and they
        # agree with the (unchanged) geometry derivation.
        space = machine.addr_space
        geometry = machine.geometry
        for line, entry in list(cache._entries.items())[:32]:
            node, ppage = space.node_page_of(line)
            if geometry.is_parity_page(node, ppage):
                continue
            assert entry[1] == stale_snapshot.get(line, entry)[1]
            parity_node, parity_page = geometry.parity_location(node, ppage)
            assert entry[1] == (space.page_base(parity_node, parity_page)
                                + line % machine.config.page_size)
        # And recovery still lands on the bit-exact snapshot.
        assert machine.verify_against_snapshot(result.target_epoch) == []
        assert machine.revive.parity.check_all_parity() == []

    def test_transient_recovery_keeps_cache(self):
        # No memory loss -> no mark_recovered -> no forced rebuild.
        from repro.core.faults import TransientSystemFault
        machine = build_tiny_machine()
        detect = self._run_to_detect(machine)
        TransientSystemFault().apply(machine)
        RecoveryManager(machine).recover(detect_time=detect)
        assert machine.geom_cache.invalidations == 0


class TestStandalone:
    def test_len_counts_all_tables(self):
        machine = build_tiny_machine()
        cache = GeometryCache(machine.addr_space, machine.geometry)
        line = machine.addr_space.page_base(0, 1)
        cache.entry(line)
        assert len(cache) == 1
        cache.home_node(line)
        assert len(cache) == 2
