"""Page-granular stripe reconstruction equals the per-line definition.

``ParityEngine.stripe_xor`` resolves a page's stripe members once and
XORs line by line; recovery rebuilds the lost log region (Phase 2),
lost data pages (Phases 3-4) and parity pages (Phase 4) through it.
These tests hold it to the per-line definition — each line is the XOR
of its memoized stripe peers — on 3+1 parity, 1+1 mirroring and the
hybrid geometry.
"""

from __future__ import annotations

import pytest

from conftest import ToyWorkload, build_tiny_machine

from repro.core.faults import NodeLossFault
from repro.core.recovery import RecoveryManager
from repro.memory.main_memory import LostMemoryError

GEOMETRIES = {
    "parity-3+1": dict(parity_group_size=3),
    "mirroring-1+1": dict(parity_group_size=1),
    "hybrid": dict(parity_group_size=3, mirrored_fraction=0.25),
}

#: Short intervals and a small footprint: two commits come quickly, and
#: the 64 KiB log region still spans many pages.
WARM = dict(checkpoint_interval_ns=20_000, debug_snapshots=False)

LOST = 1


@pytest.fixture(params=sorted(GEOMETRIES))
def machine(request):
    """A tiny machine run past two commits: logs, data and parity all
    hold non-trivial contents."""
    machine = build_tiny_machine(**WARM, **GEOMETRIES[request.param])
    machine.attach_workload(ToyWorkload(rounds=4, refs_per_round=400,
                                        private_lines=128,
                                        shared_lines=64))
    coord = machine.checkpointing
    horizon = coord.interval_ns
    while coord.checkpoints_committed < 2:
        assert not machine.all_finished
        machine.run(until=horizon)
        horizon += coord.interval_ns
    return machine


def per_line(machine, line_addr):
    """Reference: XOR of the line's memoized stripe peers, one line at a
    time (the survivors' memories are read directly)."""
    value = 0
    for peer in machine.geom_cache.peers(line_addr):
        value ^= machine.nodes[
            machine.addr_space.node_of(peer)].memory.read_line(peer)
    return value


def page_lines(machine, node, ppage):
    return list(machine.addr_space.lines_of_page(node, ppage))


def stored(machine, node, lines):
    """Contents of ``lines`` as held by the node's memory (lost or not)."""
    held = dict(machine.nodes[node].memory.lines())
    return [held.get(line, 0) for line in lines]


def test_lost_log_region_rebuild_matches_per_line(machine):
    pages = machine.log_region_pages(LOST)
    assert len(pages) > 1, "region must span a page boundary"
    region = machine.log_region_lines(LOST)
    original = stored(machine, LOST, region)
    assert any(original)
    NodeLossFault(LOST).apply(machine)
    expected = [per_line(machine, line) for line in region]
    assert expected == [machine.revive.parity.reconstruct_line(line)
                        for line in region]
    RecoveryManager(machine)._rebuild_lost_log(LOST)
    assert stored(machine, LOST, region) == expected
    # Parity is exact at every quiescent point, so the rebuild is the
    # lost contents themselves.
    assert expected == original
    # Lines land in region order (NodeMemory insertion order feeds
    # snapshots and digests).
    assert [addr for addr, _ in machine.nodes[LOST].memory.lines()] == \
        [line for line, value in zip(region, expected) if value]


def test_lost_data_page_rebuild_matches_per_line(machine):
    space = machine.addr_space
    data_pages = sorted(ppage for node, ppage
                        in space.mapped_physical_pages() if node == LOST)
    ppage = next(p for p in data_pages
                 if any(stored(machine, LOST, page_lines(machine, LOST, p))))
    lines = page_lines(machine, LOST, ppage)
    NodeLossFault(LOST).apply(machine)
    expected = [per_line(machine, line) for line in lines]
    assert any(expected)
    RecoveryManager(machine)._rebuild_page(LOST, ppage)
    assert stored(machine, LOST, lines) == expected
    assert [addr for addr, _ in machine.nodes[LOST].memory.lines()] == \
        [line for line, value in zip(lines, expected) if value]


def test_line_subsets_agree_with_whole_page(machine):
    parity = machine.revive.parity
    ppage = machine.log_region_pages(LOST)[0]
    whole = parity.stripe_xor(LOST, ppage)
    picked = [whole[i][0] for i in (5, 0, 63)]
    assert parity.stripe_xor(LOST, ppage, picked) == \
        [whole[i] for i in (5, 0, 63)]


def touched_parity_pages(machine):
    space = machine.addr_space
    geometry = machine.geometry
    touched = set(space.mapped_physical_pages())
    for node in range(machine.config.n_nodes):
        touched.update((node, p) for p in machine.reserved_pages_of(node))
    return sorted({geometry.parity_location(node, ppage)
                   for node, ppage in touched})


def per_line_stripe_ok(machine, parity_node, ppage):
    """Reference check: each parity line against the XOR of the same
    offset in every data page of the stripe."""
    space = machine.addr_space
    members = machine.geometry.stripe_data_pages(parity_node, ppage)
    for parity_line in space.lines_of_page(parity_node, ppage):
        offset = parity_line - space.page_base(parity_node, ppage)
        value = 0
        for node, page in members:
            value ^= machine.nodes[node].memory.read_line(
                space.page_base(node, page) + offset)
        if machine.nodes[parity_node].memory.read_line(parity_line) \
                != value:
            return False
    return True


def test_check_stripe_agrees_with_per_line_recompute(machine):
    parity = machine.revive.parity
    pages = touched_parity_pages(machine)
    assert pages
    for parity_node, ppage in pages:
        assert per_line_stripe_ok(machine, parity_node, ppage)
        assert parity.check_stripe(parity_node, ppage)
        for line in machine.addr_space.lines_of_page(parity_node, ppage):
            assert parity.recompute_parity_line(line) == \
                per_line(machine, line)
    # Corrupt one line of one parity page: exactly that stripe breaks.
    parity_node, ppage = pages[len(pages) // 2]
    victim = page_lines(machine, parity_node, ppage)[17]
    memory = machine.nodes[parity_node].memory
    memory.write_line(victim, memory.read_line(victim) ^ 1)
    assert not parity.check_stripe(parity_node, ppage)
    assert not per_line_stripe_ok(machine, parity_node, ppage)
    assert parity.check_all_parity() == [(parity_node, ppage)]


def test_non_parity_pages_are_rejected(machine):
    parity = machine.revive.parity
    ppage = machine.log_region_pages(LOST)[0]
    with pytest.raises(ValueError):
        parity.check_stripe(LOST, ppage)
    with pytest.raises(ValueError):
        parity.recompute_parity_line(page_lines(machine, LOST, ppage)[0])


def test_lost_member_still_raises(machine):
    parity_node, ppage = next(
        (node, page) for node, page in touched_parity_pages(machine)
        if node != LOST and any(n == LOST for n, _ in
                                machine.geometry.stripe_data_pages(node,
                                                                   page)))
    NodeLossFault(LOST).apply(machine)
    with pytest.raises(LostMemoryError):
        machine.revive.parity.check_stripe(parity_node, ppage)
