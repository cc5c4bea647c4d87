"""Memoized address/stripe geometry (the per-line geometry cache).

Every ReVive memory write consults the same pure functions of the
physical address: which node is home, where the covering parity line
lives, whether the stripe is mirrored, and which lines are its stripe
peers.  All of these are fixed by the machine geometry the moment the
address is allocated — so the answers are memoized here and shared by
the parity engine, the ReVive controller/log path, and the coherence
protocol's home lookup (docs/PERFORMANCE.md).  The geometry is derived
once per page (home, parity-line offset, parity home, mirroring); each
line's entry is that record plus the line's address, memoized per
line.  Recovery's bulk stripe XORs do not go through the per-line peer
map: ``ParityEngine.stripe_xor`` resolves a page's stripe members once
per page.

The cache must never outlive the geometry it describes.  A machine
rebuild constructs a fresh :class:`GeometryCache` (it is owned by
:class:`~repro.machine.system.Machine`), and recovery calls
:meth:`GeometryCache.invalidate` after a lost node's memory is marked
recovered, so no stale stripe map can survive into post-recovery
operation — ``tests/test_geometry_cache.py`` pins both behaviours.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.layout import AddressSpace, ParityGeometry


class GeometryCache:
    """Per-line memoized geometry: home node, parity line, stripe peers.

    ``entry(line_addr)`` returns ``(home_node, parity_line,
    parity_home, mirrored)`` and is the hot-path accessor; parity
    fields are ``None`` when the machine runs without redundancy (the
    baseline variant) or when the line is itself parity.  A line's
    entry is derived from its page's record, so the geometry functions
    run once per page however many of its lines are touched.
    """

    __slots__ = ("space", "geometry", "_entries", "_pages", "_peers",
                 "_homes", "_offset_bits", "builds", "invalidations")

    def __init__(self, space: "AddressSpace",
                 geometry: "ParityGeometry") -> None:
        self.space = space
        self.geometry = geometry
        self._entries: Dict[int, Tuple[int, Optional[int], Optional[int],
                                       bool]] = {}
        # Global page number -> (home node, parity-line offset, parity
        # home, mirrored); the offset is ``None`` when the page has no
        # covering parity.  Every line of a page shares one record.
        self._pages: Dict[int, Tuple[int, Optional[int], Optional[int],
                                     bool]] = {}
        self._peers: Dict[int, Tuple[int, ...]] = {}
        self._homes: Dict[int, int] = {}
        self._offset_bits = space._offset_bits
        #: Distinct entries ever computed (cache misses), for tests.
        self.builds = 0
        #: Times the cache has been wiped (machine rebuild / recovery).
        self.invalidations = 0

    # -- accessors ---------------------------------------------------------

    def entry(self, line_addr: int) -> Tuple[int, Optional[int],
                                             Optional[int], bool]:
        """``(home_node, parity_line, parity_home, mirrored)`` of a line."""
        cached = self._entries.get(line_addr)
        if cached is not None:
            return cached
        page = self._pages.get(line_addr >> self._offset_bits)
        if page is None:
            page = self._page(line_addr)
        node, parity_offset, parity_node, mirrored = page
        if parity_offset is None:
            cached = page
        else:
            cached = (node, line_addr + parity_offset, parity_node, mirrored)
        self._entries[line_addr] = cached
        self.builds += 1
        return cached

    def _page(self, line_addr: int) -> Tuple[int, Optional[int],
                                             Optional[int], bool]:
        """Build and memoize the geometry record of a line's page."""
        space = self.space
        node, ppage = space.node_page_of(line_addr)
        geometry = self.geometry
        if geometry.enabled and not geometry.is_parity_page(node, ppage):
            parity_node, parity_page = geometry.parity_location(node, ppage)
            page = (node,
                    space.page_base(parity_node, parity_page)
                    - space.page_base(node, ppage),
                    parity_node, geometry.is_mirrored_page(node, ppage))
        else:
            page = (node, None, None, False)
        self._pages[line_addr >> self._offset_bits] = page
        return page

    def home_node(self, line_addr: int) -> int:
        """Memoized ``addr_space.node_of`` (the directory home lookup)."""
        home = self._homes.get(line_addr)
        if home is None:
            home = self._homes[line_addr] = line_addr // self.space._node_bytes
        return home

    def peers(self, line_addr: int) -> Tuple[int, ...]:
        """The other stripe members (data + parity lines) of a line."""
        cached = self._peers.get(line_addr)
        if cached is not None:
            return cached
        space = self.space
        node, ppage = space.node_page_of(line_addr)
        offset = line_addr % space.config.page_size
        cached = tuple(space.page_base(n, p) + offset
                       for n, p in self.geometry.stripe_of(node, ppage)
                       if n != node)
        self._peers[line_addr] = cached
        return cached

    # -- lifecycle ---------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every memoized entry (geometry must be re-derived).

        Called when the mapping could have gone stale relative to the
        machine — after recovery rebuilds a node's memory contents, and
        by anything that re-wires stripes.  Cheap relative to recovery
        itself, and the cache repopulates on first touch.
        """
        self._entries.clear()
        self._pages.clear()
        self._peers.clear()
        self._homes.clear()
        self.invalidations += 1

    def __len__(self) -> int:
        return len(self._entries) + len(self._peers) + len(self._homes)
