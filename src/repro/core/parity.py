"""Hardware-maintained distributed parity (Section 3.2.1).

Every write of main memory produces a parity update ``U = D XOR D'``
that the home directory controller sends to the parity page's home,
where the old parity is read, XORed with ``U``, and written back, then
acknowledged.  Mirroring (1+1 groups) short-circuits the XORs: the new
data value is simply written to the mirror page (the paper's degenerate
case, saving the two reads).

The engine owns both the *functional* parity contents (stored in the
parity nodes' ``NodeMemory`` like any other line) and the *timing* of
the update round-trip, and provides the reconstruction primitive used
by recovery: any lost line equals the XOR of its surviving stripe
members.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.memory.layout import ParityGeometry

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.system import Machine


class ParityEngine:
    """Distributed parity maintenance and reconstruction."""

    def __init__(self, machine: "Machine", geometry: ParityGeometry) -> None:
        if not geometry.enabled:
            raise ValueError("ParityEngine requires an enabled geometry")
        self.machine = machine
        self.geometry = geometry
        self.config = machine.config
        self.stats = machine.stats
        self.updates = 0
        # One geometry lookup per distinct line, ever: home node,
        # parity line, parity home and mirroring are all memoized in
        # the machine-owned cache (docs/PERFORMANCE.md).
        self.geom = machine.geom_cache
        # Hot-path bindings for time_update: every node's DRAM bus
        # calendar, the memory-traffic byte counts, the line message
        # size.  All are mutated in place, never replaced.
        self._dram = [node.mem_timing.banks for node in machine.nodes]
        self._memory_traffic = self.stats.memory_traffic.bytes_by_category
        self._line_message_bytes = self.config.line_message_bytes()

    # -- address helpers ---------------------------------------------------

    def parity_line_of(self, line_addr: int) -> int:
        """Physical address of the parity line covering a data line."""
        parity_line = self.geom.entry(line_addr)[1]
        if parity_line is None:
            raise ValueError(
                f"line {line_addr:#x} is itself parity; it has no "
                f"covering parity line")
        return parity_line

    def peer_lines_of(self, line_addr: int) -> List[int]:
        """The other stripe members (data + parity) of any line."""
        return list(self.geom.peers(line_addr))

    # -- error-free operation ------------------------------------------------

    def apply_update(self, line_addr: int, old_value: int,
                     new_value: int) -> None:
        """Functionally fold one data-line write into its parity line.

        With mirroring the parity (mirror) line simply takes the new
        value.  Timing is charged separately by :meth:`time_update` so
        the directory controller can write-combine metadata-line parity
        while keeping contents exact.
        """
        entry = self.geom.entry(line_addr)
        if entry[1] is None:
            raise ValueError(
                f"line {line_addr:#x} is itself parity; it has no "
                f"covering parity line")
        self.fold_update(entry, old_value, new_value)

    def fold_update(self, entry: Tuple[int, Optional[int], Optional[int],
                                       bool],
                    old_value: int, new_value: int) -> None:
        """:meth:`apply_update` for a data line whose
        :meth:`GeometryCache.entry` the caller already holds."""
        _home, parity_line, parity_home, mirrored = entry
        memory = self.machine.nodes[parity_home].memory
        if mirrored:
            memory.write_line(parity_line, new_value)
        else:
            memory.write_line(parity_line, memory.read_line(parity_line)
                              ^ old_value ^ new_value)

    def time_update(self, line_addr: int, at: int,
                    sequential: bool = False) -> int:
        """Charge the timing and traffic of one parity-update round trip.

        Update message to the parity home, parity read + write there
        (just the write under mirroring), and the acknowledgment back.
        Returns the ack's arrival time at the data's home node.
        ``sequential`` marks log-region updates, whose parity is
        accessed in order and hits open DRAM rows.
        """
        home_id, parity_line, parity_home, mirrored = \
            self.geom.entry(line_addr)
        if parity_line is None:
            raise ValueError(
                f"line {line_addr:#x} is itself parity; it has no "
                f"covering parity line")
        send = self.machine.network.send
        config = self.config
        arrive = send(home_id, parity_home, self._line_message_bytes, at,
                      "PAR")
        # The parity home's DRAM bus, booked directly: the read (skipped
        # under mirroring) and then the write, as MemoryTimingModel.access
        # would book them.
        bus = self._dram[parity_home]
        done = bus.acquire(arrive) + (config.mem_row_hit_ns if sequential
                                      else config.mem_row_miss_ns)
        if mirrored:
            self._memory_traffic["PAR"] += config.line_size
        else:
            done = bus.acquire(done) + config.mem_row_hit_ns
            self._memory_traffic["PAR"] += 2 * config.line_size
        ack = send(parity_home, home_id, config.header_bytes, done, "PAR")
        self.updates += 1
        return ack

    # -- snapshot / restore (docs/SNAPSHOTS.md) -------------------------------

    def snapshot(self) -> dict:
        """Plain-data state (the update counter; contents live in memory)."""
        return {"updates": self.updates}

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`snapshot`."""
        self.updates = state["updates"]

    # -- reconstruction (used by recovery, Phases 2-4) ------------------------

    def stripe_xor(self, node: int, ppage: int,
                   lines: Optional[Iterable[int]] = None
                   ) -> List[Tuple[int, int]]:
        """XOR of the *other* stripe members, line by line, for one page.

        The single stripe-XOR implementation.  Rebuilding a lost line
        and recomputing a parity line are the same operation: a parity
        page's other stripe members are exactly its data pages, and a
        data page's are its surviving peers (just the mirror under
        mirroring).  The members and their address offsets are resolved
        once per page; every member line is still read through
        :meth:`NodeMemory.read_line`, so a lost member raises
        ``LostMemoryError``.

        ``lines`` (addresses inside the page) defaults to the whole
        page in :meth:`AddressSpace.lines_of_page` order.  Returns
        ``(line_addr, value)`` pairs in input order.  Purely
        functional; recovery charges timing separately because
        reconstruction is batched page-at-a-time.
        """
        machine = self.machine
        space = machine.addr_space
        base = space.page_base(node, ppage)
        members = [(machine.nodes[n].memory.read_line,
                    space.page_base(n, p) - base)
                   for n, p in self.geometry.stripe_of(node, ppage)
                   if n != node]
        if lines is None:
            lines = space.lines_of_page(node, ppage)
        out = []
        for line_addr in lines:
            value = 0
            for read, delta in members:
                value ^= read(line_addr + delta)
            out.append((line_addr, value))
        return out

    def reconstruct_line(self, line_addr: int) -> int:
        """Recompute a lost line by XORing its surviving stripe members.

        With mirroring this degenerates to reading the single peer.
        """
        node, ppage = self.machine.addr_space.node_page_of(line_addr)
        return self.stripe_xor(node, ppage, (line_addr,))[0][1]

    def recompute_parity_line(self, parity_line: int) -> int:
        """Recompute a parity line from its data members (stripe repair)."""
        node, ppage = self.machine.addr_space.node_page_of(parity_line)
        self._require_parity_page(node, ppage)
        return self.stripe_xor(node, ppage, (parity_line,))[0][1]

    def _require_parity_page(self, node: int, ppage: int) -> None:
        if not self.geometry.is_parity_page(node, ppage):
            raise ValueError(
                f"page {ppage} of node {node} is not a parity page")

    # -- invariants (tests and post-recovery verification) --------------------

    def check_stripe(self, parity_node: int, ppage: int) -> bool:
        """True when a parity page equals the XOR of its data pages."""
        self._require_parity_page(parity_node, ppage)
        read = self.machine.nodes[parity_node].memory.read_line
        return all(read(line_addr) == value
                   for line_addr, value in self.stripe_xor(parity_node,
                                                           ppage))

    def check_all_parity(self) -> List[Tuple[int, int]]:
        """Exhaustive parity scan; returns the list of broken stripes.

        Only stripes containing at least one touched page are scanned —
        untouched stripes are all-zero and trivially consistent.
        """
        space = self.machine.addr_space
        touched = set(space.mapped_physical_pages())
        for node in range(self.config.n_nodes):
            for ppage in self.machine.reserved_pages_of(node):
                touched.add((node, ppage))
        broken = []
        checked = set()
        for node, ppage in touched:
            parity_node, parity_page = self.geometry.parity_location(node,
                                                                     ppage)
            key = (parity_node, parity_page)
            if key in checked:
                continue
            checked.add(key)
            if not self.check_stripe(parity_node, parity_page):
                broken.append(key)
        return broken

    def memory_overhead_fraction(self) -> float:
        """Fraction of main memory consumed by parity (Section 6.2)."""
        return self.geometry.parity_fraction()
