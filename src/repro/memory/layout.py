"""Physical address layout, first-touch page allocation, and parity geometry.

Physical addresses are flat integers: node ``n`` owns the address range
``[n * node_memory_bytes, (n+1) * node_memory_bytes)``.  Workloads issue
*virtual* addresses in a single shared space; pages are bound to physical
pages on first touch, on the toucher's node (the paper's allocation
policy), falling back to round-robin when a node's memory fills up.

Parity geometry follows Section 3.2.1 and Figure 3 of the paper, with the
parity pages rotated RAID-5 style instead of parked on dedicated nodes:
nodes are split into *clusters* of ``group_size + 1`` consecutive nodes;
within a cluster, stripe ``s`` consists of page index ``s`` on every node,
and the parity page of the stripe lives on node ``cluster[s mod
cluster_size]``.  Pages that the rotation designates as parity are never
handed out to data (or log) allocations.

Mirroring is the degenerate geometry with ``group_size == 1``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.machine.config import MachineConfig


class ParityGeometry:
    """Maps (node, physical page) to its parity group.

    ``group_size`` is the N of N+1 parity: the number of *data* pages per
    stripe.  ``group_size == 0`` disables parity entirely (the baseline
    machine); ``group_size == 1`` is mirroring.
    """

    def __init__(self, config: MachineConfig, group_size: int) -> None:
        if group_size < 0:
            raise ValueError("group_size must be >= 0")
        if group_size and config.n_nodes % (group_size + 1) != 0:
            raise ValueError(
                f"{config.n_nodes} nodes cannot be split into clusters "
                f"of {group_size + 1}")
        self.config = config
        self.group_size = group_size
        self.cluster_size = group_size + 1 if group_size else 0

    @property
    def enabled(self) -> bool:
        """True when parity protection is configured."""
        return self.group_size > 0

    def cluster_of(self, node: int) -> List[int]:
        """The list of node ids forming ``node``'s parity cluster."""
        self._require_enabled()
        base = (node // self.cluster_size) * self.cluster_size
        return list(range(base, base + self.cluster_size))

    def position_in_cluster(self, node: int) -> int:
        """The node's index inside its parity cluster."""
        self._require_enabled()
        return node % self.cluster_size

    def is_parity_page(self, node: int, ppage: int) -> bool:
        """True when page ``ppage`` of ``node`` holds parity, not data."""
        if not self.enabled:
            return False
        return ppage % self.cluster_size == self.position_in_cluster(node)

    def parity_location(self, node: int, ppage: int) -> Tuple[int, int]:
        """Home (node, page) of the parity page covering a data page."""
        self._require_enabled()
        if self.is_parity_page(node, ppage):
            raise ValueError(f"page {ppage} of node {node} is itself parity")
        cluster = self.cluster_of(node)
        parity_node = cluster[ppage % self.cluster_size]
        return parity_node, ppage

    def stripe_data_pages(self, parity_node: int,
                          ppage: int) -> List[Tuple[int, int]]:
        """Data pages protected by the given parity page."""
        self._require_enabled()
        if not self.is_parity_page(parity_node, ppage):
            raise ValueError(
                f"page {ppage} of node {parity_node} is not a parity page")
        return [(n, ppage) for n in self.cluster_of(parity_node)
                if n != parity_node]

    def stripe_of(self, node: int, ppage: int) -> List[Tuple[int, int]]:
        """All members (data pages + parity page) of the page's stripe."""
        self._require_enabled()
        cluster = self.cluster_of(node)
        return [(n, ppage) for n in cluster]

    def data_pages_of_node(self, node: int) -> List[int]:
        """Physical page indices of ``node`` that may hold data."""
        pages = range(self.config.pages_per_node)
        if not self.enabled:
            return list(pages)
        return [p for p in pages if not self.is_parity_page(node, p)]

    def parity_fraction(self) -> float:
        """Fraction of total memory consumed by parity (0.125 for 7+1)."""
        if not self.enabled:
            return 0.0
        return 1.0 / self.cluster_size

    def is_mirrored_page(self, node: int, ppage: int) -> bool:
        """True when the page's stripe uses mirroring (a single copy
        holds the full value; updates skip the read-modify-write)."""
        return self.cluster_size == 2

    def _require_enabled(self) -> None:
        if not self.enabled:
            raise RuntimeError("parity geometry is disabled (group_size 0)")


class HybridGeometry(ParityGeometry):
    """Mirroring for the hottest pages, N+1 parity for the rest.

    Section 6.1's suggestion (and the paper's first listed extension):
    "a small part of the memory can be protected by mirroring, while
    the rest is protected by parity.  Careful allocation of frequently
    used pages into the mirrored region should result in low
    overheads... while reducing the memory space overheads."

    Stripes with page index below ``mirrored_stripes`` are mirrored
    between the nodes of each even/odd pair inside the cluster (the
    holder alternates by stripe so data and mirrors balance); higher
    stripes use the inherited RAID-5 rotation.  First-touch allocation
    hands out ascending page indices, so the earliest-touched — in the
    built-in workloads, the hottest — data lands in the mirrored
    region automatically.
    """

    def __init__(self, config: MachineConfig, group_size: int,
                 mirrored_stripes: int) -> None:
        super().__init__(config, group_size)
        if not self.enabled:
            raise ValueError("HybridGeometry requires parity enabled")
        if self.cluster_size % 2 != 0:
            raise ValueError(
                "hybrid protection needs an even cluster size to pair "
                "nodes for mirroring")
        if not 0 <= mirrored_stripes <= config.pages_per_node:
            raise ValueError("mirrored_stripes out of range")
        self.mirrored_stripes = mirrored_stripes

    def is_mirrored_page(self, node: int, ppage: int) -> bool:
        """Whether this page's stripe is mirrored (see base class)."""
        return ppage < self.mirrored_stripes

    def _mirror_holder(self, node: int, ppage: int) -> bool:
        """Does ``node`` hold the mirror (not the data) of this stripe?"""
        return self.position_in_cluster(node) % 2 == ppage % 2

    def is_parity_page(self, node: int, ppage: int) -> bool:
        """Whether this page holds parity/mirror (see base class)."""
        if ppage < self.mirrored_stripes:
            return self._mirror_holder(node, ppage)
        return super().is_parity_page(node, ppage)

    def _pair_partner(self, node: int) -> int:
        pos = self.position_in_cluster(node)
        base = node - pos
        return base + (pos ^ 1)

    def parity_location(self, node: int, ppage: int) -> Tuple[int, int]:
        """Parity/mirror home of a data page (see base class)."""
        if ppage < self.mirrored_stripes:
            if self._mirror_holder(node, ppage):
                raise ValueError(
                    f"page {ppage} of node {node} is itself a mirror")
            return self._pair_partner(node), ppage
        return super().parity_location(node, ppage)

    def stripe_data_pages(self, parity_node: int,
                          ppage: int) -> List[Tuple[int, int]]:
        """Data members of a parity page's stripe (see base class)."""
        if ppage < self.mirrored_stripes:
            if not self._mirror_holder(parity_node, ppage):
                raise ValueError(
                    f"page {ppage} of node {parity_node} is not a mirror")
            return [(self._pair_partner(parity_node), ppage)]
        return super().stripe_data_pages(parity_node, ppage)

    def stripe_of(self, node: int, ppage: int) -> List[Tuple[int, int]]:
        """All stripe members of a page (see base class)."""
        if ppage < self.mirrored_stripes:
            return sorted([(node, ppage),
                           (self._pair_partner(node), ppage)])
        return super().stripe_of(node, ppage)

    def parity_fraction(self) -> float:
        """Fraction of memory used for redundancy (see base class)."""
        total = self.config.pages_per_node
        if total == 0:
            return 0.0
        mirrored = self.mirrored_stripes
        return (mirrored * 0.5
                + (total - mirrored) / self.cluster_size) / total


class AddressSpace:
    """Virtual-to-physical page binding with first-touch allocation.

    Also the authority on address arithmetic: splitting physical
    addresses into (node, page, line) and back.
    """

    def __init__(self, config: MachineConfig, geometry: ParityGeometry,
                 reserved_pages_per_node: int = 0) -> None:
        self.config = config
        self.geometry = geometry
        # Hot-path constants, hoisted so per-reference translation does
        # no property lookups (see docs/PERFORMANCE.md).
        self._offset_bits = config.page_offset_bits
        self._page_mask = config.page_size - 1
        self._line_mask = ~(config.line_size - 1)
        #: Page-offset mask already aligned down to the line size:
        #: ``base + (vaddr & _line_in_page_mask)`` is the line address.
        self._line_in_page_mask = self._page_mask & self._line_mask
        self._node_bytes = config.node_memory_bytes
        self._page_table: Dict[int, int] = {}     # vpage -> physical page base
        # The *top* `reserved_pages_per_node` data pages of each node
        # are set aside (system page + the ReVive log region).  Keeping
        # reservations high leaves the low page indices — the mirrored
        # region under hybrid protection — for first-touched (hot) data.
        self.reserved_pages: Dict[int, List[int]] = {}
        self._free_pages: List[List[int]] = []
        for node in range(config.n_nodes):
            data_pages = geometry.data_pages_of_node(node)
            if reserved_pages_per_node:
                reserved = data_pages[-reserved_pages_per_node:]
                free = data_pages[:-reserved_pages_per_node]
            else:
                reserved = []
                free = data_pages
            self.reserved_pages[node] = reserved
            free.reverse()          # pop() hands out ascending page indices
            self._free_pages.append(free)
        self._fallback_node = 0
        self.first_touch_allocations = 0
        #: Bumped on every restore.  ``(generation,
        #: first_touch_allocations)`` keys any cached bulk translation:
        #: within one run the pair identifies the page table uniquely
        #: (allocations are monotone), and a rollback — which can
        #: rewind the count and then re-allocate *different* pages —
        #: changes the generation (docs/PERFORMANCE.md).
        self.generation = 0

    # -- address arithmetic ------------------------------------------------

    def node_of(self, paddr: int) -> int:
        """Node owning a physical address."""
        return paddr // self._node_bytes

    def page_of(self, paddr: int) -> int:
        """Physical page index within the owning node."""
        return (paddr % self._node_bytes) >> self._offset_bits

    def node_page_of(self, paddr: int) -> Tuple[int, int]:
        """``(node, physical page)`` of an address in one division."""
        node, within = divmod(paddr, self._node_bytes)
        return node, within >> self._offset_bits

    def line_of(self, paddr: int) -> int:
        """Line-aligned physical address containing ``paddr``."""
        return paddr & self._line_mask

    def page_base(self, node: int, ppage: int) -> int:
        """First physical address of (node, page)."""
        return node * self._node_bytes + (ppage << self._offset_bits)

    def lines_of_page(self, node: int, ppage: int) -> range:
        """Line addresses covering one physical page."""
        base = self.page_base(node, ppage)
        return range(base, base + self.config.page_size, self.config.line_size)

    # -- translation ---------------------------------------------------------

    def translate(self, vaddr: int, toucher_node: int) -> int:
        """Map a virtual address to a physical one (first touch allocates)."""
        vpage = vaddr >> self._offset_bits
        base = self._page_table.get(vpage)
        if base is None:
            base = self._allocate(vpage, toucher_node)
        return base + (vaddr & self._page_mask)

    def translate_line(self, vaddr: int, toucher_node: int) -> int:
        """Translate and align to the containing line."""
        vpage = vaddr >> self._offset_bits
        base = self._page_table.get(vpage)
        if base is None:
            base = self._allocate(vpage, toucher_node)
        return base + (vaddr & self._line_in_page_mask)

    def is_mapped(self, vaddr: int) -> bool:
        """True when the virtual address's page is already bound."""
        return (vaddr >> self._offset_bits) in self._page_table

    def mapped_physical_pages(self) -> List[Tuple[int, int]]:
        """All (node, ppage) pairs currently backing virtual pages."""
        return [(self.node_of(base), self.page_of(base))
                for base in self._page_table.values()]

    def _allocate(self, vpage: int, toucher_node: int) -> int:
        node = toucher_node
        if not self._free_pages[node]:
            node = self._next_node_with_space()
        ppage = self._free_pages[node].pop()
        base = self.page_base(node, ppage)
        self._page_table[vpage] = base
        self.first_touch_allocations += 1
        return base

    def snapshot(self) -> Dict:
        """Plain-data state: page table (ordered), free lists, cursors."""
        return {"page_table": list(self._page_table.items()),
                "free_pages": [list(free) for free in self._free_pages],
                "fallback_node": self._fallback_node,
                "first_touch_allocations": self.first_touch_allocations}

    def digest_state(self) -> Dict:
        """Determinism-observatory hook (obs/digest.py).

        The free lists hold tens of thousands of page numbers, so they
        are folded through the packed-int fast path (per-node lengths
        plus one flat hash) instead of re-encoded as JSON at every
        digest window; the page table stays plain — it is small and
        its insertion order is first-touch order, which the snapshot
        oracle already guarantees is deterministic.
        """
        from itertools import chain

        from repro.obs.digest import packed_ints_digest

        return {"page_table": list(self._page_table.items()),
                "free_page_counts": [len(free)
                                     for free in self._free_pages],
                "free_pages": packed_ints_digest(
                    chain.from_iterable(self._free_pages)),
                "fallback_node": self._fallback_node,
                "first_touch_allocations": self.first_touch_allocations}

    def restore(self, state: Dict) -> None:
        """Reinstate a :meth:`snapshot`.

        The page table is mutated in place: the columnar batch engine
        binds ``_page_table.get`` once, so the dict identity must
        survive a restore (docs/SNAPSHOTS.md).
        """
        self._page_table.clear()
        self._page_table.update(state["page_table"])
        self._free_pages[:] = [list(free) for free in state["free_pages"]]
        self._fallback_node = state["fallback_node"]
        self.first_touch_allocations = state["first_touch_allocations"]
        self.generation += 1

    def _next_node_with_space(self) -> int:
        n_nodes = self.config.n_nodes
        for _ in range(n_nodes):
            node = self._fallback_node
            self._fallback_node = (self._fallback_node + 1) % n_nodes
            if self._free_pages[node]:
                return node
        raise MemoryError("simulated machine is out of physical memory")
