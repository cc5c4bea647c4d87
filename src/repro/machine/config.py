"""Machine configuration, mirroring Table 3 of the paper.

Two presets are provided:

* :meth:`MachineConfig.paper` — the paper's simulated system: 16 nodes,
  16KB L1 / 128KB L2, 64B lines, 2-D torus, DDR memory.
* :meth:`MachineConfig.bench` — the same machine scaled a further step
  down (L1 4KB / L2 32KB) so that full-application runs complete at
  Python speeds.  Workload analogs are calibrated against this preset;
  see DESIGN.md §2 for the scaling chain.

All times are integer nanoseconds at a 1 GHz core clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass
class MachineConfig:
    """Parameters of the modelled CC-NUMA multiprocessor."""

    # --- topology -------------------------------------------------------
    n_nodes: int = 16
    torus_width: int = 4               # torus_width x torus_height 2-D torus
    torus_height: int = 4

    # --- processor ------------------------------------------------------
    core_ghz: float = 1.0              # 1 cycle == 1 ns
    ipc: float = 3.0                   # sustained IPC of the 6-issue core
    pending_stores: int = 16           # store-buffer depth (WB overlap)
    #: Memory-level parallelism of the out-of-order core: the paper's
    #: 6-issue window with 16 pending loads overlaps misses, so each
    #: miss stalls the (in-order-modelled) processor for only
    #: latency / miss_overlap.  See DESIGN.md §2.
    miss_overlap: float = 2.0

    # --- caches ---------------------------------------------------------
    line_size: int = 64
    l1_size: int = 16 * 1024
    l1_assoc: int = 4
    l1_hit_ns: int = 2
    l2_size: int = 128 * 1024
    l2_assoc: int = 4
    l2_hit_ns: int = 12

    # --- memory ---------------------------------------------------------
    page_size: int = 4096
    mem_row_miss_ns: int = 60          # DRAM access latency on a row miss
    mem_row_hit_ns: int = 20           # sequential/repeat access latency
    mem_banks: int = 16                # banks hide row latency, not bandwidth
    mem_bytes_per_ns: float = 3.2      # data-bus bandwidth (2x PC1600 DDR)
    node_memory_bytes: int = 4 * 1024 * 1024   # simulated DRAM per node

    # --- directory ------------------------------------------------------
    dir_latency_ns: int = 21           # pipelined controller latency
    dir_occupancy_ns: int = 3          # 333 MHz pipeline slot

    # --- network --------------------------------------------------------
    net_base_ns: int = 30              # message transfer time
    net_per_hop_ns: int = 8
    link_bytes_per_ns: float = 3.2     # link bandwidth (serialization)
    ni_bytes_per_ns: float = 3.2       # network-interface bandwidth
    header_bytes: int = 8              # control-message / header size

    # --- synchronization ------------------------------------------------
    barrier_ns: int = 10_000           # 16-proc barrier (Origin 2000 figure)
    interrupt_ns: int = 5_000          # cross-processor interrupt delivery
    context_save_ns: int = 1_000       # storing execution context to memory

    # --- simulation control ---------------------------------------------
    batch_quantum_ns: int = 2_000      # max time skew between processors

    def __post_init__(self) -> None:
        self.validate()

    # -- derived quantities ----------------------------------------------
    # Cached: the geometry fields are fixed after validation, and these
    # are read on the per-reference hot path (docs/PERFORMANCE.md).

    @cached_property
    def lines_per_page(self) -> int:
        """Memory lines per page."""
        return self.page_size // self.line_size

    @cached_property
    def pages_per_node(self) -> int:
        """Physical pages per node."""
        return self.node_memory_bytes // self.page_size

    @cached_property
    def line_offset_bits(self) -> int:
        """Bit width of the within-line offset."""
        return int(math.log2(self.line_size))

    @cached_property
    def page_offset_bits(self) -> int:
        """Bit width of the within-page offset."""
        return int(math.log2(self.page_size))

    def hops(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes on the 2-D torus."""
        if src == dst:
            return 0
        width, height = self.torus_width, self.torus_height
        sx, sy = src % width, src // width
        dx, dy = dst % width, dst // width
        hx = abs(sx - dx)
        hy = abs(sy - dy)
        return min(hx, width - hx) + min(hy, height - hy)

    def net_latency(self, src: int, dst: int) -> int:
        """No-contention message latency between two nodes."""
        if src == dst:
            return 0
        return self.net_base_ns + self.net_per_hop_ns * self.hops(src, dst)

    def line_message_bytes(self) -> int:
        """Size on the wire of a message carrying one memory line."""
        return self.header_bytes + self.line_size

    def validate(self) -> None:
        """Raise ``ValueError`` on an inconsistent configuration."""
        if self.torus_width * self.torus_height != self.n_nodes:
            raise ValueError(
                f"torus {self.torus_width}x{self.torus_height} does not "
                f"cover {self.n_nodes} nodes")
        for name in ("line_size", "page_size", "l1_size", "l2_size"):
            if not _is_power_of_two(getattr(self, name)):
                raise ValueError(f"{name} must be a power of two")
        if self.page_size % self.line_size != 0:
            raise ValueError("page_size must be a multiple of line_size")
        if self.l1_size > self.l2_size:
            raise ValueError(
                "L1 must not be larger than L2 (inclusive hierarchy)")
        if self.node_memory_bytes % self.page_size != 0:
            raise ValueError(
                "node_memory_bytes must be a multiple of page_size")
        for name in ("n_nodes", "l1_assoc", "l2_assoc", "mem_banks", "ipc"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    # -- presets -----------------------------------------------------------

    @classmethod
    def paper(cls) -> "MachineConfig":
        """The configuration of Table 3 (16 procs, 16KB L1, 128KB L2)."""
        return cls()

    @classmethod
    def bench(cls) -> "MachineConfig":
        """Scaled-down preset used by the benchmark harness.

        Caches shrink 4x relative to the paper's simulated system and the
        workload analogs shrink their working sets with them, preserving
        miss rates (the same methodology the paper uses to scale from
        real 2MB caches to its simulated 128KB ones).  Synchronization
        costs shrink with the checkpoint interval so the checkpoint
        overhead *fraction* stays comparable.
        """
        return cls(l1_size=4 * 1024, l2_size=32 * 1024,
                   node_memory_bytes=8 * 1024 * 1024,
                   barrier_ns=2_000, interrupt_ns=1_000,
                   context_save_ns=200)

    @classmethod
    def tiny(cls, n_nodes: int = 4) -> "MachineConfig":
        """Minimal machine for unit tests (fast to build and run)."""
        shapes = {1: (1, 1), 2: (2, 1), 4: (2, 2), 8: (4, 2), 16: (4, 4)}
        if n_nodes not in shapes:
            raise ValueError(f"tiny preset supports {sorted(shapes)} nodes")
        width, height = shapes[n_nodes]
        return cls(n_nodes=n_nodes, torus_width=width, torus_height=height,
                   l1_size=1024, l2_size=4096,
                   node_memory_bytes=256 * 1024,
                   barrier_ns=1_000, interrupt_ns=500, context_save_ns=100)
