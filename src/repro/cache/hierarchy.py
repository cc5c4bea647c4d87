"""Two-level cache hierarchy bound to one processor.

Coherence state and dirty values are held in the L2 (the point of
coherence for the directory protocol); the L1 is a tag filter that only
decides the hit latency.  This is the standard reduction for inclusive
hierarchies at memory-system fidelity: the directory sees one cache per
node, and the dirty-line population — which drives ReVive's write-back,
log, parity, and checkpoint-flush traffic — lives in the L2 exactly as
in the paper's machine.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cache.cache import (
    CacheLine,
    SetAssocCache,
    TagFilter,
    EXCLUSIVE,
    MODIFIED,
    SHARED,
)
from repro.machine.config import MachineConfig

#: What the access needs from the directory.
HIT, NEED_GETS, NEED_GETX, NEED_UPGRADE = "hit", "GETS", "GETX", "UPG"


class AccessResult:
    """Outcome of a load/store probe against the hierarchy."""

    __slots__ = ("need", "l1_hit", "silent_upgrade")

    def __init__(self, need: str, l1_hit: bool,
                 silent_upgrade: bool = False) -> None:
        self.need = need
        self.l1_hit = l1_hit
        self.silent_upgrade = silent_upgrade

    @property
    def is_hit(self) -> bool:
        """True when the access completed without a directory transaction."""
        return self.need == HIT


class CacheHierarchy:
    """L1 tag filter + L2 state/value cache for one node."""

    __slots__ = ("config", "node", "l1", "l2", "silent_upgrades")

    def __init__(self, config: MachineConfig, node: int) -> None:
        self.config = config
        self.node = node
        self.l1 = TagFilter(f"L1.{node}", config.l1_size, config.l1_assoc,
                            config.line_size)
        self.l2 = SetAssocCache(f"L2.{node}", config.l2_size, config.l2_assoc,
                                config.line_size)
        self.silent_upgrades = 0

    # -- processor side ----------------------------------------------------

    def probe(self, line_addr: int, is_write: bool) -> AccessResult:
        """Classify an access: hit, upgrade needed, or full miss.

        A write hit on an EXCLUSIVE line upgrades it to MODIFIED silently
        (no directory transaction) — the paper's "write to a line in
        shared-exclusive state", which later produces a write-back that
        the home sees with its Logged bit still clear (Figure 5(b)).
        """
        line = self.l2.lookup(line_addr)
        l1_hit = self.l1.touch(line_addr)
        if line is None:
            return AccessResult(NEED_GETX if is_write else NEED_GETS, False)
        if not is_write:
            return AccessResult(HIT, l1_hit)
        if line.state == SHARED:
            return AccessResult(NEED_UPGRADE, l1_hit)
        silent = line.state == EXCLUSIVE
        if silent:
            self.silent_upgrades += 1
        line.state = MODIFIED
        return AccessResult(HIT, l1_hit, silent_upgrade=silent)

    def bulk_residency(self, line_addrs, l2_set_ids=None):
        """L2-resident line (or None) per address, for batch classification.

        The columnar engine (``cpu.columnar``) uses this to split a
        reference batch into a vectorizable pure prefix (L2 hits whose
        outcome cannot perturb later lookups) and scalar fallout
        references; LRU order and hit counters are untouched, exactly
        like :meth:`SetAssocCache.peek`.
        """
        return self.l2.bulk_peek(line_addrs, l2_set_ids)

    def write_value(self, line_addr: int, value: int) -> None:
        """Record the new value of a dirty line after a store."""
        line = self.l2.peek(line_addr)
        if line is None or line.state != MODIFIED:
            raise RuntimeError(
                f"write_value on non-modified line {line_addr:#x}")
        line.value = value

    def fill(self, line_addr: int, state: int,
             value: int) -> List[Tuple[int, int]]:
        """Install a line after a miss; returns dirty evictions.

        Each returned ``(addr, value)`` pair must be written back to its
        home memory by the caller.  Clean EXCLUSIVE victims also appear —
        flagged by ``value is None`` — because the directory is notified
        of ownership replacement with a hint message.
        """
        victim = self.l2.insert(line_addr, state, value)
        self.l1.touch(line_addr)
        writebacks: List[Tuple[int, Optional[int]]] = []
        if victim is not None:
            self.l1.invalidate(victim.addr)
            if victim.state == MODIFIED:
                writebacks.append((victim.addr, victim.value))
            elif victim.state == EXCLUSIVE:
                writebacks.append((victim.addr, None))
        return writebacks

    # -- directory side ------------------------------------------------------

    def invalidate(self, line_addr: int) -> Optional[int]:
        """Directory-initiated invalidation; returns dirty value, if any."""
        self.l1.invalidate(line_addr)
        line = self.l2.invalidate(line_addr)
        if line is not None and line.state == MODIFIED:
            return line.value
        return None

    def downgrade(self, line_addr: int) -> Optional[int]:
        """Directory-initiated M/E -> S downgrade; returns dirty value."""
        line = self.l2.peek(line_addr)
        if line is None:
            return None
        value = line.value if line.state == MODIFIED else None
        line.state = SHARED
        self.l2.epoch += 1          # M/E -> S invalidates write-purity
        return value

    # -- checkpoint / recovery support ---------------------------------------

    def dirty_lines(self) -> List[CacheLine]:
        """Snapshot of dirty lines (checkpoint flush iterates over this)."""
        return list(self.l2.dirty_lines())

    def mark_clean(self, line_addr: int) -> None:
        """After a flush write-back the line stays cached, SHARED.

        Downgrading (rather than keeping the line exclusive-clean)
        makes the processor's next write an *upgrade* request, so the
        home logs the line in the background on the store intent
        (Figure 5(a)) instead of hitting the serialised log-before-data
        path at the next flush — the paper's Figure 5(b), which it
        calls the least frequent case.
        """
        line = self.l2.peek(line_addr)
        if line is not None and line.state == MODIFIED:
            line.state = SHARED
            self.l2.epoch += 1      # M -> S invalidates write-purity

    def clear(self) -> None:
        """Invalidate everything (recovery wipes the caches)."""
        self.l1.clear()
        self.l2.clear()

    # -- snapshot / restore (docs/SNAPSHOTS.md) ------------------------------

    def snapshot(self) -> dict:
        """Plain-data state of both levels plus the upgrade counter."""
        return {"l1": self.l1.snapshot(),
                "l2": self.l2.snapshot(),
                "silent_upgrades": self.silent_upgrades}

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`snapshot`."""
        self.l1.restore(state["l1"])
        self.l2.restore(state["l2"])
        self.silent_upgrades = state["silent_upgrades"]

    # -- statistics -----------------------------------------------------------

    @property
    def l2_miss_rate(self) -> float:
        """The L2's miss rate (the paper's Table 4 metric)."""
        return self.l2.miss_rate
