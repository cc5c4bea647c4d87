"""Functional per-node main memory.

Line contents are modelled as arbitrary-precision integers (a 64-byte
line is at most a 512-bit value), stored sparsely: absent lines read as
zero, which makes XOR parity over partially-touched stripes work without
special cases.

A node's memory can be *destroyed* (node-loss fault injection), after
which any access raises ``LostMemoryError`` until recovery rebuilds the
contents from parity.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.sim.columns import int_column


class LostMemoryError(RuntimeError):
    """Raised when reading or writing memory on a lost node."""


class NodeMemory:
    """Sparse functional storage for one node's DRAM."""

    __slots__ = ("node", "_lines", "lost")

    def __init__(self, node: int) -> None:
        self.node = node
        self._lines: Dict[int, int] = {}
        self.lost = False

    def read_line(self, paddr: int) -> int:
        """Current value of the line (0 when never written)."""
        if self.lost:
            raise LostMemoryError(f"node {self.node} memory is lost")
        return self._lines.get(paddr, 0)

    def write_line(self, paddr: int, value: int) -> None:
        """Set the line's value (zero values stay implicit)."""
        if self.lost:
            raise LostMemoryError(f"node {self.node} memory is lost")
        if value:
            self._lines[paddr] = value
        else:
            # Keep the store sparse: zero is the implicit default.
            self._lines.pop(paddr, None)

    def destroy(self) -> None:
        """Permanently lose this node's memory contents (fault injection)."""
        self._lines.clear()
        self.lost = True

    def restore_line(self, paddr: int, value: int) -> None:
        """Write during recovery; legal even while the node is marked lost
        if recovery is repopulating a replacement module."""
        if value:
            self._lines[paddr] = value
        else:
            self._lines.pop(paddr, None)

    def mark_recovered(self) -> None:
        """Clear the lost flag once recovery repopulated memory."""
        self.lost = False

    def lines(self) -> Iterator[Tuple[int, int]]:
        """Iterate over (line address, value) pairs of non-zero lines."""
        return iter(self._lines.items())

    def snapshot(self) -> Dict:
        """Plain-data state: non-zero lines in insertion order + lost flag.

        Addresses travel as a typed column, values (up to 512 bits) as a
        plain list of ints beside it.
        """
        return {"addrs": int_column(self._lines.keys()),
                "values": list(self._lines.values()),
                "lost": self.lost}

    def digest_state(self) -> Dict:
        """Determinism-observatory hook (obs/digest.py): the
        ``(addr, value)`` pairs in insertion order plus the lost flag —
        the form every recorded digest chain hashed."""
        return {"lines": list(self._lines.items()), "lost": self.lost}

    def restore(self, state: Dict) -> None:
        """Reinstate a :meth:`snapshot` (docs/SNAPSHOTS.md)."""
        self._lines.clear()
        self._lines.update(zip(state["addrs"], state["values"]))
        self.lost = state["lost"]

    def __len__(self) -> int:
        return len(self._lines)
