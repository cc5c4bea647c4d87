"""Full-map directory state, one instance per home node.

Each memory line has (lazily) a directory entry with one of three stable
states — UNCACHED, SHARED (a sharer set), EXCLUSIVE (a single owner) —
plus a ``busy_until`` timestamp standing in for the transient states of
a real controller: a transaction arriving for a busy line waits until
the line is free, which is how the protocol serialises racing requests
and how ReVive keeps a line locked until its log entry and parity are
safely committed (Section 4.1.1).

Observability: a directory carries a ``tracer`` (``NULL_TRACER`` by
default); :meth:`Directory.trace_transition` emits the ``coh.transition``
event after each stable-state change and :meth:`Directory.clear_all`
emits ``coh.clear`` when recovery wipes the directory.  The protocol
engine guards each call with ``directory.tracer.enabled`` so untraced
transitions cost one attribute read.

Restore is deferred: :meth:`Directory.restore` keeps the image's
columns as *pending* and builds their :class:`DirEntry` objects only
when something first reads the directory.  A fault that wipes the
directory right after a restore (every forked campaign scenario) drops
the rows unbuilt.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.obs.tracer import NULL_TRACER
from repro.sim.columns import int_column

DIR_UNCACHED, DIR_SHARED, DIR_EXCLUSIVE = 0, 1, 2

_STATE_NAMES = {DIR_UNCACHED: "U", DIR_SHARED: "S", DIR_EXCLUSIVE: "E"}


def _sharer_mask(sharers: Iterable[int]) -> int:
    """A sharer set as a bitmask (bit *n* set for node *n*)."""
    mask = 0
    for node in sharers:
        mask |= 1 << node
    return mask


def _mask_sharers(mask: int) -> Set[int]:
    """The sharer set of a :func:`_sharer_mask`, built in node order."""
    sharers = set()
    while mask:
        low = mask & -mask
        sharers.add(low.bit_length() - 1)
        mask ^= low
    return sharers


class DirEntry:
    """Directory state for one memory line."""

    __slots__ = ("state", "sharers", "owner", "busy_until")

    def __init__(self) -> None:
        self.state = DIR_UNCACHED
        self.sharers: Set[int] = set()
        self.owner = -1
        self.busy_until = 0

    def set_exclusive(self, owner: int) -> None:
        """Move the entry to EXCLUSIVE with the given owner."""
        self.state = DIR_EXCLUSIVE
        self.owner = owner
        self.sharers.clear()

    def set_shared(self, sharers: Set[int]) -> None:
        """Move the entry to SHARED with the given sharer set."""
        self.state = DIR_SHARED
        self.owner = -1
        self.sharers = set(sharers)

    def set_uncached(self) -> None:
        """Clear the entry back to UNCACHED."""
        self.state = DIR_UNCACHED
        self.owner = -1
        self.sharers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DirEntry({_STATE_NAMES[self.state]}, owner={self.owner}, "
                f"sharers={sorted(self.sharers)})")


class Directory:
    """Lazily-populated map of line address -> :class:`DirEntry`.

    ``_pending`` holds the columns of a restored image that no read has
    needed yet (``None`` otherwise); while it is set ``_entries`` is
    empty, so every lookup misses and the miss branch builds the rows.
    """

    __slots__ = ("node", "_entries", "_pending", "tracer")

    def __init__(self, node: int) -> None:
        self.node = node
        self._entries: Dict[int, DirEntry] = {}
        self._pending: Optional[Dict] = None
        #: Trace sink for ``coh.*`` events (``NULL_TRACER`` when off).
        self.tracer = NULL_TRACER

    def entry(self, line_addr: int) -> DirEntry:
        """Get (or lazily create) the line's directory entry."""
        entry = self._entries.get(line_addr)
        if entry is None:
            if self._pending is not None:
                self._all_entries()
                return self.entry(line_addr)
            entry = DirEntry()
            self._entries[line_addr] = entry
        return entry

    def peek(self, line_addr: int) -> Optional[DirEntry]:
        """Look up without creating or disturbing state."""
        entry = self._entries.get(line_addr)
        if entry is None and self._pending is not None:
            return self._all_entries().get(line_addr)
        return entry

    def entries(self) -> Iterator[Tuple[int, DirEntry]]:
        """Iterate over (line address, entry) pairs."""
        return iter(self._all_entries().items())

    def trace_transition(self, line_addr: int, entry: DirEntry,
                         at: int) -> None:
        """Emit the ``coh.transition`` event for a just-changed entry.

        Called by the protocol engine after a stable-state change, with
        ``at`` the simulated time the transition took effect.  Fields:
        the home node, line address, new state (``U``/``S``/``E``),
        owner (-1 unless EXCLUSIVE), and sharer count.
        """
        self.tracer.emit(at, "coh", "coh.transition", node=self.node,
                         line=line_addr, state=_STATE_NAMES[entry.state],
                         owner=entry.owner, sharers=len(entry.sharers))

    def clear_all(self, at: int = 0) -> None:
        """Reset every entry (recovery invalidates directory state).

        Emits ``coh.clear`` with the number of entries dropped when
        tracing is enabled.
        """
        if self.tracer.enabled:
            pending = (len(self._pending["addrs"])
                       if self._pending is not None else 0)
            self.tracer.emit(at, "coh", "coh.clear", node=self.node,
                             entries=len(self._entries) + pending)
        self._entries.clear()
        self._pending = None

    def snapshot(self) -> Dict:
        """Plain-data state: the entries as columns, in insertion order.

        ``addrs``, ``states``, ``owners`` (-1 for none) and
        ``busy_until`` are typed columns; ``sharers`` is a plain list of
        sharer bitmasks (bit *n* set for node *n*).  Insertion order is
        preserved so lazily-created entries reappear in the same order
        after a restore (dict iteration order is observable through
        :meth:`entries`).
        """
        entries = self._all_entries()
        rows = entries.values()
        return {"addrs": int_column(entries.keys()),
                "states": int_column([e.state for e in rows]),
                "owners": int_column([e.owner for e in rows]),
                "busy_until": int_column([e.busy_until for e in rows]),
                "sharers": [_sharer_mask(e.sharers) for e in rows]}

    def digest_state(self) -> Dict:
        """Determinism-observatory hook (obs/digest.py): one
        ``[addr, state, sorted(sharers), owner, busy_until]`` row per
        entry in insertion order — the form every recorded digest
        chain hashed."""
        return {"entries": [[addr, e.state, sorted(e.sharers), e.owner,
                             e.busy_until]
                            for addr, e in self._all_entries().items()]}

    def restore(self, state: Dict) -> None:
        """Reinstate a :meth:`snapshot`, deferred until first use.

        The image's columns are kept, not copied: they are only ever
        read (by :meth:`_all_entries`), never mutated or handed out, so
        the image stays read-only (docs/SNAPSHOTS.md).
        """
        self._entries.clear()
        self._pending = state if len(state["addrs"]) else None

    def _all_entries(self) -> Dict[int, DirEntry]:
        """The entry map, with any pending image rows built into it
        first, in image order."""
        columns, self._pending = self._pending, None
        if columns is not None:
            entries = self._entries
            for addr, dir_state, mask, owner, busy_until in zip(
                    columns["addrs"], columns["states"], columns["sharers"],
                    columns["owners"], columns["busy_until"]):
                entry = DirEntry()
                entry.state = dir_state
                if mask:
                    entry.sharers = _mask_sharers(mask)
                entry.owner = owner
                entry.busy_until = busy_until
                entries[addr] = entry
        return self._entries

    def __len__(self) -> int:
        return len(self._all_entries())
