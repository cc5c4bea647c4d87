"""The ReVive memory log (Section 3.2.2).

Each node owns a log region carved out of its own parity-protected main
memory.  The region is a circular buffer of *blocks*; a block is nine
memory lines: eight entry lines, each holding the 64-byte pre-image of
one data line, plus one metadata line holding eight packed 64-bit words
— one per entry — encoding the entry's data-line address, its epoch, a
16-bit sequence number, and the validity *Marker* of Section 4.2.

The marker protocol is preserved exactly: an append writes the entry
line first and the metadata word (with the valid bit) strictly after,
so a fault between the two leaves an invalid — and therefore ignored —
entry.  Checkpoint commits append a *commit record* (a reserved address
pattern) through the same path, making the two-phase commit durable in
parity-protected storage: recovery can determine the last fully
committed checkpoint from memory contents alone, even for a lost node
whose log was rebuilt by XOR.

Metadata word layout (bit 0 is the LSB)::

    bit  0      valid marker
    bits 1-7    epoch mod 128
    bits 8-23   sequence number mod 65536 (insertion order, wrap-safe)
    bits 24-63  line address >> 6 (40 bits)

Observability: a log carries a ``tracer`` (``NULL_TRACER`` by default,
installed by ``Machine``); :meth:`MemoryLog.commit_append` emits the
``log.append`` event for every record that lands (data and commit
records alike) and :meth:`MemoryLog.reclaim` emits ``log.reclaim``
when checkpoint commit frees slots.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.tracer import NULL_TRACER

ENTRIES_PER_BLOCK = 8
LINES_PER_BLOCK = ENTRIES_PER_BLOCK + 1
#: Accounting size of one entry: a 64-byte line plus its 1/8 share of
#: the metadata line (Figure 11 reports log bytes).
ENTRY_BYTES = 72

_SEQ_MOD = 1 << 16
_EPOCH_MOD = 1 << 7
_ADDR_BITS = 40
#: Address-field pattern marking a checkpoint commit record.
_COMMIT_PATTERN = (1 << _ADDR_BITS) - 1
_WORD_MASK = (1 << 64) - 1
_META_BYTES = 8 * ENTRIES_PER_BLOCK
_META_MASK = (1 << (8 * _META_BYTES)) - 1


class LogOverflowError(RuntimeError):
    """The log region filled up before a checkpoint reclaimed space."""


@dataclass(frozen=True)
class LogEntry:
    """One decoded log record."""

    __slots__ = ("addr", "epoch", "seq", "value", "is_commit")

    addr: int          # line-aligned physical address (commit records: -1)
    epoch: int         # epoch mod 128 as stored; resolved epoch if known
    seq: int           # sequence number mod 65536
    value: int         # the logged pre-image (commit records: epoch echo)
    is_commit: bool

    @property
    def is_data(self) -> bool:
        """True for data records (False for commit records)."""
        return not self.is_commit


def _pack_word(addr_line: int, epoch: int, seq: int, valid: bool) -> int:
    return ((addr_line & (_COMMIT_PATTERN)) << 24) \
        | ((seq % _SEQ_MOD) << 8) \
        | ((epoch % _EPOCH_MOD) << 1) \
        | (1 if valid else 0)


def _unpack_word(word: int) -> Tuple[int, int, int, bool]:
    valid = bool(word & 1)
    epoch = (word >> 1) & (_EPOCH_MOD - 1)
    seq = (word >> 8) & (_SEQ_MOD - 1)
    addr_line = (word >> 24) & _COMMIT_PATTERN
    return addr_line, epoch, seq, valid


def unwrap_sequence(seqs: Iterable[int]) -> Dict[int, int]:
    """Map wrapped 16-bit sequence numbers to a totally ordered rebase.

    Valid as long as fewer than 2^15 slots are live at once, which the
    region-size validation guarantees.  The per-value reference for
    :func:`_rebase_sequences`, the column form recovery uses.
    """
    seqs = list(seqs)
    if not seqs:
        return {}
    lo, hi = min(seqs), max(seqs)
    if hi - lo <= _SEQ_MOD // 2:
        return {s: s for s in seqs}
    # The live window straddles the wrap point: small values are newer.
    return {s: s + _SEQ_MOD if s < _SEQ_MOD // 2 else s for s in seqs}


def _rebase_sequences(seqs: np.ndarray) -> np.ndarray:
    """:func:`unwrap_sequence` over a column: the rebased sequence
    numbers as int64, in input order."""
    seqs = seqs.astype(np.int64)
    if len(seqs) and int(seqs.max()) - int(seqs.min()) > _SEQ_MOD // 2:
        seqs[seqs < _SEQ_MOD // 2] += _SEQ_MOD
    return seqs


class MemoryLog:
    """Per-node ReVive log living in the node's own memory region."""

    def __init__(self, node: int, region_lines: Sequence[int],
                 line_size: int, l_bit_capacity: Optional[int] = None) -> None:
        """``l_bit_capacity`` models Section 4.1.2's cheap variant: L
        bits live only in a directory cache of that many entries, so a
        displaced line is occasionally re-logged.  ``0`` disables L bits
        entirely (every write-back logs); ``None`` is the full per-line
        bit."""
        if len(region_lines) < LINES_PER_BLOCK:
            raise ValueError("log region smaller than one block")
        if l_bit_capacity is not None and l_bit_capacity < 0:
            raise ValueError("l_bit_capacity must be >= 0 or None")
        self.node = node
        self.line_size = line_size
        self.region_lines: List[int] = list(region_lines)
        self.n_blocks = len(self.region_lines) // LINES_PER_BLOCK
        self.capacity_slots = self.n_blocks * ENTRIES_PER_BLOCK
        if self.capacity_slots >= _SEQ_MOD // 2:
            raise ValueError(
                "log region too large for 16-bit sequence disambiguation")
        self.head = 0                    # total slots ever appended
        self.tail = 0                    # oldest retained slot
        self.current_epoch = 0
        self.epoch_start: Dict[int, int] = {0: 0}
        self.l_bit_capacity = l_bit_capacity
        # The L bits; a dict for LRU order under bounded capacity.
        self.logged_lines: Dict[int, None] = {}
        self.max_bytes_used = 0
        self.appends = 0
        #: Trace sink for ``log.*`` events (``NULL_TRACER`` when off).
        self.tracer = NULL_TRACER

    # -- geometry -----------------------------------------------------------

    def _slot_lines(self, slot: int) -> Tuple[int, int, int]:
        """(entry line addr, metadata line addr, index within block)."""
        ring_slot = slot % self.capacity_slots
        block, within = divmod(ring_slot, ENTRIES_PER_BLOCK)
        base = block * LINES_PER_BLOCK
        meta_line = self.region_lines[base]
        entry_line = self.region_lines[base + 1 + within]
        return entry_line, meta_line, within

    def meta_line_of(self, slot: int) -> int:
        """Address of the metadata line holding ``slot``'s marker word."""
        return self._slot_lines(slot)[1]

    # -- L bits --------------------------------------------------------------

    def is_logged(self, line_addr: int) -> bool:
        """Test the line's L bit.

        With a bounded capacity (the directory-cache variant of
        Section 4.1.2) a displaced bit reads as clear, so the line is
        re-logged — wasteful but correct, because recovery applies
        entries in reverse insertion order.
        """
        if self.l_bit_capacity == 0:
            return False
        return line_addr in self.logged_lines

    def set_logged(self, line_addr: int) -> None:
        """Set the line's L bit (subject to the capacity policy)."""
        if self.l_bit_capacity == 0:
            return
        self.logged_lines.pop(line_addr, None)
        self.logged_lines[line_addr] = None
        if self.l_bit_capacity is not None \
                and len(self.logged_lines) > self.l_bit_capacity:
            # Displace the least recently set bit (directory cache).
            del self.logged_lines[next(iter(self.logged_lines))]

    def gang_clear_logged(self) -> None:
        """Clear every L bit (done after each checkpoint commit)."""
        self.logged_lines.clear()

    # -- appends --------------------------------------------------------------

    def make_writes(self, line_addr: int, old_value: int,
                    read_line: Callable[[int], int],
                    is_commit: bool = False) -> List[Tuple[int, int]]:
        """Build the ordered (mem_line, new_content) writes for one append.

        ``read_line`` fetches current memory contents (needed to splice
        one 64-bit word into the metadata line).  The first write is the
        entry line, the second the metadata line carrying the valid
        marker — the order that makes a mid-append fault safe
        (Atomic Log Update Race, Section 4.2).

        Commit records skip the entry-line write: their metadata word is
        self-contained.
        """
        if self.head - self.tail >= self.capacity_slots:
            raise LogOverflowError(
                f"node {self.node} log full "
                f"({self.capacity_slots} slots); checkpoint more often or "
                f"grow log_bytes_per_node")
        slot = self.head
        entry_line, meta_line, within = self._slot_lines(slot)
        addr_field = _COMMIT_PATTERN if is_commit \
            else (line_addr >> 6) & _COMMIT_PATTERN
        word = _pack_word(addr_field, self.current_epoch, slot, valid=True)
        old_meta = read_line(meta_line)
        shift = 64 * within
        new_meta = (old_meta & ~(_WORD_MASK << shift)) | (word << shift)
        writes: List[Tuple[int, int]] = []
        if not is_commit:
            writes.append((entry_line, old_value))
        else:
            # A commit record's entry line stores the epoch number so
            # decoded logs can cross-check the metadata word.
            writes.append((entry_line, self.current_epoch))
        writes.append((meta_line, new_meta))
        return writes

    def commit_append(self, line_addr: int, is_commit: bool = False,
                      at: int = 0) -> None:
        """Advance the head after the writes of :meth:`make_writes` landed.

        ``at`` is the simulated time of the append, used only for the
        ``log.append`` trace event (node, slot, epoch, line address,
        commit flag, live bytes).
        """
        slot = self.head
        self.head += 1
        self.appends += 1
        if not is_commit:
            self.set_logged(line_addr)
        used = self.bytes_used
        if used > self.max_bytes_used:
            self.max_bytes_used = used
        if self.tracer.enabled:
            self.tracer.emit(at, "log", "log.append", node=self.node,
                             slot=slot, epoch=self.current_epoch,
                             line=(-1 if is_commit else line_addr),
                             commit=is_commit, bytes_used=used)

    # -- epochs ---------------------------------------------------------------

    def advance_epoch(self) -> int:
        """Start a new epoch after a checkpoint commit; returns its number."""
        self.current_epoch += 1
        self.epoch_start[self.current_epoch] = self.head
        return self.current_epoch

    def reclaim(self, oldest_epoch_to_keep: int, at: int = 0) -> int:
        """Free slots of epochs older than ``oldest_epoch_to_keep``.

        Returns the number of slots reclaimed.  Only bookkeeping — the
        memory lines are simply overwritten later (log space reclamation
        "only involves moving the log head pointer", Section 3.3.1).
        ``at`` (simulated ns) stamps the ``log.reclaim`` trace event.
        """
        new_tail = self.epoch_start.get(oldest_epoch_to_keep)
        if new_tail is None or new_tail <= self.tail:
            return 0
        reclaimed = new_tail - self.tail
        self.tail = new_tail
        if self.tracer.enabled:
            self.tracer.emit(at, "log", "log.reclaim", node=self.node,
                             slots=reclaimed,
                             oldest_epoch=oldest_epoch_to_keep,
                             bytes_used=self.bytes_used)
        for epoch in [e for e in self.epoch_start
                      if e < oldest_epoch_to_keep]:
            del self.epoch_start[epoch]
        return reclaimed

    # -- rollback support -----------------------------------------------------

    def scan_region(self, read_line: Callable[[int], int]) -> "RegionScan":
        """Read the region's metadata words once (see :class:`RegionScan`).

        The log's single decoder: every view of the region's records —
        :meth:`decode_region`, :meth:`find_commit_records`,
        :meth:`entries_to_undo`, and recovery's columnar
        :meth:`RegionScan.undo_window` — is a selection over one scan.
        """
        return RegionScan(self.region_lines, self.n_blocks, read_line)

    def entries_to_undo(self, target_epoch: int, upto_epoch: int,
                        read_line: Callable[[int], int],
                        decoded: Optional["RegionScan"] = None
                        ) -> List[LogEntry]:
        """Decode entries with epoch in [target, upto], newest first.

        Reads the log *from memory content alone*, not from Python-side
        bookkeeping — the same code path recovery uses on a node whose
        log region was just rebuilt from parity and whose controller
        state (head/tail pointers) went down with the node.  Records of
        reclaimed epochs may still carry valid markers; the epoch filter
        rejects them (this assumes fewer than 128 epochs elapse within
        one log wrap, which the 7-bit epoch field imposes — a real
        implementation would widen the field or scrub markers).

        ``decoded`` is this region's :meth:`scan_region` when the caller
        already has it (recovery scans each region once); ``read_line``
        is then not consulted.
        """
        if decoded is None:
            decoded = self.scan_region(read_line)
        return decoded.undo_entries(target_epoch, upto_epoch)

    def find_commit_records(self,
                            read_line: Callable[[int], int]) -> List[LogEntry]:
        """All decodable commit records (two-phase-commit evidence)."""
        return self.scan_region(read_line).commits()

    def decode_region(self,
                      read_line: Callable[[int], int]) -> List[LogEntry]:
        """Decode every valid record findable in the region's memory.

        One metadata-line read per block, an entry-line read only for a
        slot whose marker is valid.  Records come out in ring-position
        order.
        """
        return self.scan_region(read_line).records()

    def reset_to_epoch(self, target_epoch: int) -> None:
        """After rollback, drop undone entries and resume at the target."""
        start = self.epoch_start.get(target_epoch, self.tail)
        self.head = start
        self.current_epoch = target_epoch
        for epoch in [e for e in self.epoch_start if e > target_epoch]:
            del self.epoch_start[epoch]
        self.logged_lines.clear()

    # -- snapshot / restore (docs/SNAPSHOTS.md) -------------------------------

    def snapshot(self) -> dict:
        """Plain-data state: pointers, epochs, L bits (in LRU order)."""
        return {"head": self.head,
                "tail": self.tail,
                "current_epoch": self.current_epoch,
                "epoch_start": list(self.epoch_start.items()),
                "logged_lines": list(self.logged_lines),
                "max_bytes_used": self.max_bytes_used,
                "appends": self.appends}

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`snapshot` (geometry is reconstructed by
        the owning machine; only mutable state is carried)."""
        self.head = state["head"]
        self.tail = state["tail"]
        self.current_epoch = state["current_epoch"]
        self.epoch_start.clear()
        self.epoch_start.update(state["epoch_start"])
        self.logged_lines.clear()
        for line_addr in state["logged_lines"]:
            self.logged_lines[line_addr] = None
        self.max_bytes_used = state["max_bytes_used"]
        self.appends = state["appends"]

    # -- statistics -----------------------------------------------------------

    @property
    def bytes_used(self) -> int:
        """Live log bytes (slots retained x 72 B per entry)."""
        return (self.head - self.tail) * ENTRY_BYTES

    @property
    def slots_used(self) -> int:
        """Live entry slots between tail and head."""
        return self.head - self.tail


class RegionScan:
    """A log region's metadata words, read once, as per-slot columns.

    The scan reads each block's metadata line and unpacks its eight
    packed words in one NumPy pass; only the slots whose valid marker
    is set are kept, in ring-position order.  Entry lines are read — and
    :class:`LogEntry` objects built — only for the records a view asks
    for, so a caller that needs the undo window of a wrapped ring pays
    for that window, not for every stale record behind it.  ``len()``
    counts every valid marker without reading an entry line.

    Entry lines are read when a view is taken, through the
    ``read_line`` the scan was made with: the scan stays valid as long
    as nothing writes the region, which holds throughout recovery.
    """

    __slots__ = ("_region", "_read_line", "_positions", "_epochs",
                 "_seqs", "_addrs", "_commits")

    def __init__(self, region_lines: Sequence[int], n_blocks: int,
                 read_line: Callable[[int], int]) -> None:
        metas = b"".join(
            (read_line(region_lines[base]) & _META_MASK).to_bytes(
                _META_BYTES, "little")
            for base in range(0, n_blocks * LINES_PER_BLOCK,
                              LINES_PER_BLOCK))
        words = np.frombuffer(metas, dtype="<u8")
        positions = np.flatnonzero(words & 1)
        words = words[positions]
        self._region = region_lines
        self._read_line = read_line
        self._positions = positions
        self._epochs = (words >> 1) & (_EPOCH_MOD - 1)
        self._seqs = (words >> 8) & (_SEQ_MOD - 1)
        self._addrs = words >> 24
        self._commits = self._addrs == _COMMIT_PATTERN

    def __len__(self) -> int:
        return len(self._positions)

    def _values(self, picks: np.ndarray) -> List[int]:
        """Read the entry lines of the picked slots, in pick order."""
        region, read = self._region, self._read_line
        positions = self._positions[picks]
        lines = (positions // ENTRIES_PER_BLOCK * LINES_PER_BLOCK + 1
                 + positions % ENTRIES_PER_BLOCK)
        return [read(region[line]) for line in lines.tolist()]

    def _materialise(self, picks: np.ndarray) -> List[LogEntry]:
        """:class:`LogEntry` objects of the picked slots, in pick order."""
        return [LogEntry(addr=-1 if commit else addr << 6, epoch=epoch,
                         seq=seq, value=value, is_commit=commit)
                for epoch, seq, addr, commit, value in zip(
                    self._epochs[picks].tolist(),
                    self._seqs[picks].tolist(),
                    self._addrs[picks].tolist(),
                    self._commits[picks].tolist(),
                    self._values(picks))]

    def records(self) -> List[LogEntry]:
        """Every valid record, in ring-position order."""
        return self._materialise(np.arange(len(self._positions)))

    def commits(self) -> List[LogEntry]:
        """The commit records, in ring-position order."""
        return self._materialise(np.flatnonzero(self._commits))

    def _undo_picks(self, target_epoch: int,
                    upto_epoch: int) -> np.ndarray:
        """Slots of the data records with epoch in [target, upto],
        newest first (ties, which a valid log never has, keep ring
        order)."""
        keep = np.zeros(_EPOCH_MOD, dtype=bool)
        keep[[e % _EPOCH_MOD
              for e in range(target_epoch, upto_epoch + 1)]] = True
        picks = np.flatnonzero(keep[self._epochs] & ~self._commits)
        newest_first = np.argsort(-_rebase_sequences(self._seqs[picks]),
                                  kind="stable")
        return picks[newest_first]

    def undo_window(self, target_epoch: int, upto_epoch: int
                    ) -> Tuple[List[int], List[int]]:
        """The undo window as columns: ``(addrs, values)`` of the data
        records with epoch in [target, upto], newest first.

        Reads only the window's entry lines and builds no per-record
        object: recovery's rollback needs nothing else.
        """
        picks = self._undo_picks(target_epoch, upto_epoch)
        return (self._addrs[picks] << 6).tolist(), self._values(picks)

    def undo_entries(self, target_epoch: int,
                     upto_epoch: int) -> List[LogEntry]:
        """:meth:`undo_window` as :class:`LogEntry` objects (see
        :meth:`MemoryLog.entries_to_undo`)."""
        return self._materialise(self._undo_picks(target_epoch, upto_epoch))
