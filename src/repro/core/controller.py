"""The ReVive directory-controller extension (Sections 3.2.1, 3.2.2, 4.1).

The coherence protocol calls two hooks:

* :meth:`on_store_intent` — a read-exclusive or upgrade reached the home
  (Figure 5(a)).  If the line's Logged bit is clear, its pre-image is
  copied from memory to the log and the log's parity updated, all in
  the background; the data reply is never delayed.  The line stays busy
  in the directory until the log-parity acknowledgment arrives.
* :meth:`on_memory_write` — a write-back (or sharing write-back / flush)
  is about to update main memory.  If the line is already logged, only
  the data parity needs maintenance (Figure 4) and the write-back can
  be acknowledged as soon as the data is written.  Otherwise the log
  entry and its parity must be fully committed *before* the data write
  (Figure 5(b), the Log-Data Update Race of Section 4.2), so the
  acknowledgment is delayed.

Ordering guarantees implemented exactly as Section 4.2 requires:
log-entry line before marker word (Atomic Log Update), log + log parity
before data (Log-Data Update), data then data parity (Data-Parity Update
— safe because the log already holds the pre-image).

Table 1 accounting: each event class maintains counters of its *extra*
memory accesses, extra lines touched, and extra network messages, with
the paper's definitions (the data reply's memory read and the data
write itself are not extra).  Metadata-line writes are write-combined
in a controller buffer and flushed once per eight entries; their costs
are charged to separate ``revive.metaflush.*`` counters so the
per-event numbers remain comparable with the paper's table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.core.log import ENTRIES_PER_BLOCK, ENTRY_BYTES, MemoryLog
from repro.core.parity import ParityEngine
from repro.sim.stats import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.system import Machine

#: Table 1 event classes.
EVENT_WB_LOGGED = "wb_logged"        # Figure 4
EVENT_RDX_UNLOGGED = "rdx_unlogged"  # Figure 5(a)
EVENT_WB_UNLOGGED = "wb_unlogged"    # Figure 5(b)

#: The four counters of each event class, in creation order.
_EVENT_FIELDS = ("events", "extra_accesses", "extra_lines",
                 "extra_messages")


class ReViveController:
    """Per-machine ReVive logic; owns one :class:`MemoryLog` per node."""

    def __init__(self, machine: "Machine", parity: ParityEngine,
                 logs: Dict[int, MemoryLog]) -> None:
        self.machine = machine
        self.config = machine.config
        self.stats = machine.stats
        self.parity = parity
        self.logs = logs
        # Entries accumulated since the last metadata-buffer flush.
        self._meta_pending: Dict[int, int] = {n: 0 for n in logs}
        # Live bytes over ``logs``, kept current wherever a log's head
        # or tail moves (append, reclaim, rollback, restore).
        self._log_bytes = self._sum_log_bytes()
        # Each event class's four counters, bound on its first event so
        # a class that never fires registers none.
        self._event_counters: Dict[str, Tuple[Counter, ...]] = {}
        self._memory_traffic = self.stats.memory_traffic.bytes_by_category

    # -- event accounting ----------------------------------------------------

    def _count_event(self, event: str, accesses: int, lines: int,
                     messages: int) -> None:
        counters = self._event_counters.get(event)
        if counters is None:
            counters = self._event_counters[event] = tuple(
                self.stats.counter(f"revive.{event}.{field}")
                for field in _EVENT_FIELDS)
        events, extra_accesses, extra_lines, extra_messages = counters
        events.value += 1
        extra_accesses.value += accesses
        extra_lines.value += lines
        extra_messages.value += messages

    # -- protocol hooks -------------------------------------------------------

    def on_store_intent(self, home_id: int, line_addr: int, at: int) -> int:
        """Figure 5(a): log the pre-image on read-exclusive / upgrade.

        Returns the time until which the directory entry stays busy.
        The caller supplies the data reply; this hook only performs the
        background log copy and log-parity update.
        """
        log = self.logs[home_id]
        if log.is_logged(line_addr):
            return at
        home = self.machine.nodes[home_id]
        old_value = home.memory.read_line(line_addr)
        busy = self._append_log_entry(home_id, line_addr, old_value, at)
        # Extra work: 1 access to copy data to log (+1 line), then 3
        # accesses / 1 line / 2 messages for the log parity (Table 1).
        self._count_event(EVENT_RDX_UNLOGGED, accesses=4, lines=2,
                          messages=2)
        return busy

    def on_memory_write(self, home_id: int, line_addr: int, new_value: int,
                        at: int, category: str,
                        span=None) -> Tuple[int, int]:
        """Write ``line_addr`` in home memory through the ReVive path.

        Returns ``(ack_time, busy_until)``: when the write-back may be
        acknowledged, and how long the directory entry must stay busy
        (until the last parity acknowledgment).  ``span``, when given,
        receives the segments on the acknowledgment's critical path;
        parity work past the ack time is background and uncharged.
        """
        home = self.machine.nodes[home_id]
        log = self.logs[home_id]
        old_value = home.memory.read_line(line_addr)

        mirrored = self.parity.geom.entry(line_addr)[3]
        if log.is_logged(line_addr):
            # Figure 4: data parity maintenance only.
            t = at
            extra_accesses = 0
            if not mirrored:
                # Read the old data content to form U = D xor D'.
                t = home.mem_timing.access(t)
                self._memory_traffic["PAR"] += self.config.line_size
                extra_accesses += 1
                if span is not None:
                    span.seg("mem_read", t)
            write_done = home.mem_timing.access(t)
            self._memory_traffic[category] += self.config.line_size
            home.memory.write_line(line_addr, new_value)
            self.parity.apply_update(line_addr, old_value, new_value)
            parity_ack = self.parity.time_update(line_addr, write_done)
            extra_accesses += 1 if mirrored else 2
            self._count_event(EVENT_WB_LOGGED, accesses=extra_accesses,
                              lines=1, messages=2)
            if span is not None:
                span.seg("mem_write", write_done)
            return write_done, parity_ack

        # Figure 5(b): log first, then data; the ack is delayed until
        # the log entry and its parity are safely stored.
        read_done = home.mem_timing.access(at)
        self._memory_traffic["PAR"] += self.config.line_size
        if span is not None:
            span.seg("mem_read", read_done)
        log_done = self._append_log_entry(home_id, line_addr, old_value,
                                          read_done, span=span)
        write_done = home.mem_timing.access(log_done)
        self._memory_traffic[category] += self.config.line_size
        home.memory.write_line(line_addr, new_value)
        self.parity.apply_update(line_addr, old_value, new_value)
        parity_start = write_done
        if not mirrored:
            # The controller has no data cache (Section 3.2.2), so the
            # old data content is re-read to form the parity update.
            parity_start = home.mem_timing.access(write_done, row_hit=True)
            self._memory_traffic["PAR"] += self.config.line_size
        data_parity_ack = self.parity.time_update(line_addr, parity_start)
        # Copy-to-log: 2 accesses / 1 line; log parity: 3 / 1 / 2;
        # data parity: 3 / 1 / 2 (Table 1; mirroring drops the reads).
        if mirrored:
            self._count_event(EVENT_WB_UNLOGGED, accesses=5, lines=3,
                              messages=4)
        else:
            self._count_event(EVENT_WB_UNLOGGED, accesses=8, lines=3,
                              messages=4)
        if span is not None:
            span.seg("mem_write", write_done)
        return write_done, data_parity_ack

    # -- checkpoint support ---------------------------------------------------

    def append_commit_record(self, node_id: int, at: int) -> int:
        """Durably mark a checkpoint commit in the node's log.

        Called between the two barriers of the two-phase commit; the
        record travels the same log + parity path as data entries.
        Returns the completion time.
        """
        return self._append_log_entry(node_id, line_addr=0, old_value=0,
                                      at=at, is_commit=True)

    def on_checkpoint_committed(self, at: int = 0) -> None:
        """Gang-clear every L bit and reclaim stale log epochs.

        ``at`` is the checkpoint's commit time; it stamps the
        ``log.reclaim`` trace events the reclamation emits.
        """
        keep = self.machine.revive_config.keep_checkpoints
        for log in self.logs.values():
            log.gang_clear_logged()
            log.reclaim(log.current_epoch - (keep - 1), at=at)
        self._log_bytes = self._sum_log_bytes()

    def reset_logs_to_epoch(self, target_epoch: int) -> None:
        """After rollback, resume every node's log at ``target_epoch``."""
        for log in self.logs.values():
            log.reset_to_epoch(target_epoch)
        self._log_bytes = self._sum_log_bytes()

    def max_log_bytes(self) -> int:
        """Largest per-run log footprint seen on any sample."""
        return max(log.max_bytes_used for log in self.logs.values())

    def total_log_bytes(self) -> int:
        """Current live log bytes summed over all nodes."""
        return self._log_bytes

    def _sum_log_bytes(self) -> int:
        return sum(log.bytes_used for log in self.logs.values())

    # -- internals ------------------------------------------------------------

    def append_record_to(self, log: MemoryLog, home_id: int,
                         addr_field: int, value: int, at: int) -> int:
        """Append a record to an arbitrary parity-protected record store.

        Same marker-protected, parity-maintained path as the ReVive
        log; used by the I/O output-commit buffers (``core.io``).
        """
        return self._append_log_entry(home_id, addr_field, value, at,
                                      log=log)

    def _append_log_entry(self, home_id: int, line_addr: int, old_value: int,
                          at: int, is_commit: bool = False,
                          log: MemoryLog = None, span=None) -> int:
        """Write one log record (entry line, then marker) with parity.

        Returns the time the log-parity acknowledgment arrives, i.e.
        when the record is fully safe.  ``span``, when given, receives
        the log and parity segments; the two overlapping acknowledgment
        paths (entry parity vs. metadata flush) fold into the span's
        monotone cursor, so the segment sum still lands exactly on the
        returned time.
        """
        home = self.machine.nodes[home_id]
        own_log = log is None
        if own_log:
            log = self.logs[home_id]
        writes = log.make_writes(line_addr, old_value,
                                 home.memory.read_line, is_commit=is_commit)
        entry_line = writes[0][0]

        # Old content of the entry line (stale data from a reclaimed
        # wrap) is needed to form the log-parity update.
        t = home.mem_timing.access(at, row_hit=True)
        self._memory_traffic["PAR"] += self.config.line_size

        # Functional writes, in marker-last order, with exact parity.
        for mem_line, new_content in writes:
            previous = home.memory.read_line(mem_line)
            home.memory.write_line(mem_line, new_content)
            self.parity.apply_update(mem_line, previous, new_content)

        # Timed path: entry-line write + its parity round trip.
        t = home.mem_timing.access(t, row_hit=True)
        self._memory_traffic["LOG"] += self.config.line_size
        if span is not None:
            span.seg("log", t)
        ack = self.parity.time_update(entry_line, t, sequential=True)
        if span is not None:
            span.seg("parity", ack)

        log.commit_append(line_addr, is_commit=is_commit, at=t)
        if own_log:
            self._log_bytes += ENTRY_BYTES
        ack = max(ack, self._maybe_flush_metadata(home_id, t, log,
                                                  span=span))
        self.stats.sample_log_size(at, self._log_bytes)
        self._check_log_pressure(log)
        return ack

    def snapshot(self) -> dict:
        """Plain-data state: per-node logs + metadata write-combine fill."""
        return {"logs": {n: log.snapshot() for n, log in self.logs.items()},
                "meta_pending": dict(self._meta_pending)}

    def digest_state(self) -> dict:
        """Determinism-observatory hook (obs/digest.py).

        The controller's own fingerprint excludes the per-node logs,
        which ``machine/digest.py`` digests individually as
        ``node<i>.log`` components so a log divergence names its node.
        """
        return {"meta_pending": dict(self._meta_pending)}

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`snapshot` (docs/SNAPSHOTS.md)."""
        for n, log_state in state["logs"].items():
            self.logs[n].restore(log_state)
        self._meta_pending.update(state["meta_pending"])
        self._log_bytes = self._sum_log_bytes()

    def _check_log_pressure(self, log: MemoryLog) -> None:
        """Request an early checkpoint when a log nears capacity."""
        fraction = self.machine.revive_config.emergency_checkpoint_fraction
        if fraction is None or self.machine.checkpointing is None:
            return
        if log.slots_used >= fraction * log.capacity_slots:
            self.machine.request_early_checkpoint()

    def _maybe_flush_metadata(self, home_id: int, at: int,
                              log: MemoryLog, span=None) -> int:
        """Write-combine metadata words; flush once per full block."""
        self._meta_pending[home_id] += 1
        if self._meta_pending[home_id] < ENTRIES_PER_BLOCK:
            return at
        self._meta_pending[home_id] = 0
        home = self.machine.nodes[home_id]
        # Flush the metadata line of the block just completed.
        meta_line = log.meta_line_of(max(log.head - 1, 0))
        done = home.mem_timing.access(at, row_hit=True)
        self._memory_traffic["LOG"] += self.config.line_size
        self.stats.counter("revive.metaflush.events").add()
        meta_ack = self.parity.time_update(meta_line, done, sequential=True)
        if span is not None:
            # Charged only past the span's cursor: the flush runs in
            # parallel with the entry-line parity ack recorded by the
            # caller, and only the excess extends the critical path.
            span.seg("log", done)
            span.seg("parity", meta_ack)
        return meta_ack
