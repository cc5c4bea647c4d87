"""Coherence transactions as contention-aware resource walks.

Each transaction (read miss, write miss, upgrade, write-back,
replacement hint) computes its completion time by walking the involved
resources — requester NI, torus links, home directory controller, DRAM
banks, return path — honouring per-line ``busy_until`` serialisation.

ReVive plugs in through two hooks on the home side (see
``core.controller``):

* ``on_store_intent`` — read-exclusive / upgrade arrival (Figure 5(a)):
  may log the line's pre-image in the background and extend the line's
  busy time until the log parity is acknowledged; never delays the data
  reply.
* ``on_memory_write`` — any write of main memory (Figure 4 / 5(b)):
  performs logging if needed, the functional memory write, and the
  parity update; returns when the write-back may be acknowledged and how
  long the line stays busy.

With no ReVive controller installed (the baseline machine), memory
writes happen directly and no busy extension occurs.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.cache.cache import EXCLUSIVE, MODIFIED, SHARED
from repro.coherence.directory import (
    DIR_EXCLUSIVE,
    DIR_SHARED,
    DIR_UNCACHED,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.machine.system import Machine


class ProtocolEngine:
    """Executes directory transactions against a machine."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.config = machine.config
        self.network = machine.network
        self.stats = machine.stats
        self._line_bytes = machine.config.line_size

    # -- helpers -------------------------------------------------------------

    def _node(self, node_id: int):
        return self.machine.nodes[node_id]

    def _home_of(self, line_addr: int) -> int:
        return self.machine.geom_cache.home_node(line_addr)

    def _dir_accept(self, home, line_addr: int, at: int):
        """Wait for the line to be free and claim a controller slot.

        Returns ``(entry, service_done_time)``.
        """
        entry = home.directory.entry(line_addr)
        at = max(at, entry.busy_until)
        start = home.dir_resource.acquire(at)
        return entry, start + self.config.dir_latency_ns

    def _mem_read(self, home, line_addr: int, at: int, category: str,
                  row_hit: bool = False) -> int:
        done = home.mem_timing.access(at, row_hit=row_hit)
        self.stats.memory_traffic.add(category, self._line_bytes)
        return done

    def _mem_write(self, home, line_addr: int, value: int, at: int,
                   category: str, row_hit: bool = False) -> int:
        done = home.mem_timing.access(at, row_hit=row_hit)
        home.memory.write_line(line_addr, value)
        self.stats.memory_traffic.add(category, self._line_bytes)
        return done

    # -- read miss (GETS) -----------------------------------------------------

    def read(self, requester: int, line_addr: int, at: int) -> int:
        """Service a read miss; returns the data arrival time.

        The line is installed in the requester's cache (EXCLUSIVE when it
        was uncached, SHARED otherwise); dirty victims of the fill are
        written back asynchronously.
        """
        self.stats.counter("txn.read_miss").add()
        home_id = self._home_of(line_addr)
        home = self._node(home_id)
        spans = self.machine.spans
        sp = (spans.begin("read_miss", requester, at, line=line_addr)
              if spans.enabled else None)
        t = self.network.send_control(requester, home_id, at, "RD/RDX")
        if sp is not None:
            sp.seg("net", t)
        entry, t = self._dir_accept(home, line_addr, at=t)
        if sp is not None:
            # From arrival to directory service completion — including
            # waiting out a busy line and controller queueing, i.e. the
            # "directory occupancy" the attribution report surfaces.
            sp.seg("dir", t)

        if entry.state == DIR_EXCLUSIVE and entry.owner != requester:
            done = self._read_from_owner(requester, home_id, entry, line_addr,
                                         t, span=sp)
            fill_state = SHARED
        else:
            mem_done = self._mem_read(home, line_addr, t, "RD/RDX")
            done = self.network.send_line(home_id, requester, mem_done,
                                          "RD/RDX")
            if sp is not None:
                sp.seg("mem_read", mem_done)
                sp.seg("net", done)
            if entry.state == DIR_UNCACHED:
                entry.set_exclusive(requester)
                fill_state = EXCLUSIVE
            else:
                entry.sharers.add(requester)
                entry.state = DIR_SHARED
                fill_state = SHARED
            entry.busy_until = max(entry.busy_until, mem_done)
            if home.directory.tracer.enabled:
                home.directory.trace_transition(line_addr, entry, done)

        if sp is not None:
            sp.end(done)
        self._fill(requester, line_addr, fill_state, value=0, at=done)
        return done

    def _read_from_owner(self, requester: int, home_id: int, entry,
                         line_addr: int, t: int, span=None) -> int:
        """3-hop read: forward to the exclusive owner, who supplies data."""
        owner_id = entry.owner
        owner = self._node(owner_id)
        t_owner = self.network.send_control(home_id, owner_id, t, "RD/RDX")
        if span is not None:
            span.seg("net", t_owner)
        t_owner += self.config.l2_hit_ns
        if span is not None:
            # The owner's L2 lookup supplies the data: memory time.
            span.seg("mem_read", t_owner)
        dirty_value = owner.hierarchy.downgrade(line_addr)
        if dirty_value is not None:
            # Owner sends the dirty line to the requester and a sharing
            # write-back to home memory (which triggers ReVive actions).
            # The write-back is off the requester's critical path, so it
            # is deliberately not handed the span.
            done = self.network.send_line(owner_id, requester, t_owner,
                                          "RD/RDX")
            wb_arrival = self.network.send_line(owner_id, home_id, t_owner,
                                                "ExeWB")
            home = self._node(home_id)
            _ack, busy = self._commit_memory_write(
                home, line_addr, dirty_value, wb_arrival, "ExeWB")
            entry.busy_until = max(entry.busy_until, busy)
        else:
            # Owner held the line clean: memory is current; home replies.
            ack = self.network.send_control(owner_id, home_id, t_owner,
                                            "RD/RDX")
            home = self._node(home_id)
            mem_done = self._mem_read(home, line_addr, ack, "RD/RDX")
            done = self.network.send_line(home_id, requester, mem_done,
                                          "RD/RDX")
            if span is not None:
                span.seg("net", ack)
                span.seg("mem_read", mem_done)
            entry.busy_until = max(entry.busy_until, mem_done)
        if span is not None:
            span.seg("net", done)
        entry.set_shared({owner_id, requester})
        home = self._node(home_id)
        if home.directory.tracer.enabled:
            home.directory.trace_transition(line_addr, entry, done)
        return done

    # -- write miss (GETX) and upgrade ----------------------------------------

    def write(self, requester: int, line_addr: int, at: int,
              upgrade: bool) -> int:
        """Service a write miss (GETX) or an upgrade (UPG).

        Returns the time at which the requester holds the line MODIFIED
        with all invalidations acknowledged.
        """
        self.stats.counter(
            "txn.upgrade" if upgrade else "txn.write_miss").add()
        home_id = self._home_of(line_addr)
        home = self._node(home_id)
        spans = self.machine.spans
        sp = (spans.begin("upgrade" if upgrade else "write_miss", requester,
                          at, line=line_addr)
              if spans.enabled else None)
        t = self.network.send_control(requester, home_id, at, "RD/RDX")
        if sp is not None:
            sp.seg("net", t)
        entry, t = self._dir_accept(home, line_addr, at=t)
        if sp is not None:
            sp.seg("dir", t)

        # ReVive Figure 5(a): a store intent logs the line's checkpoint
        # value in the background; the reply is never delayed — so none
        # of its log/parity time is charged to this span.
        if self.machine.revive is not None:
            busy = self.machine.revive.on_store_intent(home_id, line_addr, t)
            entry.busy_until = max(entry.busy_until, busy)

        inv_done = self._invalidate_sharers(requester, home_id, entry,
                                            line_addr, t)

        transferred: Optional[int] = None
        if entry.state == DIR_EXCLUSIVE and entry.owner != requester:
            transferred, done = self._transfer_ownership(
                requester, home_id, entry, line_addr, t, span=sp)
        elif upgrade:
            done = self.network.send_control(home_id, requester, t, "RD/RDX")
            if sp is not None:
                sp.seg("net", done)
        else:
            mem_done = self._mem_read(home, line_addr, t, "RD/RDX")
            transferred = home.memory.read_line(line_addr)
            done = self.network.send_line(home_id, requester, mem_done,
                                          "RD/RDX")
            if sp is not None:
                sp.seg("mem_read", mem_done)
                sp.seg("net", done)
            entry.busy_until = max(entry.busy_until, mem_done)

        done = max(done, inv_done)
        if sp is not None:
            # Any residual wait for the last invalidation ack travels
            # the network, so it is attributed there.
            sp.seg("net", done)
            sp.end(done)
        entry.set_exclusive(requester)
        if home.directory.tracer.enabled:
            home.directory.trace_transition(line_addr, entry, done)
        if upgrade:
            self._promote(requester, line_addr)
        else:
            self._fill(requester, line_addr, MODIFIED,
                       value=transferred if transferred is not None else 0,
                       at=done)
        return done

    def _invalidate_sharers(self, requester: int, home_id: int, entry,
                            line_addr: int, t: int) -> int:
        """Invalidate all other sharers; returns when acks reach requester."""
        if entry.state != DIR_SHARED:
            return t
        inv_done = t
        spans = self.machine.spans
        for sharer in sorted(entry.sharers):
            if sharer == requester:
                continue
            # Each invalidated sharer gets its own span (node = the
            # sharer), mirroring the per-sharer ``txn.invalidation``
            # counter bit-for-bit.
            isp = (spans.begin("invalidation", sharer, t, line=line_addr)
                   if spans.enabled else None)
            arrive = self.network.send_control(home_id, sharer, t, "RD/RDX")
            self._node(sharer).hierarchy.invalidate(line_addr)
            ack = self.network.send_control(sharer, requester, arrive,
                                            "RD/RDX")
            if isp is not None:
                isp.seg("net", ack)
                isp.end(ack)
            inv_done = max(inv_done, ack)
            self.stats.counter("txn.invalidation").add()
        return inv_done

    def _transfer_ownership(self, requester: int, home_id: int, entry,
                            line_addr: int, t: int, span=None):
        """GETX hitting an exclusive remote owner: dirty transfer.

        The dirty value moves cache-to-cache; main memory is *not*
        updated (its checkpoint content is preserved for the log, which
        the store-intent hook reads directly from memory).
        """
        owner_id = entry.owner
        owner = self._node(owner_id)
        arrive = self.network.send_control(home_id, owner_id, t, "RD/RDX")
        if span is not None:
            span.seg("net", arrive)
        arrive += self.config.l2_hit_ns
        if span is not None:
            span.seg("mem_read", arrive)
        dirty_value = owner.hierarchy.invalidate(line_addr)
        if dirty_value is None:
            # Clean exclusive owner: home supplies data from memory.
            ack = self.network.send_control(owner_id, home_id, arrive,
                                            "RD/RDX")
            home = self._node(home_id)
            mem_done = self._mem_read(home, line_addr, ack, "RD/RDX")
            value = home.memory.read_line(line_addr)
            done = self.network.send_line(home_id, requester, mem_done,
                                          "RD/RDX")
            if span is not None:
                span.seg("net", ack)
                span.seg("mem_read", mem_done)
                span.seg("net", done)
            entry.busy_until = max(entry.busy_until, mem_done)
            return value, done
        done = self.network.send_line(owner_id, requester, arrive, "RD/RDX")
        if span is not None:
            span.seg("net", done)
        return dirty_value, done

    # -- write-backs ----------------------------------------------------------

    def writeback(self, src: int, line_addr: int, value: Optional[int],
                  at: int, category: str = "ExeWB",
                  retain_clean: bool = False) -> int:
        """Write a dirty line back to its home memory.

        ``value is None`` denotes a replacement *hint* for a clean
        EXCLUSIVE victim: the directory drops ownership, memory is not
        written.  ``retain_clean`` is used by the checkpoint flush, where
        the line stays in the cache (clean) and the directory keeps the
        owner.  Returns the time the write-back is acknowledged.
        """
        home_id = self._home_of(line_addr)
        home = self._node(home_id)
        if value is None:
            # Replacement hints move no data and get no span (they are
            # counted separately as ``txn.hint``).
            self.stats.counter("txn.hint").add()
            t = self.network.send_control(src, home_id, at, "ExeWB")
            entry, t = self._dir_accept(home, line_addr, at=t)
            if entry.state == DIR_EXCLUSIVE and entry.owner == src:
                entry.set_uncached()
                if home.directory.tracer.enabled:
                    home.directory.trace_transition(line_addr, entry, t)
            return t

        self.stats.counter("txn.writeback").add()
        spans = self.machine.spans
        sp = (spans.begin("writeback", src, at, line=line_addr,
                          category=category)
              if spans.enabled else None)
        t = self.network.send_line(src, home_id, at, category)
        if sp is not None:
            sp.seg("net", t)
        entry, t = self._dir_accept(home, line_addr, at=t)
        if sp is not None:
            sp.seg("dir", t)
        ack_time, busy = self._commit_memory_write(home, line_addr, value, t,
                                                   category, span=sp)
        if sp is not None:
            sp.end(ack_time)
        entry.busy_until = max(entry.busy_until, busy)
        if (not retain_clean and entry.state == DIR_EXCLUSIVE
                and entry.owner == src):
            entry.set_uncached()
            if home.directory.tracer.enabled:
                home.directory.trace_transition(line_addr, entry, ack_time)
        return ack_time

    def _commit_memory_write(self, home, line_addr: int, value: int, at: int,
                             category: str, span=None):
        """Route a memory write through ReVive (or directly, baseline).

        Returns ``(ack_time, line_busy_until)``.  ``span``, when given,
        receives the log/parity/memory segments of the critical path up
        to the acknowledgment time.
        """
        if self.machine.revive is not None:
            return self.machine.revive.on_memory_write(
                home.node_id, line_addr, value, at, category, span=span)
        done = self._mem_write(home, line_addr, value, at, category)
        if span is not None:
            span.seg("mem_write", done)
        return done, done

    # -- cache install helpers ------------------------------------------------

    def _fill(self, requester: int, line_addr: int, state: int, value: int,
              at: int) -> None:
        node = self._node(requester)
        for victim_addr, victim_value in node.hierarchy.fill(
                line_addr, state, value):
            self.writeback(requester, victim_addr, victim_value, at)

    def _promote(self, requester: int, line_addr: int) -> None:
        line = self._node(requester).hierarchy.l2.peek(line_addr)
        if line is None:
            raise RuntimeError(
                f"upgrade for line {line_addr:#x} not present in cache")
        line.state = MODIFIED
