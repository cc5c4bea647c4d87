"""Processor model: a workload-driven memory-reference engine.

The paper's 6-issue dynamic superscalar core is abstracted into a
reference stream with inter-reference gaps (already scaled by IPC in
the workload generator).  Hits add the L1/L2 latency; misses block the
processor until the directory transaction completes — an in-order
approximation whose error is second-order for ReVive, because every
ReVive action is off the critical path by design (Table 1).

A processor is a simulator *actor*: each activation runs references
until the batch quantum expires (bounding the time skew between
processors, which is what keeps the busy-until contention model
honest) or until a miss/barrier yields a natural scheduling point.

Execution tiers (docs/PERFORMANCE.md): the per-reference pipeline is
the simulator's hottest code — every simulated memory reference passes
through it — so by default :meth:`Processor._run_batch` hands each
activation to the columnar batch engine (:mod:`repro.cpu.columnar`),
which retires whole runs of cache hits with vectorized column passes
and walks only miss/upgrade fallouts one reference at a time.  The
original layered loop is retained verbatim as
:meth:`Processor._run_batch_reference`, the engine's behavioural
oracle: the two are pinned bit-identical (times, counters, LRU order,
trace output) by ``tests/test_fastpath.py`` and
``tests/test_columnar.py``.  Setting a processor's ``columnar`` flag
to ``False`` selects the reference loop; only the oracle tests and
the perf harness do.

When a tracer with the ``mem`` category is installed, the columnar
engine additionally emits one ``mem.batch`` event per counter flush
(per-batch L1/L2 hit/miss and remote-home directory-transaction
counts — see docs/OBSERVABILITY.md).  The hook is resolved at
closure-bind time, so an untraced run pays nothing; the reference loop
does not emit ``mem`` events (it exists to pin timing/counter
behaviour, which the batch events do not affect).

The same bind-time pattern powers the host-time tier split
(docs/OBSERVABILITY.md): with a machine profiler installed, the
engine's directory-protocol fallout calls are wrapped with
``perf_counter`` timers into per-node fallout cells, quantifying the
docs/PERFORMANCE.md §1b ceiling.  The reference loop stays
uninstrumented, exactly like it does for ``mem`` events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.cache.hierarchy import HIT, NEED_GETS, NEED_GETX, NEED_UPGRADE
from repro.cpu.columnar import bind_columnar

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.system import Machine

#: Re-check period for a processor parked at a workload barrier.
BARRIER_POLL_NS = 500

_NO_GAPS = np.empty(0, dtype=np.int64)
_NO_ADDRS = np.empty(0, dtype=np.int64)
_NO_WRITES = np.empty(0, dtype=bool)


class Processor:
    """One node's processor, consuming a workload reference stream."""

    __slots__ = ("machine", "node_id", "time", "finished", "killed",
                 "finish_time", "mem_refs", "_stream", "_gaps", "_vaddrs",
                 "_writes", "_index", "_barrier_index", "_waiting_barrier",
                 "_chunks", "columnar", "_columnar_fn", "_chunk_serial",
                 "_lists_cache", "_chunk_cols")

    def __init__(self, machine: "Machine", node_id: int,
                 stream: Iterator) -> None:
        self.machine = machine
        self.node_id = node_id
        self.time = 0
        self.finished = False
        self.killed = False
        self.finish_time: Optional[int] = None
        self.mem_refs = 0
        self._stream = stream
        #: The in-flight chunk's columns, kept as numpy arrays
        #: end-to-end (the columnar chunk contract, docs/PERFORMANCE.md).
        self._gaps = _NO_GAPS
        self._vaddrs = _NO_ADDRS
        self._writes = _NO_WRITES
        self._index = 0
        self._barrier_index = 0          # how many barriers passed
        self._waiting_barrier = False
        self._chunks = 0                 # stream chunks consumed so far
        #: Execution-tier switch: the columnar batch engine, or (False)
        #: the reference loop — set only by the oracle tests and the
        #: perf harness.
        self.columnar = True
        self._columnar_fn = None
        self._chunk_serial = 0           # bumped whenever _gaps et al. change
        self._lists_cache = None         # reference loop's per-chunk list memo
        self._chunk_cols = None          # columnar engine's per-chunk cache

    # -- simulator actor protocol ------------------------------------------

    def __call__(self, now: int) -> Optional[int]:
        if self.finished:
            return None
        if now > self.time:
            self.time = now
        if self._waiting_barrier:
            release = self.machine.barrier_release_time(self._barrier_index)
            if release is None:
                return self.time + BARRIER_POLL_NS
            self._waiting_barrier = False
            self._barrier_index += 1
            if release > self.time:
                self.time = release
        return self._run_batch()

    def kill(self) -> None:
        """Node loss: the processor stops issuing references."""
        self.finished = True
        self.killed = True

    def invalidate_fastpath(self) -> None:
        """Drop the compiled batch closure so machine state is re-read.

        The closure captures machine invariants — including the tracer
        — at bind time; anything that changes them after a batch has
        run (``Machine.install_tracer``) must invalidate so the next
        batch re-binds against the new state.  The columnar engine may
        hold the L1 tag filter virtualized (a pending stream not yet
        applied to the set dicts); its sync hook materializes that
        state before the closure is dropped.
        """
        hier = self.machine.nodes[self.node_id].hierarchy
        for cache in (hier.l1, hier.l2):
            if cache.sync_hook is not None:
                cache.sync_hook()
                cache.sync_hook = None
        self._columnar_fn = None
        self._chunk_cols = None

    # -- snapshot / restore (docs/SNAPSHOTS.md) ------------------------------

    def snapshot(self) -> dict:
        """Plain-data state: cursors and counters, not the stream itself.

        The workload stream is a pure deterministic generator, so its
        position is fully described by the number of chunks consumed —
        after :meth:`restore`, the first dispatch rebuilds the stream
        and fast-forwards it.  The compiled batch closure and its
        batch-local counters need no capture: counters are flushed to
        the shared statistics at every batch boundary, and snapshots
        are only taken between batches.
        """
        return {
            "time": self.time,
            "finished": self.finished,
            "killed": self.killed,
            "finish_time": self.finish_time,
            "mem_refs": self.mem_refs,
            "index": self._index,
            "barrier_index": self._barrier_index,
            "waiting_barrier": self._waiting_barrier,
            "chunks": self._chunks,
        }

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`snapshot`; the stream is replayed lazily.

        The machine's workload must already be attached.  Restore only
        records the cursor and leaves ``_stream`` unset:
        :meth:`_run_batch` replays it on the processor's first dispatch
        (:meth:`_replay_stream`), so a restored machine that never runs
        this processor again — every forked fault scenario — never pays
        for the fast-forward.
        """
        self.time = state["time"]
        self.finished = state["finished"]
        self.killed = state["killed"]
        self.finish_time = state["finish_time"]
        self.mem_refs = state["mem_refs"]
        self._index = state["index"]
        self._barrier_index = state["barrier_index"]
        self._waiting_barrier = state["waiting_barrier"]
        self._chunks = state["chunks"]
        self._columnar_fn = None
        self._chunk_cols = None
        self._lists_cache = None
        self._chunk_serial += 1
        # Drop any columnar sync hooks WITHOUT firing them: the restored
        # cache state is authoritative and the closures' pending virtual
        # streams/reorders are stale by definition.
        hier = self.machine.nodes[self.node_id].hierarchy
        hier.l1.sync_hook = None
        hier.l2.sync_hook = None
        self._gaps, self._vaddrs, self._writes = (_NO_GAPS, _NO_ADDRS,
                                                  _NO_WRITES)
        self._stream = None

    def _replay_stream(self) -> None:
        """Rebuild the stream of a restored processor at its cursor.

        The current reference chunk (if the snapshot rests mid-chunk)
        is re-derived from the replayed stream's final yield and resumes
        as columnar arrays plus the saved index — no Python-list
        materialization; barrier and marker chunks leave the reference
        arrays empty, exactly as :meth:`_next_chunk` does.
        """
        stream, last = self.machine.workload.replay_stream(self.node_id,
                                                           self._chunks)
        self._stream = stream
        if last is not None and last[0] not in ("warmup_done", "barrier"):
            _tag, gaps, vaddrs, writes = last
            self._gaps = np.asarray(gaps, dtype=np.int64)
            self._vaddrs = np.asarray(vaddrs, dtype=np.int64)
            self._writes = np.asarray(writes, dtype=bool)
            self._chunk_serial += 1

    # -- execution ------------------------------------------------------------

    def _run_batch(self) -> Optional[int]:
        """Run one activation: the entry point of both execution tiers."""
        if self._stream is None:
            self._replay_stream()
        if not self.columnar:
            return self._run_batch_reference()
        col_fn = self._columnar_fn
        if col_fn is None:
            col_fn = self._columnar_fn = bind_columnar(self)
        return col_fn()

    def _chunk_lists(self) -> tuple:
        """The in-flight chunk as plain Python lists, memoized per chunk.

        The reference loop iterates one reference at a time, where list
        indexing is several times faster than numpy scalar indexing —
        and plain ints keep ``self.time`` JSON-serializable.  The chunk
        columns themselves stay numpy (the columnar contract); this
        memo is derived state, invalidated by ``_chunk_serial``.
        """
        cached = self._lists_cache
        serial = self._chunk_serial
        if cached is not None and cached[0] == serial:
            return cached[1]
        gaps, vaddrs, writes = self._gaps, self._vaddrs, self._writes
        lists = (gaps.tolist() if hasattr(gaps, "tolist") else list(gaps),
                 vaddrs.tolist() if hasattr(vaddrs, "tolist")
                 else list(vaddrs),
                 writes.tolist() if hasattr(writes, "tolist")
                 else list(writes))
        self._lists_cache = (serial, lists)
        return lists

    def _run_batch_reference(self) -> Optional[int]:
        """The original layered loop; the columnar engine's oracle."""
        machine = self.machine
        config = machine.config
        hierarchy = machine.nodes[self.node_id].hierarchy
        protocol = machine.protocol
        translate = machine.addr_space.translate_line
        deadline = self.time + config.batch_quantum_ns
        overlap = config.miss_overlap
        gaps, vaddrs, writes = self._chunk_lists()

        while True:
            if self._index >= len(vaddrs):
                outcome = self._next_chunk()
                if outcome is not None:
                    return outcome if outcome >= 0 else None
                gaps, vaddrs, writes = self._chunk_lists()
                continue
            i = self._index
            self.time += gaps[i]
            line_addr = translate(vaddrs[i], self.node_id)
            is_write = writes[i]
            self._index = i + 1
            self.mem_refs += 1

            result = hierarchy.probe(line_addr, is_write)
            if result.need == HIT:
                self.time += (config.l1_hit_ns if result.l1_hit
                              else config.l2_hit_ns)
            else:
                if result.need == NEED_UPGRADE:
                    done = protocol.write(self.node_id, line_addr,
                                          self.time, upgrade=True)
                elif result.need == NEED_GETX:
                    done = protocol.write(self.node_id, line_addr,
                                          self.time, upgrade=False)
                else:
                    assert result.need == NEED_GETS
                    done = protocol.read(self.node_id, line_addr, self.time)
                # The OOO core overlaps misses; charge 1/overlap of the
                # transaction latency as architectural stall.
                self.time += int((done - self.time) / overlap)
            if is_write:
                hierarchy.write_value(line_addr,
                                      machine.next_store_value())
            if self.time >= deadline:
                return self.time

    def _next_chunk(self) -> Optional[int]:
        """Advance the stream.  Returns None to keep executing, a
        non-negative time to resched at, or -1 when the stream ends."""
        try:
            chunk = next(self._stream)
            self._chunks += 1
        except StopIteration:
            self.finished = True
            self.finish_time = self.time
            self.machine.note_processor_finished(self)
            return -1
        if chunk[0] == "warmup_done":
            # First processor past this marker resets runtime statistics,
            # so reported rates reflect steady state, not first-touch
            # compulsory misses (all processors cross it together,
            # straight after a barrier).
            self.machine.note_warmup_done()
            return None
        if chunk[0] == "barrier":
            release = self.machine.barrier_arrive(self._barrier_index,
                                                  self.node_id, self.time)
            self._gaps, self._vaddrs, self._writes = (_NO_GAPS, _NO_ADDRS,
                                                      _NO_WRITES)
            self._index = 0
            self._chunk_serial += 1
            if release is not None:
                self._barrier_index += 1
                self.time = max(self.time, release)
                return None
            self._waiting_barrier = True
            return self.time + BARRIER_POLL_NS
        _tag, gaps, vaddrs, writes = chunk
        # The chunk columns stay numpy arrays end-to-end (the columnar
        # contract): the batch engine consumes them directly, and the
        # reference loop materializes plain lists lazily via _chunk_lists.
        self._gaps = np.asarray(gaps, dtype=np.int64)
        self._vaddrs = np.asarray(vaddrs, dtype=np.int64)
        self._writes = np.asarray(writes, dtype=bool)
        self._index = 0
        self._chunk_serial += 1
        return None
