"""The machine: node assembly, ReVive wiring, run loop, and snapshots.

``Machine`` is the top-level simulation object.  Build one from a
:class:`~repro.machine.config.MachineConfig` (plus, optionally, a
:class:`~repro.core.config.ReViveConfig` — omit it for the baseline
system with no recovery support), attach a workload, and ``run()``.

Reserved memory: the first data page of every node is the *system
page* (execution contexts are checkpointed into its first lines); with
ReVive enabled, the next ``log_bytes_per_node`` worth of data pages
form the node's log region.  Both are ordinary parity-protected pages.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional

from repro.coherence.protocol import ProtocolEngine
from repro.core.checkpoint import CheckpointCoordinator
from repro.core.config import ReViveConfig
from repro.core.controller import ReViveController
from repro.core.log import MemoryLog
from repro.core.parity import ParityEngine
from repro.cpu.processor import Processor
from repro.machine.config import MachineConfig
from repro.machine.node import Node
from repro.memory.geomcache import GeometryCache
from repro.memory.layout import AddressSpace, HybridGeometry, ParityGeometry
from repro.network.network import Network
from repro.obs.profiling import Profiler
from repro.obs.spans import NULL_SPANS, SpanRecorder
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry


class _BarrierState:
    """Arrival bookkeeping for one workload barrier instance."""

    __slots__ = ("arrived", "release_time")

    def __init__(self) -> None:
        self.arrived: Dict[int, int] = {}
        self.release_time: Optional[int] = None


class Machine:
    """A CC-NUMA multiprocessor, optionally with ReVive."""

    def __init__(self, config: MachineConfig,
                 revive_config: Optional[ReViveConfig] = None,
                 tracer: Optional[Tracer] = None,
                 profiler: Optional[Profiler] = None) -> None:
        self.config = config
        self.revive_config = revive_config
        self.stats = StatsRegistry()
        #: Trace sink shared by every component (``NULL_TRACER`` when
        #: tracing is off); install one later with :meth:`install_tracer`.
        self.tracer = NULL_TRACER
        #: Transaction span recorder (``NULL_SPANS`` when tracing is
        #: off — every span site guards on ``spans.enabled``).
        self.spans = NULL_SPANS
        #: Wall-clock profiler (None = profiling off, zero overhead).
        #: Set through :meth:`install_profiler` below so the engine's
        #: per-actor timers and the fast-path tier timers see it.
        self.profiler = None
        #: Determinism-observatory recorder (None = digesting off,
        #: zero overhead); install one with :meth:`install_digests`.
        self.digests = None
        #: Test-only divergence injection (the determinism observatory's
        #: smoke/bisection hook): when set to N, the Nth store value is
        #: deliberately flipped — a single, deterministic, localized
        #: divergence for ``repro diff --bisect`` to find.  Read from
        #: ``REPRO_PERTURB_STORE`` so the perturbed run is otherwise
        #: identical to the reference; never set in normal use.
        self.perturb_store = (
            int(os.environ.get("REPRO_PERTURB_STORE", "0")) or None)
        self.network = Network(config, self.stats)
        group_size = revive_config.parity_group_size if revive_config else 0
        if revive_config is not None and revive_config.mirrored_fraction:
            self.geometry = HybridGeometry(
                config, group_size,
                mirrored_stripes=int(revive_config.mirrored_fraction
                                     * config.pages_per_node))
        else:
            self.geometry = ParityGeometry(config, group_size)

        log_pages = 0
        io_pages = 0
        if revive_config is not None:
            log_pages = math.ceil(revive_config.log_bytes_per_node
                                  / config.page_size)
            io_pages = revive_config.io_buffer_pages
        self._log_pages = log_pages
        self._io_pages = io_pages
        # Reserved data pages per node: [system page, log..., io...].
        self.addr_space = AddressSpace(
            config, self.geometry,
            reserved_pages_per_node=1 + log_pages + io_pages)
        # Machine-owned memoized geometry, shared by the parity engine,
        # log path, and protocol home lookup.  A rebuilt machine gets a
        # fresh cache; recovery invalidates it (docs/PERFORMANCE.md).
        self.geom_cache = GeometryCache(self.addr_space, self.geometry)
        self.nodes: List[Node] = [Node(config, n)
                                  for n in range(config.n_nodes)]
        self.protocol = ProtocolEngine(self)
        self.simulator = Simulator()
        self.processors: List[Processor] = []
        self.workload = None
        self._store_counter = 0
        self._barriers: Dict[int, _BarrierState] = {}
        self.snapshots: Dict[int, Dict[int, Dict[int, int]]] = {}

        self.revive: Optional[ReViveController] = None
        self.checkpointing: Optional[CheckpointCoordinator] = None
        if revive_config is not None:
            parity = ParityEngine(self, self.geometry)
            logs = {
                n: MemoryLog(n, self.log_region_lines(n), config.line_size,
                             l_bit_capacity=revive_config.l_bit_capacity)
                for n in range(config.n_nodes)
            }
            self.revive = ReViveController(self, parity, logs)
            if revive_config.checkpoint_interval_ns is not None:
                self.checkpointing = CheckpointCoordinator(
                    self, revive_config.checkpoint_interval_ns)
                self.simulator.set_global_hook(
                    revive_config.checkpoint_interval_ns,
                    self._checkpoint_hook)
            if revive_config.debug_snapshots:
                self.take_snapshot(0)
        self.io_manager = None
        if revive_config is not None and io_pages:
            from repro.core.io import IOManager

            self.io_manager = IOManager(self)
        if tracer is not None:
            self.install_tracer(tracer)
        if profiler is not None:
            self.install_profiler(profiler)

    def install_profiler(self, profiler: Optional[Profiler]) -> None:
        """Point the host-time attribution machinery at ``profiler``.

        Mirrors :meth:`install_tracer`: sets the machine's own
        ``profiler`` (the component timers around ``machine.run`` /
        ``checkpoint`` / ``recovery``), hands it to the simulator as
        ``host_prof`` (per-actor dispatch attribution, see
        ``sim/engine.py``), and drops any compiled fast-path closures
        so the next batch re-binds with (or without) the protocol
        fallout timers.  Pass ``None`` to detach; the engine then
        times nothing.
        """
        self.profiler = profiler
        self.simulator.host_prof = profiler
        for proc in self.processors:
            proc.invalidate_fastpath()

    def install_tracer(self, tracer: Tracer) -> None:
        """Point every instrumented component at ``tracer``.

        Propagates to the simulator (``sim.*`` events), each node's
        directory (``coh.*``), and each ReVive log (``log.*``); the
        machine's own ``tracer`` attribute serves the checkpoint and
        recovery instrumentation (``ckpt.*`` / ``recovery.*``) and the
        processors' fast-path ``mem.*`` batch events.  Call any time
        before (or between) ``run()`` calls; pass ``NULL_TRACER`` to
        detach.
        """
        self.tracer = tracer
        self.spans = SpanRecorder(tracer, metrics=self.stats)
        self.simulator.tracer = tracer
        for node in self.nodes:
            node.directory.tracer = tracer
        if self.revive is not None:
            for log in self.revive.logs.values():
                log.tracer = tracer
        # Compiled fast-path closures captured the previous tracer at
        # bind time; drop them so the next batch re-binds against the
        # new one (otherwise a tracer installed mid-run would silently
        # miss every mem.batch event from already-bound processors).
        for proc in self.processors:
            proc.invalidate_fastpath()

    def install_digests(self, recorder) -> None:
        """Attach a determinism-observatory recorder (obs/digest.py).

        The machine records one digest window per checkpoint boundary
        (inside :meth:`_checkpoint_hook`, after the queue rebuild — the
        quiescent point) and callers may add on-demand windows with
        :meth:`record_digest`.  No dispatch path changes: digesting
        costs nothing between checkpoints.  Pass ``None`` to detach.
        Install *before* the first window should be recorded; the
        conventional window 0 (initial state, epoch 0) is the caller's
        to record, e.g. ``machine.record_digest()`` right before
        ``run()`` (harness/runner.py does this for ``digest=True``).
        """
        self.digests = recorder

    def record_digest(self, ts: Optional[int] = None):
        """Record one digest window now; returns it (or ``None`` when off).

        ``ts`` defaults to the current simulated time; the window's
        epoch is the currently committed checkpoint epoch (0 for
        machines without checkpointing).
        """
        if self.digests is None:
            return None
        from repro.machine.digest import digest_components

        epoch = (self.checkpointing.current_epoch()
                 if self.checkpointing is not None else 0)
        return self.digests.record(
            digest_components(self), epoch=epoch,
            ts=self.simulator.now if ts is None else ts)

    # -- reserved regions -----------------------------------------------------

    def system_page(self, node: int) -> int:
        """Physical page index of the node's system (context) page."""
        return self.addr_space.reserved_pages[node][0]

    def context_line(self, node: int) -> int:
        """Line in which node ``node`` checkpoints its execution context."""
        return self.addr_space.page_base(node, self.system_page(node))

    def context_lines_of(self, node: int) -> List[int]:
        """Line addresses holding the node's execution context."""
        return [self.context_line(node)]

    def log_region_pages(self, node: int) -> List[int]:
        """Physical page indices of the node's log region."""
        if self.revive_config is None:
            return []
        return self.addr_space.reserved_pages[node][1:1 + self._log_pages]

    def io_region_pages(self, node: int) -> List[int]:
        """Physical page indices of the node's I/O buffer region."""
        if self.revive_config is None or not self._io_pages:
            return []
        start = 1 + self._log_pages
        return self.addr_space.reserved_pages[node][start:start
                                                    + self._io_pages]

    def io_region_lines(self, node: int) -> List[int]:
        """Line addresses of the node's I/O buffer region."""
        lines: List[int] = []
        for ppage in self.io_region_pages(node):
            lines.extend(self.addr_space.lines_of_page(node, ppage))
        return lines

    def reserved_pages_of(self, node: int) -> List[int]:
        """System page + log pages — parity-protected like any data."""
        return list(self.addr_space.reserved_pages[node])

    def log_region_lines(self, node: int) -> List[int]:
        """Line addresses of the node's log region."""
        lines: List[int] = []
        for ppage in self.log_region_pages(node):
            lines.extend(self.addr_space.lines_of_page(node, ppage))
        return lines

    # -- workload attachment --------------------------------------------------

    def attach_workload(self, workload) -> None:
        """Create one processor per workload thread and schedule them."""
        if self.processors:
            raise RuntimeError("a workload is already attached")
        n_procs = workload.n_procs
        if n_procs > self.config.n_nodes:
            raise ValueError(
                f"workload wants {n_procs} processors; machine has "
                f"{self.config.n_nodes}")
        self.workload = workload
        for proc_id in range(n_procs):
            proc = Processor(self, proc_id, workload.stream_for(proc_id))
            self.processors.append(proc)
            self.simulator.schedule(0, proc)

    # -- run loop -------------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Advance the simulation; returns the final simulated time.

        With a profiler installed, the whole call is timed under the
        ``machine.run`` component and the engine's cumulative
        activation count is recorded for the events/sec figure.
        """
        if self.profiler is None:
            return self.simulator.run(until=until)
        with self.profiler.timer("machine.run"):
            final = self.simulator.run(until=until)
        self.profiler.note_events(self.simulator.activations)
        return final

    def request_early_checkpoint(self) -> None:
        """Pull the next global checkpoint forward to *now*.

        Called by the ReVive controller under log pressure: committing
        a checkpoint reclaims the oldest retained epoch's slots before
        the log overflows.
        """
        if self.checkpointing is not None:
            self.stats.counter("ckpt.emergency_requests").add()
            self.simulator.expedite_hook(self.simulator.now)

    def _checkpoint_hook(self, trigger_time: int) -> int:
        if self.profiler is None:
            commit = self.checkpointing.run_checkpoint(trigger_time)
        else:
            with self.profiler.timer("checkpoint"):
                commit = self.checkpointing.run_checkpoint(trigger_time)

        def reschedule(actor):
            """Hook-internal: new activation time for one actor."""
            if getattr(actor, "finished", False):
                return None
            actor.time = max(actor.time, commit)
            return actor.time

        self.simulator.drain_rebuild(reschedule)
        if self.digests is not None:
            # Record the digest window at the quiescent point right
            # after the commit barrier — every actor is rescheduled,
            # no message is mid-flight, and the epoch just advanced.
            self.record_digest(ts=commit)
        return self.checkpointing.next_trigger_after(commit)

    def note_processor_finished(self, proc: Processor) -> None:
        """Bookkeeping callback when a processor retires."""
        self.stats.counter("proc.finished").add()

    def note_warmup_done(self) -> None:
        """Reset rate statistics at the end of a workload's warmup phase.

        Idempotent per run: only the first caller resets.  Cache
        hit/miss counters and traffic breakdowns restart so steady-state
        rates are reported; functional state (memory, logs, parity) and
        simulated time are untouched.
        """
        if getattr(self, "_warmup_reset_done", False):
            return
        self._warmup_reset_done = True
        self.warmup_end_time = self.simulator.now
        if self.tracer.enabled:
            # Mark the reset in the trace so stream consumers (monitors,
            # repro report) can partition pre/steady-state exactly like
            # the live statistics below do.
            self.tracer.emit(self.simulator.now, "sim", "sim.warmup_done")
        if self.revive is not None:
            # First-touch initialisation logs every page once; restart
            # the log high-water mark so Figure 11 reports steady state.
            for log in self.revive.logs.values():
                log.max_bytes_used = 0
        for node in self.nodes:
            node.hierarchy.l1.hits = node.hierarchy.l1.misses = 0
            node.hierarchy.l2.hits = node.hierarchy.l2.misses = 0
        self.stats.network_traffic.reset()
        self.stats.memory_traffic.reset()
        for counter in self.stats.counters():
            counter.reset()
        for proc in self.processors:
            proc.mem_refs = 0

    @property
    def execution_time(self) -> int:
        """Completion time of the slowest processor."""
        times = [p.finish_time for p in self.processors
                 if p.finish_time is not None]
        return max(times) if times else self.simulator.now

    @property
    def steady_execution_time(self) -> int:
        """Execution time excluding the first-touch warmup phase.

        The paper's applications run long enough that initialisation is
        negligible; our scaled analogs initialise a proportionally
        larger share, so overhead comparisons use post-warmup time.
        """
        return max(0, self.execution_time
                   - getattr(self, "warmup_end_time", 0))

    @property
    def all_finished(self) -> bool:
        """True when every processor has retired."""
        return all(p.finished for p in self.processors)

    def total_mem_refs(self) -> int:
        """Sum of references executed by all processors."""
        return sum(p.mem_refs for p in self.processors)

    # -- store values ---------------------------------------------------------

    def next_store_value(self) -> int:
        """Globally unique value for each store (verification aid)."""
        self._store_counter += 1
        if self._store_counter == self.perturb_store:
            # Test-only injected divergence (see ``perturb_store``):
            # offset keeps the flipped value outside the counter range
            # so the perturbation never collides with a later store.
            return self._store_counter + (1 << 32)
        return self._store_counter

    # -- workload barriers ----------------------------------------------------

    def _alive_procs(self) -> int:
        return sum(1 for p in self.processors if not p.killed)

    def barrier_arrive(self, barrier_index: int, proc_id: int,
                       time: int) -> Optional[int]:
        """Register arrival; returns the release time if this completes it."""
        state = self._barriers.setdefault(barrier_index, _BarrierState())
        state.arrived[proc_id] = time
        if len(state.arrived) >= self._alive_procs():
            state.release_time = (max(state.arrived.values())
                                  + self.config.barrier_ns)
            return state.release_time
        return None

    def barrier_release_time(self, barrier_index: int) -> Optional[int]:
        """Release time of a workload barrier, if formed."""
        state = self._barriers.get(barrier_index)
        if state is None:
            return None
        if state.release_time is None and \
                len(state.arrived) >= self._alive_procs():
            # A participant was killed after this barrier formed.
            state.release_time = (max(state.arrived.values())
                                  + self.config.barrier_ns)
        return state.release_time

    # -- checkpoints and snapshots --------------------------------------------

    def commit_time_of_epoch(self, epoch: int) -> int:
        """Absolute commit time of checkpoint ``epoch``."""
        if self.checkpointing is None:
            return 0
        return self.checkpointing.commit_times[epoch]

    def truncate_checkpoint_history(self, target_epoch: int) -> None:
        """After a rollback, forget commits newer than the target."""
        if self.checkpointing is not None:
            del self.checkpointing.commit_times[target_epoch + 1:]
        for epoch in [e for e in self.snapshots if e > target_epoch]:
            del self.snapshots[epoch]

    def take_snapshot(self, epoch: int) -> None:
        """Photograph all memory (golden reference for recovery tests)."""
        self.snapshots[epoch] = {node.node_id: dict(node.memory.lines())
                                 for node in self.nodes}

    @staticmethod
    def _barrier_state() -> _BarrierState:
        """Fresh barrier bookkeeping record (snapshot restore hook)."""
        return _BarrierState()

    def snapshot(self) -> Dict:
        """Plain-data image of all mutable state (docs/SNAPSHOTS.md).

        The image is picklable and self-describing
        (:data:`~repro.machine.snapshot.SNAPSHOT_VERSION`); apply it
        with :meth:`restore` on a machine built with the same configs
        and workload — e.g. in another worker process of a fault
        campaign (``repro campaign``).
        """
        from repro.machine.snapshot import capture_machine

        return capture_machine(self)

    def restore(self, state: Dict) -> None:
        """Reinstate a :meth:`snapshot`; see machine/snapshot.py."""
        from repro.machine.snapshot import restore_machine

        restore_machine(self, state)

    # -- diagnostics ---------------------------------------------------------

    def check_invariants(self) -> List[str]:
        """Machine-wide consistency scan; returns violation descriptions.

        Checks the coherence invariants (single writer per line,
        directory/cache agreement) and — when ReVive is enabled — the
        parity invariant (every parity line equals the XOR of its
        stripe).  Intended for tests and debugging at quiescent points;
        it is O(resident lines + touched pages).
        """
        from repro.cache.cache import MODIFIED
        from repro.coherence.directory import DIR_EXCLUSIVE, DIR_SHARED

        violations: List[str] = []
        holders: Dict[int, List[int]] = {}
        dirty: Dict[int, List[int]] = {}
        for node in self.nodes:
            for line in node.hierarchy.l2.resident_lines():
                holders.setdefault(line.addr, []).append(node.node_id)
                if line.state == MODIFIED:
                    dirty.setdefault(line.addr, []).append(node.node_id)
        for addr, writers in dirty.items():
            if len(writers) > 1:
                violations.append(
                    f"line {addr:#x}: multiple dirty copies {writers}")
        for addr, nodes_holding in holders.items():
            home = self.nodes[self.addr_space.node_of(addr)]
            entry = home.directory.peek(addr)
            if entry is None:
                violations.append(
                    f"line {addr:#x}: cached without a directory entry")
                continue
            if entry.state == DIR_EXCLUSIVE:
                if set(nodes_holding) - {entry.owner}:
                    violations.append(
                        f"line {addr:#x}: exclusive at {entry.owner} but "
                        f"cached by {sorted(nodes_holding)}")
            elif entry.state == DIR_SHARED:
                if addr in dirty:
                    violations.append(
                        f"line {addr:#x}: dirty while directory-shared")
                if set(nodes_holding) - entry.sharers:
                    violations.append(
                        f"line {addr:#x}: cached outside the sharer set")
            else:
                violations.append(
                    f"line {addr:#x}: cached but directory uncached")
        if self.revive is not None:
            for parity_node, ppage in self.revive.parity.check_all_parity():
                violations.append(
                    f"parity page {ppage} of node {parity_node} is "
                    f"inconsistent with its stripe")
        return violations

    def utilization_report(self) -> Dict[str, float]:
        """Mean resource utilisations over the elapsed simulated time."""
        elapsed = max(1, self.simulator.now)
        memory = [node.mem_timing.utilization(elapsed)
                  for node in self.nodes]
        directory = [node.dir_resource.utilization(elapsed)
                     for node in self.nodes]
        return {
            "memory_bus_mean": sum(memory) / len(memory),
            "memory_bus_max": max(memory),
            "directory_mean": sum(directory) / len(directory),
            "network_links_mean": self.network.link_utilization(elapsed),
        }

    def verify_against_snapshot(self, epoch: int) -> List[int]:
        """Compare memory with a snapshot; returns mismatching lines.

        Log regions — and the parity pages covering them — are
        excluded: the log's own contents are bookkeeping and
        legitimately differ after a rollback (commit records, head
        movement).  Everything else — data, contexts, and parity — must
        match bit-for-bit.
        """
        if epoch not in self.snapshots:
            raise KeyError(f"no snapshot for epoch {epoch} "
                           "(enable debug_snapshots)")
        log_lines = set()
        for node in self.nodes:
            log_lines.update(self.log_region_lines(node.node_id))
            log_lines.update(self.io_region_lines(node.node_id))
            bookkeeping_pages = (self.log_region_pages(node.node_id)
                                 + self.io_region_pages(node.node_id))
            for ppage in bookkeeping_pages:
                parity_node, parity_page = self.geometry.parity_location(
                    node.node_id, ppage)
                log_lines.update(self.addr_space.lines_of_page(parity_node,
                                                               parity_page))
        mismatches: List[int] = []
        for node in self.nodes:
            golden = self.snapshots[epoch][node.node_id]
            current = dict(node.memory.lines())
            for line_addr in set(golden) | set(current):
                if line_addr in log_lines:
                    continue
                if golden.get(line_addr, 0) != current.get(line_addr, 0):
                    mismatches.append(line_addr)
        return sorted(mismatches)
