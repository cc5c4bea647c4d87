"""Rollback recovery (Section 3.2.4, Figure 7).

Recovery runs in four phases:

* **Phase 1** — hardware recovery: diagnosis, reconfiguration, protocol
  reset.  Outside the paper's scope; a fixed cost (50 ms for 16
  processors, from the Hive/FLASH numbers the paper adopts).
* **Phase 2** — only after memory loss: the lost node's *log region* is
  reconstructed by XORing the surviving members of each stripe.
  Afterwards every node's log is scanned from memory alone — once per
  recovery; the committed-epoch check and the rollback share the scan,
  and each reads only the records it needs.
* **Phase 3** — rollback: every node's log entries belonging to epochs
  newer than the recovery target are applied *newest first*, restoring
  each line's checkpoint pre-image.  Lost data pages touched by the
  rollback are rebuilt from parity on demand before entries land in
  them.  At the end the caches and directories are invalidated and
  execution may resume.
* **Phase 4** — background repair: every remaining stripe damaged by the
  node loss is rebuilt — the lost node's remaining data pages and its
  parity pages; every other stripe's parity stayed live through the
  rollback.  A transient fault has nothing to repair.  The machine is
  *available* during this phase; its time is reported separately and
  never counted as downtime.

The functional side is exact — recovery operates on real line values
and is verified bit-for-bit against golden checkpoint snapshots — while
phase durations come from a cost model over the machine's bandwidth
parameters (reads are batched page-at-a-time across all surviving
processors, so per-access resource walks would misrepresent the
pipelining; see the cost helpers at the bottom).  The host code works
at the same granularity: stripes are rebuilt a page at a time
(:meth:`~repro.core.parity.ParityEngine.stripe_xor`), and a log's
metadata words are scanned in one pass while entry lines are read only
for the commit records and the undo window
(:class:`~repro.core.log.RegionScan`; docs/PERFORMANCE.md, "Recovery
host path").

Observability: a traced recovery emits the ``recovery`` category
events documented in docs/OBSERVABILITY.md — ``recovery.begin`` at
the detection time, a ``recovery.phase_begin`` / ``recovery.phase_end``
pair per phase (``hw_recovery``, ``log_rebuild``, ``rollback``,
``background_repair``) whose timestamp difference *is* the phase
duration, and ``recovery.end`` at the resume time.
:func:`repro.obs.analysis.recovery_breakdown` reconstructs the
Figure 12 components from these events alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.log import RegionScan

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.system import Machine


@dataclass
class RecoveryResult:
    """Everything measured about one recovery."""

    target_epoch: int
    lost_node: Optional[int]
    detect_time: int
    lost_work_ns: int
    phase1_ns: int
    phase2_ns: int
    phase3_ns: int
    phase4_background_ns: int
    entries_undone: int = 0
    log_lines_rebuilt: int = 0
    pages_rebuilt_during_rollback: int = 0
    pages_rebuilt_background: int = 0
    resume_time: int = 0

    @property
    def unavailable_ns(self) -> int:
        """Downtime as the paper counts it: lost work + Phases 1-3."""
        return (self.lost_work_ns + self.phase1_ns + self.phase2_ns
                + self.phase3_ns)

    @property
    def revive_recovery_ns(self) -> int:
        """Figure 12's quantity: Phases 2 + 3 only."""
        return self.phase2_ns + self.phase3_ns

    def breakdown(self) -> Dict[str, int]:
        """The Figure 12 components as a dict of nanoseconds."""
        return {
            "lost_work": self.lost_work_ns,
            "hw_recovery": self.phase1_ns,
            "log_rebuild": self.phase2_ns,
            "rollback": self.phase3_ns,
        }


class RecoveryManager:
    """Executes rollback recovery against a machine."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.config = machine.config
        self.revive_config = machine.revive_config

    # -- public entry point ---------------------------------------------------

    def recover(self, detect_time: int, lost_node: Optional[int] = None,
                target_epoch: Optional[int] = None) -> RecoveryResult:
        """Run full recovery.  The fault must already be applied.

        ``target_epoch`` defaults to the worst case the paper evaluates:
        the error occurred just before the latest commit, so the system
        rolls back to the *second* most recent checkpoint.
        """
        machine = self.machine
        profiler = getattr(machine, "profiler", None)
        if profiler is None:
            return self._recover(detect_time, lost_node, target_epoch)
        with profiler.timer("recovery"):
            return self._recover(detect_time, lost_node, target_epoch)

    def _recover(self, detect_time: int, lost_node: Optional[int],
                 target_epoch: Optional[int]) -> RecoveryResult:
        machine = self.machine
        if lost_node is None:
            lost = [node.node_id for node in machine.nodes
                    if node.memory.lost]
            if len(lost) > 1:
                raise RuntimeError(
                    f"nodes {lost} lost memory simultaneously — beyond "
                    f"ReVive's single-node fault model (Section 3.1.2)")
            if lost:
                lost_node = lost[0]
        tracer = machine.tracer
        if tracer.enabled:
            tracer.emit(detect_time, "recovery", "recovery.begin",
                        lost_node=lost_node)
        phase1_ns = self.revive_config.hw_recovery_ns

        # Phase 1 side effects: wipe caches and directory state.
        for node in machine.nodes:
            node.hierarchy.clear()
            node.directory.clear_all(at=detect_time)

        # Phase 2 must precede commit-record inspection: the lost
        # node's log region is unreadable until rebuilt from parity.
        phase2_ns = 0
        log_lines_rebuilt = 0
        if lost_node is not None:
            self._rebuild_lost_log(lost_node)
        decoded = self.decode_logs()
        if lost_node is not None:
            phase2_ns, log_lines_rebuilt = self._log_rebuild_cost(
                lost_node, decoded[lost_node])

        committed = self.determine_committed_epoch(decoded)
        if target_epoch is None:
            target_epoch = max(0, committed - 1)
        if target_epoch > committed:
            raise ValueError(
                f"cannot recover to epoch {target_epoch}: only {committed} "
                f"checkpoints are committed")
        oldest_kept = max(0, committed - (self.revive_config.keep_checkpoints
                                          - 1))
        if target_epoch < oldest_kept:
            raise ValueError(
                f"epoch {target_epoch} was reclaimed (oldest kept: "
                f"{oldest_kept}); increase keep_checkpoints")

        lost_work_ns = max(
            0, detect_time - machine.commit_time_of_epoch(target_epoch))

        phase3_ns, entries, rebuilt_pages = self._rollback(
            target_epoch, committed, lost_node, decoded)

        phase4_ns, pages_background = self._background_repair(
            lost_node, rebuilt_pages)

        # Logs and epochs resume from the recovery target.
        machine.revive.reset_logs_to_epoch(target_epoch)
        machine.truncate_checkpoint_history(target_epoch)
        if machine.io_manager is not None:
            # Unreleased outputs from the undone interval never became
            # external; drop them (released history is untouchable).
            machine.io_manager.on_rollback(target_epoch)

        result = RecoveryResult(
            target_epoch=target_epoch,
            lost_node=lost_node,
            detect_time=detect_time,
            lost_work_ns=lost_work_ns,
            phase1_ns=phase1_ns,
            phase2_ns=phase2_ns,
            phase3_ns=phase3_ns,
            phase4_background_ns=phase4_ns,
            entries_undone=entries,
            log_lines_rebuilt=log_lines_rebuilt,
            pages_rebuilt_during_rollback=len(rebuilt_pages),
            pages_rebuilt_background=pages_background,
        )
        result.resume_time = detect_time + result.phase1_ns \
            + result.phase2_ns + result.phase3_ns
        machine.stats.counter("recovery.count").add()
        machine.stats.counter("recovery.entries_undone").add(entries)
        spans = machine.spans
        if spans.enabled:
            # One machine-wide span per recovery (matching
            # ``recovery.count``) covering detection through resume.
            # Phase 4 runs in the background with the machine available,
            # so it is excluded — same convention as ``unavailable_ns``.
            sp = spans.begin("recovery", -1, detect_time,
                             lost_node=lost_node, target_epoch=target_epoch)
            sp.seg("dir", detect_time + result.phase1_ns)
            sp.seg("parity", detect_time + result.phase1_ns
                   + result.phase2_ns)
            sp.seg("log", result.resume_time)
            sp.end(result.resume_time)
        if tracer.enabled:
            self._trace_phases(tracer, result)
        return result

    @staticmethod
    def _trace_phases(tracer, result: RecoveryResult) -> None:
        """Emit the phase-boundary and end events for one recovery.

        Each phase gets a ``recovery.phase_begin`` / ``phase_end``
        pair whose ``ts`` difference equals the phase duration, so a
        trace consumer can recompute the Figure 12 breakdown without
        access to the :class:`RecoveryResult`.  Phase 4 runs in the
        background starting at the resume time; the machine is
        available during it.
        """
        cursor = result.detect_time
        phases = [
            ("hw_recovery", result.phase1_ns, {}),
            ("log_rebuild", result.phase2_ns,
             {"lines_rebuilt": result.log_lines_rebuilt}),
            ("rollback", result.phase3_ns,
             {"entries_undone": result.entries_undone,
              "pages_rebuilt": result.pages_rebuilt_during_rollback}),
        ]
        for phase, dur, fields in phases:
            tracer.emit(cursor, "recovery", "recovery.phase_begin",
                        phase=phase)
            cursor += dur
            tracer.emit(cursor, "recovery", "recovery.phase_end",
                        phase=phase, dur_ns=dur, **fields)
        tracer.emit(result.resume_time, "recovery", "recovery.end",
                    target_epoch=result.target_epoch,
                    lost_work_ns=result.lost_work_ns,
                    entries_undone=result.entries_undone,
                    resume_time=result.resume_time)
        tracer.emit(result.resume_time, "recovery", "recovery.phase_begin",
                    phase="background_repair")
        tracer.emit(result.resume_time + result.phase4_background_ns,
                    "recovery", "recovery.phase_end",
                    phase="background_repair",
                    dur_ns=result.phase4_background_ns,
                    pages_rebuilt=result.pages_rebuilt_background)

    # -- committed-epoch determination (two-phase commit evidence) ------------

    def decode_logs(self) -> Dict[int, RegionScan]:
        """Every node's log region scanned from memory, keyed by node.

        Recovery calls this once, right after Phase 2, and hands the
        map to every later reader: no recovery write touches a log
        region, so the scan stays valid through the rollback.
        """
        machine = self.machine
        return {node.node_id: machine.revive.logs[node.node_id]
                .scan_region(node.memory.read_line)
                for node in machine.nodes}

    def determine_committed_epoch(
            self, decoded: Optional[Dict[int, RegionScan]] = None
    ) -> int:
        """Last checkpoint committed on *every* node, from memory alone.

        Reads the durable commit records out of each node's (possibly
        just rebuilt) log region.  A checkpoint counts as established
        only if every node holds its record — exactly the guarantee the
        two barriers of Section 4.2's Checkpoint Commit Race provide.
        ``decoded`` is a :meth:`decode_logs` map to read instead of
        decoding the regions again.
        """
        if decoded is None:
            decoded = self.decode_logs()
        return min((max((r.value for r in scan.commits()), default=0)
                    for scan in decoded.values()), default=0)

    # -- Phase 2 --------------------------------------------------------------

    def _rebuild_lost_log(self, lost_node: int) -> None:
        """Reconstruct the lost node's log region from parity.

        Functionally the whole region is restored, page by page in
        region order (the dead lines are free to recompute and keep the
        parity invariant checkable); :meth:`_log_rebuild_cost` charges
        the time.
        """
        machine = self.machine
        memory = machine.nodes[lost_node].memory
        if not memory.lost:
            raise RuntimeError(
                f"node {lost_node} memory is intact; Phase 2 not needed")
        for ppage in machine.log_region_pages(lost_node):
            self._rebuild_page(lost_node, ppage)
        memory.mark_recovered()
        # The stripe map memoized before the fault must not survive the
        # node's reincarnation: re-derive all geometry from scratch.
        machine.geom_cache.invalidate()

    def _log_rebuild_cost(self, lost_node: int,
                          lost_log: RegionScan) -> Tuple[int, int]:
        """Phase 2 duration and timed line count for the rebuilt log.

        Time is charged for a two-pass rebuild — first the metadata
        lines (one per block), whose markers reveal which entry slots
        are live, then only the live entry lines — so Phase 2 grows
        with the *log contents*, as the paper states, not with the
        region's reserved size.  ``lost_log`` is the rebuilt region's
        scan; its length is the number of valid markers.
        """
        meta_lines = self.machine.revive.logs[lost_node].n_blocks
        timed_lines = meta_lines + len(lost_log)
        workers = self.config.n_nodes - 1
        phase2_ns = (timed_lines * self._line_rebuild_cost_ns()
                     // max(1, workers))
        return phase2_ns, timed_lines

    # -- Phase 3 --------------------------------------------------------------

    def _rollback(self, target_epoch: int, committed: int,
                  lost_node: Optional[int],
                  decoded: Dict[int, RegionScan]
                  ) -> Tuple[int, int, Set[Tuple[int, int]]]:
        """Apply log entries newest-first; rebuild lost pages on demand.

        Every restore travels the same parity-maintaining write path the
        hardware uses, except when the stripe's parity page sits on the
        lost node — those stripes are repaired wholesale in Phase 4.
        Keeping parity live during the rollback is what makes on-demand
        page reconstruction sound: a lost page is rebuilt from stripe
        members that may themselves have been rolled back already.

        ``decoded`` is the :meth:`decode_logs` map; each node's undo
        window comes off it as ``(addrs, values)`` columns
        (:meth:`~repro.core.log.RegionScan.undo_window`), and only the
        lost node's entries need a page lookup.  Returns the phase
        duration, the entries undone, and the set of ``(node, page)``
        rebuilt on demand, which Phase 4 then skips.
        """
        machine = self.machine
        page_of = machine.addr_space.page_of
        restore_line = self._restore_line
        entry_cost = self._entry_restore_cost_ns()
        total_entries = 0
        per_node_cost: List[int] = []
        rebuilt_pages: Set[Tuple[int, int]] = set()

        for node in machine.nodes:
            node_id = node.node_id
            addrs, values = decoded[node_id].undo_window(target_epoch,
                                                         committed)
            cost = len(addrs) * entry_cost
            if node_id == lost_node:
                for addr, value in zip(addrs, values):
                    page_key = (node_id, page_of(addr))
                    if page_key not in rebuilt_pages:
                        # Restoring into a lost page: rebuild its stripe
                        # member first so unlogged lines recover too.
                        self._rebuild_page(*page_key)
                        rebuilt_pages.add(page_key)
                        cost += self._page_rebuild_cost_ns()
                    restore_line(node_id, addr, value, lost_node)
            else:
                for addr, value in zip(addrs, values):
                    restore_line(node_id, addr, value, lost_node)
            total_entries += len(addrs)
            per_node_cost.append(cost)

        if lost_node is not None:
            # The lost node's log is replayed by the survivors; spread
            # its cost across them for the duration estimate.
            lost_cost = per_node_cost[lost_node]
            per_node_cost[lost_node] = 0
            workers = max(1, self.config.n_nodes - 1)
            per_node_cost = [c + lost_cost // workers for c in per_node_cost]

        phase3_ns = max(per_node_cost) if per_node_cost else 0
        return phase3_ns, total_entries, rebuilt_pages

    def _restore_line(self, node_id: int, line_addr: int, value: int,
                      lost_node: Optional[int]) -> None:
        """Write one line through the parity-maintaining restore path.

        Stripes whose parity page lives on the lost node are skipped —
        their parity is recomputed from data at the end of Phase 4.
        """
        machine = self.machine
        memory = machine.nodes[node_id].memory
        # One geometry lookup per line; log records are data lines, so
        # the entry always names a covering parity line.
        entry = machine.geom_cache.entry(line_addr)
        if entry[2] != lost_node:
            machine.revive.parity.fold_update(
                entry, memory.read_line(line_addr), value)
        memory.restore_line(line_addr, value)

    def _rebuild_page(self, node: int, ppage: int) -> None:
        """Functionally recompute one page from the rest of its stripe.

        For a lost data page the values are exactly what the live
        parity already accounts for, so these writes must *not* fold
        into the parity again; for a parity page (Phase 4) they are the
        recomputed parity itself.  Lines land in page order.
        """
        memory = self.machine.nodes[node].memory
        for line_addr, value in self.machine.revive.parity.stripe_xor(
                node, ppage):
            memory.restore_line(line_addr, value)

    # -- Phase 4 --------------------------------------------------------------

    def _background_repair(self, lost_node: Optional[int],
                           already: Set[Tuple[int, int]]
                           ) -> Tuple[int, int]:
        """Repair every stripe the recovery left damaged.

        Only the lost node's pages are stale: (a) its remaining data
        and reserved pages are rebuilt from parity, skipping
        ``already`` (the pages Phase 3 rebuilt on demand), and (b) its
        parity pages are recomputed from their data pages.  The
        rollback kept every other stripe's parity live through
        :meth:`~repro.core.parity.ParityEngine.apply_update`, so a
        transient fault repairs nothing.  The returned duration models
        the machine at ``rebuild_dedication`` of its capacity; the
        system is available throughout.
        """
        if lost_node is None:
            return 0, 0
        machine = self.machine
        space = machine.addr_space
        geometry = machine.revive.parity.geometry
        pages_rebuilt = 0

        # Remaining data pages of the lost node (mapped ones not already
        # rebuilt on demand during the rollback), then its reserved
        # pages outside the log region Phase 2 rebuilt: the system page
        # (context lines) and the I/O buffer region.
        mapped = space.mapped_physical_pages()
        data_pages = [page for node_id, page in mapped
                      if node_id == lost_node]
        data_pages.append(machine.system_page(lost_node))
        data_pages.extend(machine.io_region_pages(lost_node))
        for ppage in data_pages:
            if (lost_node, ppage) not in already:
                self._rebuild_page(lost_node, ppage)
                pages_rebuilt += 1

        # The lost node's parity pages of every touched stripe, in page
        # order; untouched stripes are all-zero and need no parity.
        touched = set(mapped)
        for node in machine.nodes:
            for ppage in machine.reserved_pages_of(node.node_id):
                touched.add((node.node_id, ppage))
        parity_pages = sorted({page for parity_node, page in
                               (geometry.parity_location(node_id, ppage)
                                for node_id, ppage in touched)
                               if parity_node == lost_node})
        for ppage in parity_pages:
            self._rebuild_page(lost_node, ppage)
        pages_rebuilt += len(parity_pages)

        workers = self.config.n_nodes - 1
        effective = max(1e-9, workers * self.revive_config.rebuild_dedication)
        phase4_ns = int(pages_rebuilt * self._page_rebuild_cost_ns()
                        / effective)
        return phase4_ns, pages_rebuilt

    # -- cost model -----------------------------------------------------------

    def _line_rebuild_cost_ns(self) -> int:
        """Gathering one line's stripe peers and writing the result."""
        group = self.machine.revive.parity.geometry.group_size
        transfer = self.config.line_size / self.config.link_bytes_per_ns
        return int(group * (self.config.mem_row_hit_ns + transfer)
                   + self.config.mem_row_hit_ns)

    def _page_rebuild_cost_ns(self) -> int:
        return self._line_rebuild_cost_ns() * self.config.lines_per_page

    def _entry_restore_cost_ns(self) -> int:
        """Read a log entry (sequential) and write the data line back."""
        return self.config.mem_row_hit_ns + self.config.mem_row_miss_ns
