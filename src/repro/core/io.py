"""ReVive I/O: output commit and input logging (Section 8's extension).

The paper defers I/O to future work but sketches the approach: "our
distributed parity mechanism is a powerful building block that can be
used to protect the I/O buffers."  This module implements that sketch
for the classic *output-commit problem*:

* **Outputs** (network packets, disk writes) must not become externally
  visible until a checkpoint that covers them commits — otherwise a
  rollback would un-happen something the outside world already saw.
  Outbound records are therefore buffered in a per-node I/O region of
  ordinary parity-protected main memory (stored through the same
  marker-protected record format as the ReVive log, so they survive
  node loss) and *released* only at the next global commit.
* **Inputs** are logged on arrival, also into the protected region, so
  that after a rollback the re-executed interval can *replay* the same
  inputs instead of asking the outside world to resend them.

Rollback semantics: records created after the recovery target are
discarded (they were never released); released records are external
history and are never touched.  Node loss: the I/O region is rebuilt
from parity with the rest of memory, and the pending records are
re-decoded from the rebuilt bytes — the same recovery discipline the
log itself uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from repro.core.log import MemoryLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.system import Machine

#: Address-field namespace for I/O records: output ports live above
#: input ports so decode can tell the directions apart.
_OUTPUT_BASE = 1 << 20
_INPUT_BASE = 1


@dataclass(frozen=True)
class IORecord:
    """One buffered I/O event."""

    node: int
    port: int
    payload: int
    epoch: int            # epoch the record was created in
    is_output: bool


class IOManager:
    """Output-commit buffering and input logging for one machine.

    Construction requires ``ReViveConfig.io_buffer_pages > 0`` so every
    node has a reserved, parity-protected I/O region.
    """

    def __init__(self, machine: "Machine") -> None:
        if machine.revive is None:
            raise ValueError("ReVive must be enabled for I/O buffering")
        if not machine.io_region_pages(0):
            raise ValueError(
                "no I/O region reserved; set ReViveConfig.io_buffer_pages")
        self.machine = machine
        self.buffers: Dict[int, MemoryLog] = {}
        for node in range(machine.config.n_nodes):
            region = machine.io_region_lines(node)
            self.buffers[node] = MemoryLog(node, region,
                                           machine.config.line_size)
        self.released: List[IORecord] = []
        self.inputs_seen: List[IORecord] = []

    # -- issue paths ---------------------------------------------------------

    def write_output(self, node: int, port: int, payload: int,
                     at: int) -> int:
        """Buffer one outbound record; returns the buffering done-time.

        The record becomes externally visible only when the next global
        checkpoint commits.
        """
        return self._append(node, _OUTPUT_BASE + port, payload, at)

    def log_input(self, node: int, port: int, payload: int, at: int) -> int:
        """Log one inbound record for post-rollback replay."""
        done = self._append(node, _INPUT_BASE + port, payload, at)
        log = self.buffers[node]
        self.inputs_seen.append(IORecord(node, port, payload,
                                         log.current_epoch,
                                         is_output=False))
        return done

    def _append(self, node: int, addr_field: int, payload: int,
                at: int) -> int:
        # Records travel the controller's marker-protected append path:
        # functional content + parity exactness + timing for free.
        controller = self.machine.revive
        return controller.append_record_to(self.buffers[node], node,
                                           addr_field << 6, payload, at)

    # -- checkpoint / recovery hooks ------------------------------------------

    def on_commit(self, committed_epoch: int) -> List[IORecord]:
        """Release every output buffered before this commit.

        Returns the newly released records (the 'external world' sees
        them now).  Buffers advance to the new epoch and reclaim, like
        the log itself.
        """
        released_now: List[IORecord] = []
        for node, log in self.buffers.items():
            memory = self.machine.nodes[node].memory
            node_records = [
                IORecord(node, (entry.addr >> 6) - _OUTPUT_BASE,
                         entry.value, entry.epoch, is_output=True)
                for entry in log.entries_to_undo(log.current_epoch,
                                                 log.current_epoch,
                                                 memory.read_line)
                if (entry.addr >> 6) >= _OUTPUT_BASE
            ]
            node_records.reverse()            # per-node issue order
            released_now.extend(node_records)
            log.advance_epoch()
            log.reclaim(log.current_epoch)    # everything released/replayed
            log.gang_clear_logged()
        # Ordering is per-node FIFO; cross-node order is unspecified,
        # as for any distributed set of I/O buffers.
        self.released.extend(released_now)
        return released_now

    def on_rollback(self, target_epoch: int) -> int:
        """Discard the unreleased (current-epoch) records.

        Returns how many pending records were dropped.  Released
        records are external history and are preserved.  The buffer
        epoch advances monotonically rather than rewinding with the
        machine: rewinding would alias stale released records whose
        markers are still in memory, and the buffer's epoch is a
        private commit counter, not the checkpoint number.
        """
        dropped = 0
        for node, log in self.buffers.items():
            memory = self.machine.nodes[node].memory
            dropped += len(log.entries_to_undo(log.current_epoch,
                                               log.current_epoch,
                                               memory.read_line))
            log.advance_epoch()
            log.reclaim(log.current_epoch)
            log.gang_clear_logged()
        return dropped

    # -- snapshot / restore (docs/SNAPSHOTS.md) -------------------------------

    def snapshot(self) -> dict:
        """Plain-data state: buffer logs + released/seen record lists."""
        def _rec(r: IORecord) -> list:
            return [r.node, r.port, r.payload, r.epoch, r.is_output]
        return {"buffers": {n: log.snapshot()
                            for n, log in self.buffers.items()},
                "released": [_rec(r) for r in self.released],
                "inputs_seen": [_rec(r) for r in self.inputs_seen]}

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`snapshot`."""
        for n, log_state in state["buffers"].items():
            self.buffers[n].restore(log_state)
        self.released[:] = [IORecord(*r) for r in state["released"]]
        self.inputs_seen[:] = [IORecord(*r) for r in state["inputs_seen"]]

    # -- queries --------------------------------------------------------------

    def pending_outputs(self) -> List[IORecord]:
        """Outputs buffered but not yet released (decoded from memory)."""
        out: List[IORecord] = []
        for node, log in self.buffers.items():
            memory = self.machine.nodes[node].memory
            node_records = [
                IORecord(node, (entry.addr >> 6) - _OUTPUT_BASE,
                         entry.value, entry.epoch, is_output=True)
                for entry in log.entries_to_undo(log.current_epoch,
                                                 log.current_epoch,
                                                 memory.read_line)
                if (entry.addr >> 6) >= _OUTPUT_BASE
            ]
            node_records.reverse()            # per-node issue order
            out.extend(node_records)
        return out

    def replay_inputs(self, since_epoch: int) -> List[IORecord]:
        """Inputs to replay when re-executing after a rollback."""
        return [r for r in self.inputs_seen if r.epoch >= since_epoch]
