"""Fault injection (Section 3.1.2's error classes).

Two fault models cover the paper's recovery scenarios:

* :class:`NodeLossFault` — permanent loss of an entire node: its memory
  contents (including its share of logs and parity), caches, and
  processor vanish.  Recovery needs all four phases.
* :class:`TransientSystemFault` — a system-wide glitch (e.g. all
  processors reset, all caches and in-flight messages lost) that leaves
  every memory module intact.  Recovery skips Phases 2 and 4 entirely
  and Phase 3 never rebuilds pages — the paper's fast path (~250 ms
  average unavailability instead of ~350 ms).

A fault is *applied* to a paused machine; the benchmark harness runs
the workload up to the detection time, applies the fault, and invokes
:class:`repro.core.recovery.RecoveryManager`.  Its trace events (the
directories' ``coh.clear``) are stamped at the paused machine's
simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.system import Machine


@dataclass(frozen=True)
class NodeLossFault:
    """Permanent loss of one node (worst case the paper evaluates)."""

    node: int

    def apply(self, machine: "Machine") -> None:
        """Inflict this fault on the machine."""
        if not 0 <= self.node < machine.config.n_nodes:
            raise ValueError(f"no such node: {self.node}")
        node = machine.nodes[self.node]
        node.memory.destroy()
        node.hierarchy.clear()
        node.directory.clear_all(at=machine.simulator.now)
        if self.node < len(machine.processors):
            machine.processors[self.node].kill()
        machine.stats.counter("fault.node_loss").add()

    @property
    def loses_memory(self) -> bool:
        """Whether this fault class destroys memory contents."""
        return True

    @property
    def lost_node(self) -> Optional[int]:
        """The node whose memory is lost, or ``None``."""
        return self.node


@dataclass(frozen=True)
class TransientSystemFault:
    """System-wide transient error; memory modules stay intact."""

    def apply(self, machine: "Machine") -> None:
        """Inflict this fault on the machine."""
        for node in machine.nodes:
            node.hierarchy.clear()
            node.directory.clear_all(at=machine.simulator.now)
        machine.stats.counter("fault.transient").add()

    @property
    def loses_memory(self) -> bool:
        """Whether this fault class destroys memory contents."""
        return False

    @property
    def lost_node(self) -> Optional[int]:
        """The node whose memory is lost, or ``None``."""
        return None
