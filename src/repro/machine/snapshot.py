"""Whole-machine snapshot capture and restore (docs/SNAPSHOTS.md).

A machine snapshot is a plain-data (picklable, no object references)
image of every mutable simulation variable: the event queue, each
node's caches/directory/memory/timing calendars, the network, the
address space, the ReVive logs and checkpoint history, the processors'
stream cursors, and the statistics registry.  Restoring the image onto
a *freshly built* machine of the same configuration — same
:class:`~repro.machine.config.MachineConfig`, same
:class:`~repro.core.config.ReViveConfig`, same workload — resumes the
simulation bit-identically: traces, ledgers, and counters continue
exactly as if the run had never been interrupted (the roundtrip oracle
in ``tests/test_snapshot_oracle.py`` enforces this).

What is *not* serialized, and why it is safe:

* **Actor closures.**  The event queue stores ``(time, seq, actor_id)``
  descriptors; the actor registry is rebuilt deterministically because
  ``attach_workload`` schedules processors in node order.
* **Workload streams.**  Streams are pure functions of (workload spec,
  proc id); each processor records how many chunks it consumed, and a
  restored processor replays that many on its first dispatch
  (:meth:`repro.workloads.base.Workload.replay_stream`) — a restored
  machine that never runs a processor again never replays its stream.

Bulky integer state (calendar buckets, memory-line addresses,
directory rows, log-size samples) is stored as typed ``array``
columns (:func:`repro.sim.columns.int_column`), so an image unpickles
into a few hundred containers instead of tens of thousands.
* **Compiled batch closures.**  The columnar batch engine flushes its
  local counters at chunk and deadline boundaries — exactly the points
  where the machine is quiescent enough to snapshot — and is
  re-compiled lazily after a restore.  It also caches derived columns
  (line addresses, L1 stack distances, L2 purity windows) and defers
  L2 LRU refreshes; cache ``sync_hook``s force those pending refreshes
  into the real dicts before ``snapshot()`` reads them, and ``restore``
  drops the hooks so the restored dict state is authoritative.  Images
  are therefore tier-independent: a snapshot captured under one
  execution tier resumes bit-identically under any other
  (``tests/test_columnar.py::TestSnapshotTierSwitch``).
* **Static geometry.**  Parity layout, reserved regions, and the
  memoized geometry cache are pure functions of the configs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.system import Machine

#: Bump when the snapshot layout changes; stored images carry it and a
#: mismatch on restore fails loudly instead of resuming garbage.
SNAPSHOT_VERSION = 2


class SnapshotError(RuntimeError):
    """A snapshot cannot be applied to this machine."""


def capture_machine(machine: "Machine") -> Dict:
    """Build the plain-data image of the machine's mutable state."""
    state: Dict = {
        "version": SNAPSHOT_VERSION,
        "n_nodes": machine.config.n_nodes,
        "sim": machine.simulator.snapshot(),
        "nodes": [node.snapshot() for node in machine.nodes],
        "network": machine.network.snapshot(),
        "addr_space": machine.addr_space.snapshot(),
        "stats": machine.stats.state(),
        "processors": [proc.snapshot() for proc in machine.processors],
        "store_counter": machine._store_counter,
        "barriers": [[index, list(barrier.arrived.items()),
                      barrier.release_time]
                     for index, barrier in machine._barriers.items()],
        "golden": {epoch: {node: dict(lines)
                           for node, lines in by_node.items()}
                   for epoch, by_node in machine.snapshots.items()},
        "warmup_reset_done": getattr(machine, "_warmup_reset_done", False),
        "warmup_end_time": getattr(machine, "warmup_end_time", None),
        "trace_seq": getattr(machine.tracer, "_seq", 0),
        "span_next_txn": getattr(machine.spans, "next_txn", 1),
        "digest": (machine.digests.chain.to_jsonable()
                   if machine.digests is not None else None),
        "revive": None,
        "checkpointing": None,
        "io": None,
    }
    if machine.revive is not None:
        state["revive"] = machine.revive.snapshot()
        state["parity"] = machine.revive.parity.snapshot()
    if machine.checkpointing is not None:
        state["checkpointing"] = machine.checkpointing.snapshot()
    if machine.io_manager is not None:
        state["io"] = machine.io_manager.snapshot()
    return state


def restore_machine(machine: "Machine", state: Dict) -> None:
    """Overlay a captured image onto a compatibly-built machine.

    The machine must have been built with the same configs and have the
    same workload attached (so the actor registry and reserved-region
    geometry match).  Mutates every component in place and invalidates
    the processors' compiled batch closures.
    """
    version = state.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version!r} != supported {SNAPSHOT_VERSION}")
    if state["n_nodes"] != machine.config.n_nodes:
        raise SnapshotError(
            f"snapshot is for {state['n_nodes']} nodes; machine has "
            f"{machine.config.n_nodes}")
    if len(state["processors"]) != len(machine.processors):
        raise SnapshotError(
            f"snapshot has {len(state['processors'])} processors; "
            f"machine has {len(machine.processors)} (attach the same "
            f"workload before restoring)")
    if (state["revive"] is None) != (machine.revive is None):
        raise SnapshotError("snapshot and machine disagree on ReVive")

    machine.simulator.restore(state["sim"])
    for node, node_state in zip(machine.nodes, state["nodes"]):
        node.restore(node_state)
    machine.network.restore(state["network"])
    machine.addr_space.restore(state["addr_space"])
    machine.stats.restore(state["stats"])
    for proc, proc_state in zip(machine.processors, state["processors"]):
        proc.restore(proc_state)
    machine._store_counter = state["store_counter"]
    machine._barriers.clear()
    for index, arrived, release_time in state["barriers"]:
        barrier = machine._barrier_state()
        barrier.arrived.update(arrived)
        barrier.release_time = release_time
        machine._barriers[index] = barrier
    machine.snapshots.clear()
    machine.snapshots.update(
        {epoch: {node: dict(lines) for node, lines in by_node.items()}
         for epoch, by_node in state["golden"].items()})
    machine._warmup_reset_done = state["warmup_reset_done"]
    if state["warmup_end_time"] is not None:
        machine.warmup_end_time = state["warmup_end_time"]
    if machine.revive is not None:
        machine.revive.restore(state["revive"])
        machine.revive.parity.restore(state["parity"])
    if machine.checkpointing is not None \
            and state["checkpointing"] is not None:
        machine.checkpointing.restore(state["checkpointing"])
    if machine.io_manager is not None and state["io"] is not None:
        machine.io_manager.restore(state["io"])
    # The observability stream continues where the image left off:
    # sequence numbers and span transaction ids resume so a restored
    # run's trace is byte-identical to the uninterrupted one.
    if machine.tracer.enabled:
        machine.tracer._seq = state["trace_seq"]
    if machine.spans.enabled:
        machine.spans.next_txn = state["span_next_txn"]
    # The digest chain resumes the same way (docs/OBSERVABILITY.md,
    # "Determinism observatory"): a digesting machine restored from a
    # digesting run's image continues that run's chain, so the stepped
    # run's chain is identical to the uninterrupted reference's.
    if machine.digests is not None and state.get("digest") is not None:
        from repro.obs.digest import DigestChain

        machine.digests.chain = DigestChain.from_jsonable(state["digest"])
    machine.geom_cache.invalidate()
