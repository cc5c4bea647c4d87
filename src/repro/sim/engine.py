"""Event queue and simulator clock.

The simulator interleaves *actors* (in practice, processors) on a binary
heap ordered by their next activation time.  Each activation runs a batch
of work for one actor and returns the time of that actor's next
activation, or ``None`` when the actor has finished.

Times are integer nanoseconds.  The modelled core clock is 1 GHz, so one
nanosecond is one cycle (Table 3 of the paper).

Serializability (docs/SNAPSHOTS.md): the heap holds declarative
``(time, seq, actor_id)`` descriptors — plain integers — rather than
the actor callables themselves.  Actors are registered in a side table
(:attr:`Simulator.actors`) in first-scheduling order, which is
deterministic, so a snapshot of the heap is pure data and a restored
machine that registers its actors in the same order re-derives the
identical dispatch schedule.  :meth:`Simulator.snapshot` /
:meth:`Simulator.restore` capture and reinstate the queue, clock, hook
trigger time, and activation count; the hook *callable* is never
serialized — the owning machine re-installs it on reconstruction.

Observability: the simulator counts every activation it dispatches
(``activations``) and, when a :class:`~repro.obs.tracer.Tracer` is
installed in ``tracer``, emits the ``sim`` category events documented
in ``docs/OBSERVABILITY.md`` — ``sim.run_begin`` / ``sim.run_end``
around each :meth:`Simulator.run` call, ``sim.hook_fire`` when the
global hook triggers, and ``sim.actor_retire`` when an actor finishes.
All emission sites are guarded by ``tracer.enabled`` so an untraced
run pays one attribute read per event site.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.obs.tracer import NULL_TRACER


class EventQueue:
    """A min-heap of ``(time, sequence, actor_id)`` descriptors.

    The monotonically increasing sequence number makes ordering total and
    deterministic even when several entries share a timestamp, which keeps
    whole-simulation results reproducible run to run.  Entries are plain
    integer triples — the queue never holds closures — so
    :meth:`snapshot` is a literal copy of the heap.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0

    def push(self, time: int, actor_id: int) -> None:
        """Insert an actor descriptor at the given time."""
        if time < 0:
            raise ValueError(f"cannot schedule at negative time {time}")
        heapq.heappush(self._heap, (time, self._seq, actor_id))
        self._seq += 1

    def pop(self):
        """Remove and return the earliest ``(time, actor_id)`` entry."""
        time, _seq, actor_id = heapq.heappop(self._heap)
        return time, actor_id

    def peek_time(self) -> Optional[int]:
        """Return the earliest scheduled time, or ``None`` when empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def clear(self) -> None:
        """Drop all contents."""
        self._heap.clear()

    def snapshot(self) -> Dict:
        """Plain-data state: the heap entries and the sequence counter."""
        return {"heap": [list(entry) for entry in self._heap],
                "seq": self._seq}

    def restore(self, state: Dict) -> None:
        """Reinstate a :meth:`snapshot` (entries are already heap-ordered)."""
        self._heap = [tuple(entry) for entry in state["heap"]]
        heapq.heapify(self._heap)
        self._seq = state["seq"]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


def _timed(actor: Callable, cell: List) -> Callable:
    """Wrap ``actor`` to time each call into ``cell`` (seconds, calls)."""
    def timed(now: int) -> Optional[int]:
        begin = perf_counter()
        next_activation = actor(now)
        cell[0] += perf_counter() - begin
        cell[1] += 1
        return next_activation
    return timed


def _digested(actor: Callable, hook: Callable[[], None]) -> Callable:
    """Wrap ``actor`` to call ``hook()`` after every activation."""
    def digested(now: int) -> Optional[int]:
        next_activation = actor(now)
        hook()
        return next_activation
    return digested


class _ObservedActors(dict):
    """The actor table of one observed :meth:`Simulator.run` call.

    Maps an actor id to a wrapper around ``actors[id]``, built on first
    dispatch, so an actor registered mid-run is observed too.  The
    ``host_prof`` wrapper times each call into a ``[seconds,
    activations]`` cell that :meth:`flush` charges once per run; the
    ``digest_hook`` wrapper calls the hook after each activation,
    outside the timed bracket.  Both compose.
    """

    __slots__ = ("actors", "prof", "digest_hook", "cells")

    def __init__(self, sim: "Simulator") -> None:
        super().__init__()
        self.actors = sim.actors
        self.prof = sim.host_prof
        self.digest_hook = sim.digest_hook
        self.cells: Dict[int, List] = {}

    def __missing__(self, actor_id: int) -> Callable:
        call = self.actors[actor_id]
        if self.prof is not None:
            call = _timed(call, self.cells.setdefault(actor_id, [0.0, 0]))
        if self.digest_hook is not None:
            call = _digested(call, self.digest_hook)
        self[actor_id] = call
        return call

    def flush(self) -> None:
        """Charge each dispatched actor's cell to the profiler, labelled
        ``(node, kind)`` on first sight."""
        prof = self.prof
        for actor_id, (seconds, activations) in self.cells.items():
            prof.note_actor(actor_id, seconds, activations)
            if actor_id not in prof.actor_meta:
                actor = self.actors[actor_id]
                node = getattr(actor, "node_id",
                               getattr(actor, "proc_id", None))
                kind = type(getattr(actor, "__self__", actor)).__name__
                prof.label_actor(actor_id,
                                 node if node is not None else -1, kind)


class Simulator:
    """Drives actors until all are finished or a time horizon is reached.

    An actor is any callable ``actor(now) -> Optional[int]``: it performs
    its next batch of work starting at ``now`` and returns the absolute
    time at which it wants to run again (``None`` to retire).  Actors are
    registered on first scheduling and addressed by their registration
    index from then on; the heap itself only ever holds those indices.

    A *global hook* may be installed with :meth:`set_global_hook`; it is a
    callable ``hook(now) -> Optional[int]`` consulted before each actor
    activation.  The machine model uses it to trigger global checkpoints:
    when the earliest pending activation passes the hook's trigger time,
    the hook runs synchronously (it may reschedule every actor) and
    returns the next trigger time.
    """

    __slots__ = ("queue", "now", "_hook", "_hook_time", "activations",
                 "tracer", "actors", "_actor_ids", "host_prof",
                 "digest_hook")

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now = 0
        self._hook: Optional[Callable[[int], Optional[int]]] = None
        self._hook_time: Optional[int] = None
        #: Total actor activations dispatched over the simulator's life.
        self.activations = 0
        #: Trace sink for ``sim.*`` events (``NULL_TRACER`` when off).
        self.tracer = NULL_TRACER
        #: Host-time attribution sink (a
        #: :class:`~repro.obs.profiling.Profiler`), or ``None`` — the
        #: default — in which case :meth:`run` times nothing.
        #: Deliberately host-side state: :meth:`snapshot`/:meth:`restore`
        #: never touch it.
        self.host_prof = None
        #: Event-granularity digest hook (determinism observatory,
        #: docs/OBSERVABILITY.md): a zero-argument callable invoked
        #: after *every* actor activation, or ``None`` — the default.
        #: Used only by ``repro diff --bisect`` replays; like
        #: ``host_prof`` it is deliberately host-side state that
        #: snapshots never touch.
        self.digest_hook = None
        #: Registered actors, indexed by actor id (registration order).
        self.actors: List[Callable[[int], Optional[int]]] = []
        self._actor_ids: Dict[int, int] = {}

    def register_actor(self, actor: Callable[[int], Optional[int]]) -> int:
        """Assign (or look up) the actor's stable integer id.

        Registration order is the id order; machines register their
        processors in node order, so a rebuilt machine derives identical
        ids and a snapshotted heap resolves to the equivalent actors.
        """
        actor_id = self._actor_ids.get(id(actor))
        if actor_id is None:
            actor_id = len(self.actors)
            self.actors.append(actor)
            self._actor_ids[id(actor)] = actor_id
        return actor_id

    def schedule(self, time: int,
                 actor: Callable[[int], Optional[int]]) -> None:
        """Enqueue an actor's first activation (registering it if new)."""
        self.queue.push(time, self.register_actor(actor))

    def set_global_hook(self, first_time: Optional[int],
                        hook: Callable[[int], Optional[int]]) -> None:
        """Install ``hook`` to fire when simulated time reaches
        ``first_time``."""
        self._hook = hook
        self._hook_time = first_time

    def expedite_hook(self, time: int) -> None:
        """Pull the global hook's next firing forward to ``time``.

        Used for asynchronously-triggered checkpoints (e.g. log
        pressure): the hook fires before the next actor event at or
        after ``time``.  A later scheduled time is left untouched.
        """
        if self._hook is None or self._hook_time is None:
            return
        if time < self._hook_time:
            self._hook_time = time

    def snapshot(self) -> Dict:
        """Plain-data engine state (docs/SNAPSHOTS.md).

        Covers the event queue, the clock, the hook's next trigger time,
        and the activation count.  The hook callable and the registered
        actors are deliberately absent: both are re-derived by the
        machine that owns the simulator (the hook is re-installed at
        construction, the actors re-register in the same order).
        """
        return {"queue": self.queue.snapshot(),
                "now": self.now,
                "hook_time": self._hook_time,
                "activations": self.activations}

    def restore(self, state: Dict) -> None:
        """Reinstate a :meth:`snapshot` over the current actor registry."""
        self.queue.restore(state["queue"])
        self.now = state["now"]
        self._hook_time = state["hook_time"]
        self.activations = state["activations"]

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains or simulated time exceeds ``until``.

        Returns the final simulated time (the largest activation time
        processed).

        Trace events (category ``sim``): ``sim.run_begin`` and
        ``sim.run_end`` bracketing this call, ``sim.hook_fire`` at
        each global-hook trigger, and ``sim.actor_retire`` when an
        actor returns ``None``.

        Observation (``host_prof``, ``digest_hook``) wraps the actor
        calls (:class:`_ObservedActors`), never this loop, so observed
        and unobserved runs dispatch identically.
        """
        tracer = self.tracer
        actors = self.actors
        observed = None
        if self.host_prof is not None or self.digest_hook is not None:
            actors = observed = _ObservedActors(self)
        if tracer.enabled:
            tracer.emit(self.now, "sim", "sim.run_begin", until=until,
                        pending=len(self.queue))
        while self.queue:
            next_time = self.queue.peek_time()
            if (self._hook is not None and self._hook_time is not None
                    and next_time is not None
                    and next_time >= self._hook_time):
                # Fire the global hook at its trigger time — before the
                # horizon check, so a hook due within ``until`` runs
                # even when the next actor event lies beyond it.  The
                # hook may mutate the queue (reschedule every actor),
                # so loop back to re-inspect the head afterwards.
                if until is not None and self._hook_time > until:
                    break
                self.now = max(self.now, self._hook_time)
                if tracer.enabled:
                    tracer.emit(self._hook_time, "sim", "sim.hook_fire")
                self._hook_time = self._hook(self._hook_time)
                continue
            if until is not None and next_time is not None \
                    and next_time > until:
                break
            time, actor_id = self.queue.pop()
            actor = actors[actor_id]
            # Batched dispatch: while this actor is the only live one
            # (the common case once other processors retire, and always
            # in single-processor runs), keep activating it directly
            # instead of cycling the heap.  Hook and horizon are
            # re-checked before every activation, exactly as the outer
            # loop would, so activation counts, hook firings and trace
            # events are identical to unbatched dispatch.
            while True:
                self.now = max(self.now, time)
                self.activations += 1
                next_activation = actor(time)
                if next_activation is None:
                    if tracer.enabled:
                        tracer.emit(self.now, "sim", "sim.actor_retire",
                                    actor=getattr(self.actors[actor_id],
                                                  "proc_id", None))
                    break
                if self.queue:
                    # Another actor is pending — interleave via the heap.
                    self.queue.push(next_activation, actor_id)
                    break
                if (self._hook is not None and self._hook_time is not None
                        and next_activation >= self._hook_time):
                    # Let the outer loop fire the hook (it may drain
                    # and rebuild the queue, so the actor must be in it).
                    self.queue.push(next_activation, actor_id)
                    break
                if until is not None and next_activation > until:
                    self.queue.push(next_activation, actor_id)
                    break
                time = next_activation
        if observed is not None:
            observed.flush()
        if tracer.enabled:
            tracer.emit(self.now, "sim", "sim.run_end",
                        activations=self.activations)
        return self.now

    def drain_rebuild(
            self, reschedule: Callable[[Callable], Optional[int]]) -> None:
        """Empty the queue and re-enqueue each actor at a new time.

        ``reschedule(actor)`` returns the actor's new activation time or
        ``None`` to drop it.  Used by the checkpoint coordinator, which
        must move every processor past the commit barrier at once.
        """
        pending = []
        while self.queue:
            _t, actor_id = self.queue.pop()
            pending.append(actor_id)
        for actor_id in pending:
            new_time = reschedule(self.actors[actor_id])
            if new_time is not None:
                self.queue.push(new_time, actor_id)
