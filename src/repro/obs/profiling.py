"""Wall-clock profiling of the simulator itself.

Distinct from the *simulated* statistics: a :class:`Profiler` measures
how much real (host) time each simulator component consumes and how
many engine activations are dispatched per wall-clock second — the
number the throughput regression guard
(``benchmarks/test_simulator_throughput.py``) tracks.

Components opt in with ``profiler.timer("machine.run")`` context
blocks; a machine with ``profiler=None`` (the default) pays a single
``is None`` check per hook point.  The harness surfaces the report
through :func:`repro.harness.reporting.profile_table` and the CLI's
``--profile`` flag.

Timers are re-entrant and nestable.  Each entry records both
*cumulative* time (wall clock between enter and exit, including nested
timers — :attr:`Profiler.wall_seconds`) and *self* time (cumulative
minus the time spent inside nested timers —
:attr:`Profiler.self_seconds`).  Self times partition the profiled
wall clock, so they sum without double-counting even when components
nest or re-enter; :attr:`Profiler.total_wall_seconds` relies on that
when no outermost ``machine.run`` timer ran.

Beyond component timers, a profiler carries the *host-time
attribution* maps filled by the engine's per-actor timers
(:meth:`repro.sim.engine.Simulator.run` with ``host_prof`` set) and
the fast-path tier instrumentation (``cpu/processor.py`` /
``cpu/columnar.py``):

* :attr:`actors` — per-actor-id ``[seconds, activations]``;
* :attr:`actor_meta` — per-actor-id ``(node, kind)`` labels;
* :attr:`fallout` — per-node ``[seconds, calls]`` spent in the scalar
  directory-protocol fallout path of the batch tiers (the
  docs/PERFORMANCE.md §1b ceiling, measured rather than narrated).

All three are plain dicts of plain lists so profiles pickle across
process pools and merge deterministically
(:func:`repro.obs.telemetry.merge_profiles`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Tuple


class Profiler:
    """Accumulates wall-clock seconds per named component."""

    def __init__(self) -> None:
        #: Cumulative wall seconds per component (includes nested timers).
        self.wall_seconds: Dict[str, float] = {}
        #: Self wall seconds per component (nested timer time excluded).
        self.self_seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Total engine activations dispatched (set by ``Machine.run``).
        self.events = 0
        #: Per-actor host time: ``{actor_id: [seconds, activations]}``.
        self.actors: Dict[int, List] = {}
        #: Per-actor labels: ``{actor_id: (node, kind)}``.
        self.actor_meta: Dict[int, Tuple[int, str]] = {}
        #: Scalar protocol-fallout time per node: ``{node: [sec, calls]}``.
        self.fallout: Dict[int, List] = {}
        # Active timer frames: [component, child_seconds] per entry.
        self._stack: List[List] = []

    @contextmanager
    def timer(self, component: str):
        """Time one entry into ``component`` (re-entrant, additive)."""
        frame = [component, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.wall_seconds[component] = (
                self.wall_seconds.get(component, 0.0) + elapsed)
            self.self_seconds[component] = (
                self.self_seconds.get(component, 0.0)
                + elapsed - frame[1])
            self.calls[component] = self.calls.get(component, 0) + 1
            if self._stack:
                # Charge this whole entry to the parent's child time so
                # the parent's self time excludes it.
                self._stack[-1][1] += elapsed

    def note_events(self, total_activations: int) -> None:
        """Record the cumulative engine activation count."""
        self.events = total_activations

    def note_actor(self, actor_id: int, seconds: float,
                   activations: int) -> None:
        """Merge one attribution batch for ``actor_id`` (additive)."""
        cell = self.actors.get(actor_id)
        if cell is None:
            self.actors[actor_id] = [seconds, activations]
        else:
            cell[0] += seconds
            cell[1] += activations

    def label_actor(self, actor_id: int, node: int, kind: str) -> None:
        """Attach a ``(node, kind)`` label to an actor id."""
        self.actor_meta[actor_id] = (node, kind)

    def fallout_cell(self, node: int) -> List:
        """The mutable ``[seconds, calls]`` fallout cell for ``node``.

        Fast-path closures capture the list once at bind time and
        mutate it in place, so the instrumented hot loop performs no
        dict lookups.
        """
        cell = self.fallout.get(node)
        if cell is None:
            cell = [0.0, 0]
            self.fallout[node] = cell
        return cell

    @property
    def total_wall_seconds(self) -> float:
        """Wall time of the outermost component (``machine.run``).

        Falls back to the sum of *self* times when the machine run
        loop was never profiled (e.g. profiling only a recovery) —
        self times partition the profiled wall clock, so nested or
        re-entrant timers never double-count here.
        """
        if "machine.run" in self.wall_seconds:
            return self.wall_seconds["machine.run"]
        return sum(self.self_seconds.values())

    @property
    def actor_seconds(self) -> float:
        """Total host seconds attributed to actor dispatch."""
        return sum(cell[0] for cell in self.actors.values())

    @property
    def fallout_seconds(self) -> float:
        """Total host seconds spent in the scalar protocol fallout path."""
        return sum(cell[0] for cell in self.fallout.values())

    @property
    def events_per_sec(self) -> float:
        """Engine activations dispatched per wall-clock second."""
        wall = self.total_wall_seconds
        return self.events / wall if wall > 0 else 0.0

    def report(self) -> List[Tuple[str, float, int]]:
        """Sorted ``(component, wall_seconds, calls)`` rows, hottest first."""
        return sorted(
            ((name, secs, self.calls.get(name, 0))
             for name, secs in self.wall_seconds.items()),
            key=lambda row: row[1], reverse=True)

    def self_report(self) -> List[Tuple[str, float, float, int]]:
        """Sorted ``(component, self_s, cum_s, calls)`` rows, hottest first."""
        return sorted(
            ((name, self.self_seconds.get(name, 0.0),
              self.wall_seconds.get(name, 0.0), self.calls.get(name, 0))
             for name in self.wall_seconds),
            key=lambda row: row[1], reverse=True)
