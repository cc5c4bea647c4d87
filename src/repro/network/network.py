"""Network timing and traffic accounting.

A message from ``src`` to ``dst`` of ``nbytes``:

* occupies the source node's network interface for ``nbytes / ni_bw``;
* occupies every torus link along the dimension-order route for
  ``nbytes / link_bw`` (virtual cut-through: all links are claimed at
  injection time rather than staggered per hop — the difference is below
  the fidelity of this model);
* arrives after the Table 3 latency ``30ns + 8ns * hops``; and
* is charged to one of the five Figure-9 traffic categories.

Local (src == dst) transfers are free and generate no traffic, matching
the paper's accounting, which measures *network* traffic.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.machine.config import MachineConfig
from repro.network.topology import Torus2D, DIRECTIONS
from repro.sim.resources import Resource
from repro.sim.stats import StatsRegistry


class Network:
    """Contention-aware torus network bound to a stats registry."""

    def __init__(self, config: MachineConfig, stats: StatsRegistry) -> None:
        self.config = config
        self.stats = stats
        self.topology = Torus2D(config.torus_width, config.torus_height)
        self._ni: Dict[int, Resource] = {
            n: Resource(f"ni{n}", 0) for n in range(config.n_nodes)}
        self._links: Dict[Tuple[int, int], Resource] = {
            (n, d): Resource(f"link{n}.{d}", 0)
            for n in range(config.n_nodes) for d in DIRECTIONS}
        self.messages_sent = 0
        # Every (src, dst) pair's source NI, links in route order, and
        # Table 3 flight time, resolved once.  ``restore`` and ``reset``
        # refill the same Resource objects in place, so the table never
        # goes stale.
        self._paths: Dict[Tuple[int, int],
                          Tuple[Resource, Tuple[Resource, ...], int]] = {}
        for src in range(config.n_nodes):
            for dst in range(config.n_nodes):
                if src != dst:
                    route = self.topology.route(src, dst)
                    self._paths[src, dst] = (
                        self._ni[src],
                        tuple(self._links[link] for link in route),
                        config.net_base_ns
                        + config.net_per_hop_ns * len(route))
        # Message size -> (NI occupancy, link occupancy).
        self._occupancy: Dict[int, Tuple[int, int]] = {}
        self._traffic = stats.network_traffic.bytes_by_category

    def send(self, src: int, dst: int, nbytes: int, at: int,
             category: str) -> int:
        """Send a message; returns its arrival time at ``dst``."""
        if src == dst:
            return at
        self._traffic[category] += nbytes
        self.messages_sent += 1
        occupancy = self._occupancy.get(nbytes)
        if occupancy is None:
            occupancy = self._occupancy[nbytes] = (
                max(1, round(nbytes / self.config.ni_bytes_per_ns)),
                max(1, round(nbytes / self.config.link_bytes_per_ns)))
        ni_occupancy, link_occupancy = occupancy
        ni, links, flight = self._paths[src, dst]
        launch = ni.acquire(at, ni_occupancy) + ni_occupancy
        entry = launch
        for link in links:
            entry = link.acquire(entry, link_occupancy)
        return launch + flight

    def uncontended_latency(self, src: int, dst: int, nbytes: int) -> int:
        """Table 3 flight time of one message on an idle network.

        ``ni_occupancy + 30ns + 8ns × hops`` with dimension-order
        minimal-wrap routing — exactly what :meth:`send` returns when
        neither the NI nor any link is busy.  Span consumers use this
        as the contention-free floor when attributing a ``net`` segment
        to queueing versus propagation; tests pin it against
        hand-computed torus hop counts.
        """
        if src == dst:
            return 0
        ni_occupancy = max(1, round(nbytes / self.config.ni_bytes_per_ns))
        return ni_occupancy + self.config.net_latency(src, dst)

    def send_control(self, src: int, dst: int, at: int, category: str) -> int:
        """Header-only message (requests, acks, invalidations)."""
        return self.send(src, dst, self.config.header_bytes, at, category)

    def send_line(self, src: int, dst: int, at: int, category: str) -> int:
        """Message carrying one memory line plus header."""
        return self.send(src, dst, self.config.line_message_bytes(), at,
                         category)

    def link_utilization(self, elapsed: int) -> float:
        """Mean utilisation across all torus links."""
        if elapsed <= 0 or not self._links:
            return 0.0
        busy = sum(link.busy_time for link in self._links.values())
        return min(1.0, busy / (elapsed * len(self._links)))

    def reset(self) -> None:
        """Reset to the freshly-constructed state."""
        for resource in self._ni.values():
            resource.reset()
        for resource in self._links.values():
            resource.reset()
        self.messages_sent = 0

    def snapshot(self) -> Dict:
        """Plain-data state: NI and link calendars plus the message count.

        Keys are stringified for the link dict (tuples survive pickling
        but the uniform snapshot format stays JSON-friendly by indexing
        links positionally in construction order).
        """
        return {"ni": [self._ni[n].snapshot() for n in sorted(self._ni)],
                "links": [self._links[key].snapshot()
                          for key in self._links],
                "messages_sent": self.messages_sent}

    def digest_state(self) -> Dict:
        """Determinism-observatory hook (obs/digest.py).

        Defers to each calendar's ``digest_state`` (sorted,
        packed-int hashing) instead of exposing the raw ``snapshot()``
        bucket lists — far cheaper on a long run, and independent of
        the order requests were booked in.
        """
        return {"ni": [self._ni[n].digest_state()
                       for n in sorted(self._ni)],
                "links": [self._links[key].digest_state()
                          for key in self._links],
                "messages_sent": self.messages_sent}

    def restore(self, state: Dict) -> None:
        """Reinstate a :meth:`snapshot` (docs/SNAPSHOTS.md)."""
        for node, ni_state in zip(sorted(self._ni), state["ni"]):
            self._ni[node].restore(ni_state)
        for key, link_state in zip(self._links, state["links"]):
            self._links[key].restore(link_state)
        self.messages_sent = state["messages_sent"]
