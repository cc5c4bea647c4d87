"""Calendar-based resource timelines for contention modelling.

Contention in the modelled machine (directory controllers, memory
modules, network interfaces and torus links) is represented with
*capacity calendars*: time is divided into fixed buckets and each
resource can serve ``ports * bucket_ns`` nanoseconds of work per
bucket.  A request arriving at time ``t`` consumes capacity starting at
the first bucket at/after ``t`` with room left, possibly spilling into
later buckets, and reports when its service could begin.

Why a calendar and not a single ``next_free`` timestamp: transaction
walks acquire resources *out of timestamp order* (a processor running
ahead inside its batch quantum, or one transaction touching the same
NI early and late in its own chain).  A busy-until timeline would make
an early-timestamp request queue behind a later-timestamp one — a pure
artifact that snowballs under bursts such as the checkpoint flush.  The
calendar admits each request at its own position in time, so idle
resources never delay anyone while genuine saturation still shows up
as growing waits.

Buckets older than a sliding horizon are pruned, keeping memory use
constant over arbitrarily long runs.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.columns import int_column

#: Calendar granularity.  Occupancies in this model are 1-25 ns, so a
#: 128 ns bucket keeps per-bucket arithmetic coarse but fair.
BUCKET_NS = 128

#: Buckets further than this behind the newest request are dropped.
#: Processor skew is bounded by the batch quantum (~2 us) plus one
#: transaction chain, so 100 us of history is far more than safe.
_PRUNE_HORIZON_NS = 100_000

_PRUNE_EVERY = 4096


class Resource:
    """A capacity calendar with ``ports`` parallel servers."""

    __slots__ = ("name", "service", "ports", "_capacity", "_buckets",
                 "busy_time", "requests", "_max_seen", "_since_prune",
                 "_full_until")

    def __init__(self, name: str, service: int, ports: int = 1) -> None:
        if ports < 1:
            raise ValueError("ports must be >= 1")
        self.name = name
        self.service = service
        self.ports = ports
        self._capacity = BUCKET_NS * ports
        self._buckets: Dict[int, int] = {}
        self.busy_time = 0
        self.requests = 0
        self._max_seen = 0
        self._since_prune = 0
        # All buckets <= _full_until are known completely full; scans
        # may skip them.  Keeps acquire O(1) amortised under saturation.
        self._full_until = -1

    def acquire(self, at: int, service: int = -1) -> int:
        """Consume ``service`` ns of capacity at/after ``at``.

        Returns the time service could begin; the caller adds its own
        latency on top.  A zero service is free and never waits.
        """
        if service < 0:
            service = self.service
        if service == 0:
            return at
        self.busy_time += service
        self.requests += 1
        if at > self._max_seen:
            self._max_seen = at
        self._since_prune += 1
        if self._since_prune >= _PRUNE_EVERY:
            self._prune()

        buckets = self._buckets
        capacity = self._capacity
        index = at // BUCKET_NS
        # Contiguous-prefix skip: buckets at/below _full_until never
        # regain capacity, so a request landing there jumps past them.
        extend_hint = False
        if index <= self._full_until:
            index = self._full_until + 1
            extend_hint = True
        else:
            # One-bucket fast path: the whole service fits in the
            # request's own bucket.  Books exactly what the loop below
            # would, and (without the hint) never moves _full_until.
            used = buckets.get(index, 0)
            if used + service <= capacity:
                buckets[index] = used + service
                begin = index * BUCKET_NS + used // self.ports
                return begin if begin > at else at
        start = None
        remaining = service
        while remaining > 0:
            used = buckets.get(index, 0)
            free = capacity - used
            if free > 0:
                if start is None:
                    # Service begins part-way into this bucket, behind
                    # the work already booked on its ports.
                    offset = used // self.ports
                    begin = index * BUCKET_NS + offset
                    start = begin if begin > at else at
                take = free if free < remaining else remaining
                used += take
                buckets[index] = used
                remaining -= take
            if used >= capacity and extend_hint \
                    and index == self._full_until + 1:
                self._full_until = index
            elif used < capacity:
                extend_hint = False
            index += 1
        return start

    def _prune(self) -> None:
        self._since_prune = 0
        cutoff = (self._max_seen - _PRUNE_HORIZON_NS) // BUCKET_NS
        if cutoff <= 0:
            return
        stale = [b for b in self._buckets if b < cutoff]
        for b in stale:
            del self._buckets[b]
        # Pruned history must never be re-booked: treat it as full.
        if cutoff - 1 > self._full_until:
            self._full_until = cutoff - 1

    def utilization(self, elapsed: int) -> float:
        """Fraction of ``elapsed`` nanoseconds the resource was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * self.ports))

    def reset(self) -> None:
        """Reset to the freshly-constructed state."""
        self._buckets.clear()
        self.busy_time = 0
        self.requests = 0
        self._max_seen = 0
        self._since_prune = 0
        self._full_until = -1

    def snapshot(self) -> Dict:
        """Plain-data state of the calendar and its counters.

        The bucket dict travels as two typed columns (bucket index,
        capacity used), in the dict's insertion order.
        """
        return {"buckets": int_column(self._buckets.keys()),
                "used": int_column(self._buckets.values()),
                "busy_time": self.busy_time,
                "requests": self.requests,
                "max_seen": self._max_seen,
                "since_prune": self._since_prune,
                "full_until": self._full_until}

    def digest_state(self) -> Dict:
        """Determinism-observatory hook (obs/digest.py).

        The bucket dict is the only bulky part of the calendar, so the
        fingerprint hashes its keys and values over the packed-int
        fast path instead of re-encoding them as canonical JSON at
        every window — an order of magnitude cheaper on a long run's
        calendar.  Key order is the dict's insertion order, the same
        order :meth:`snapshot` exposes; the snapshot oracle already
        guarantees that order is identical across execution tiers and
        snapshot/restore boundaries.
        """
        from repro.obs.digest import packed_ints_digest

        return {"buckets": packed_ints_digest(self._buckets.keys()),
                "occupancy": packed_ints_digest(self._buckets.values()),
                "busy_time": self.busy_time,
                "requests": self.requests,
                "max_seen": self._max_seen,
                "since_prune": self._since_prune,
                "full_until": self._full_until}

    def restore(self, state: Dict) -> None:
        """Reinstate a :meth:`snapshot` (docs/SNAPSHOTS.md)."""
        self._buckets.clear()
        self._buckets.update(zip(state["buckets"], state["used"]))
        self.busy_time = state["busy_time"]
        self.requests = state["requests"]
        self._max_seen = state["max_seen"]
        self._since_prune = state["since_prune"]
        self._full_until = state["full_until"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resource({self.name!r}, ports={self.ports})"


class MultiPortResource(Resource):
    """A resource with several parallel servers (e.g. DRAM banks)."""

    def __init__(self, name: str, service: int, ports: int) -> None:
        super().__init__(name, service, ports)
