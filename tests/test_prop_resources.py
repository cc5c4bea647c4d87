"""Property-based tests for the calendar resource and the torus."""

from hypothesis import given, settings, strategies as st

from repro.network.topology import Torus2D
from repro.sim import resources
from repro.sim.resources import BUCKET_NS, Resource

_PRUNE_EVERY = resources._PRUNE_EVERY


class _LoopResource(Resource):
    """The calendar as it booked before the one-bucket fast path: every
    request walks the bucket loop.  The equivalence oracle below."""

    __slots__ = ()

    def acquire(self, at: int, service: int = -1) -> int:
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
        extend_hint = False
        if index <= self._full_until:
            index = self._full_until + 1
            extend_hint = True
        start = None
        remaining = service
        while remaining > 0:
            used = buckets.get(index, 0)
            free = capacity - used
            if free > 0:
                if start is None:
                    begin = index * BUCKET_NS + used // self.ports
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


#: One step of a request stream: advance the clock by ``step`` ns, then
#: book ``repeat`` requests of ``service`` ns at ``clock - lag`` (a
#: repeat above one is a saturated burst; a lag books out of order, and
#: a long one reaches behind the prune horizon).
_STEPS = st.tuples(st.integers(0, 6_000),
                   st.one_of(st.integers(0, 3_000),
                             st.integers(100_000, 150_000)),
                   st.integers(1, 300), st.integers(1, 12))


@settings(max_examples=50, deadline=None)
@given(st.lists(_STEPS, min_size=8, max_size=120),
       st.integers(1, 4), st.integers(100_000, 400_000),
       st.integers(_PRUNE_EVERY - 8, _PRUNE_EVERY - 1))
def test_fast_path_books_exactly_like_the_loop(steps, ports, clock,
                                               since_prune):
    """Starts and every calendar field match the loop, request by request,
    across bursts, out-of-order bookings and prune crossings."""
    fast = Resource("r", 20, ports=ports)
    loop = _LoopResource("r", 20, ports=ports)
    # Enter the stream close to a prune so short streams cross one.
    for r in (fast, loop):
        r._since_prune = since_prune
    for step, lag, service, repeat in steps:
        clock += step
        at = max(0, clock - lag)
        for _ in range(repeat):
            assert fast.acquire(at, service) == loop.acquire(at, service)
            assert fast.snapshot() == loop.snapshot()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50_000), st.integers(1, 100)),
                min_size=1, max_size=300),
       st.integers(1, 8))
def test_acquire_never_starts_before_request(requests, ports):
    r = Resource("r", 10, ports=ports)
    for at, service in requests:
        start = r.acquire(at, service)
        assert start >= at


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20_000), st.integers(1, 60)),
                min_size=1, max_size=200))
def test_busy_time_equals_total_service(requests):
    r = Resource("r", 10)
    for at, service in requests:
        r.acquire(at, service)
    assert r.busy_time == sum(s for _a, s in requests)
    assert r.requests == len(requests)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 50), st.integers(1, BUCKET_NS))
def test_capacity_is_conserved_per_bucket(n, service):
    """No bucket may ever be booked past its capacity."""
    r = Resource("r", service)
    for _ in range(n):
        r.acquire(0)
    assert all(0 < used <= r._capacity for used in r._buckets.values())
    booked = sum(r._buckets.values())
    assert booked == n * service


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8),
       st.integers(0, 63), st.integers(0, 63))
def test_torus_route_is_minimal_and_correct(width, height, a, b):
    t = Torus2D(width, height)
    src, dst = a % t.n_nodes, b % t.n_nodes
    route = t.route(src, dst)
    assert len(route) == t.hops(src, dst)
    node = src
    for link_node, direction in route:
        assert link_node == node
        node = t.neighbor(node, direction)
    assert node == dst
    # Minimality: no dimension detour beyond half the ring.
    assert t.hops(src, dst) <= width // 2 + height // 2


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8),
       st.integers(0, 63), st.integers(0, 63))
def test_torus_hops_symmetric(width, height, a, b):
    t = Torus2D(width, height)
    src, dst = a % t.n_nodes, b % t.n_nodes
    assert t.hops(src, dst) == t.hops(dst, src)
