"""Structured event tracing with a versioned, documented schema.

A :class:`Tracer` turns instrumentation points scattered through the
simulator into a single ordered stream of JSON-serialisable event
dicts.  Every event carries the same envelope::

    {"v": 2, "seq": 0, "ts": 125000, "cat": "ckpt", "name": "ckpt.begin",
     ...event-specific fields...}

``v`` is the schema version (:data:`SCHEMA_VERSION`), ``seq`` a
monotonically increasing per-tracer sequence number, ``ts`` the
simulated time in integer nanoseconds, ``cat`` the event category and
``name`` the event name.  The full catalog of categories, names, and
per-event fields is documented in ``docs/OBSERVABILITY.md`` — the
schema is a stable, versioned interface: fields are only ever *added*
within a version, and any rename or removal bumps ``SCHEMA_VERSION``.

Design constraints, in order of importance:

* **Zero cost when off.**  Instrumentation sites guard every emission
  with ``if tracer.enabled:``; components default to the shared
  :data:`NULL_TRACER` whose ``enabled`` is ``False``, so an untraced
  simulation pays one attribute read per site and never builds an
  event dict (``benchmarks/test_simulator_throughput.py`` pins this).
* **Category filtering.**  A tracer built with ``categories={"ckpt",
  "recovery"}`` drops everything else at the emission point, before
  the sink sees it.
* **Pluggable sinks.**  :class:`JsonlFileSink` streams events to a
  JSONL file, :class:`RingBufferSink` keeps the last N events in
  memory for tests and post-mortems.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, Iterable, List, Optional, Set

#: Version of the trace event schema (the ``v`` field of every event).
#: Bumped on any backwards-incompatible change; see docs/OBSERVABILITY.md.
#: v2 added the ``span`` category (transaction-level causal spans with
#: segment attribution) — v1 events are unchanged.
SCHEMA_VERSION = 2

#: The known event categories, in emission-site order.  ``svc`` events
#: come from the serving layer (result cache + simulation service, see
#: docs/SERVING.md), happen outside simulated time, and carry ``ts`` 0
#: by convention.  ``prof`` (host-time attribution snapshots) and
#: ``stats`` (live service heartbeats/metrics) are host-side too and
#: share the ``ts`` 0 convention.  ``digest`` events (determinism
#: observatory, one window per checkpoint boundary) carry the commit
#: time of the window they fingerprint.  Adding a category is additive
#: within a schema version — readers ignore categories they do not
#: know.
CATEGORIES = ("sim", "coh", "mem", "log", "ckpt", "recovery", "span",
              "svc", "snap", "prof", "stats", "digest")


class RingBufferSink:
    """Keeps the newest ``capacity`` events in memory.

    Older events are silently rotated out (``dropped`` counts them), so
    a long run can stay traced at bounded memory cost — handy for
    "flight recorder" style post-mortems and for unit tests.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        self.dropped = 0

    def write(self, event: Dict) -> None:
        """Append one event, rotating the oldest out when full."""
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)

    def events(self) -> List[Dict]:
        """The retained events, oldest first."""
        return list(self._buffer)

    def close(self) -> None:
        """No-op (memory sink holds no external resources)."""


class JsonlFileSink:
    """Streams events to a JSONL file, one JSON object per line."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = open(path, "w", encoding="utf-8")

    def write(self, event: Dict) -> None:
        """Serialise one event as one line."""
        self._file.write(json.dumps(event, separators=(",", ":")) + "\n")

    def close(self) -> None:
        """Flush and close the file."""
        if not self._file.closed:
            self._file.close()


class Tracer:
    """Emits structured events to a sink, with category filtering.

    ``categories=None`` (the default) accepts every category; otherwise
    only events whose ``cat`` is in the set pass the filter.  Setting
    ``enabled`` to ``False`` (or using :data:`NULL_TRACER`) turns every
    :meth:`emit` into an immediate return — instrumentation sites
    additionally guard with ``if tracer.enabled:`` so the disabled path
    never constructs argument tuples or dicts.
    """

    __slots__ = ("enabled", "categories", "sink", "_seq")

    def __init__(self, sink=None,
                 categories: Optional[Iterable[str]] = None,
                 enabled: bool = True) -> None:
        self.sink = sink
        self.categories: Optional[Set[str]] = (
            None if categories is None else set(categories))
        self.enabled = enabled and sink is not None
        self._seq = 0

    def emit(self, ts: int, cat: str, name: str, **fields) -> None:
        """Emit one event at simulated time ``ts`` (integer ns).

        ``fields`` become top-level JSON keys and must not collide with
        the envelope keys (``v``, ``seq``, ``ts``, ``cat``, ``name``).
        """
        if not self.enabled:
            return
        if self.categories is not None and cat not in self.categories:
            return
        event = {"v": SCHEMA_VERSION, "seq": self._seq, "ts": ts,
                 "cat": cat, "name": name}
        event.update(fields)
        self._seq += 1
        self.sink.write(event)

    @property
    def events_emitted(self) -> int:
        """How many events passed the filter so far."""
        return self._seq

    def close(self) -> None:
        """Close the underlying sink and disable further emission."""
        self.enabled = False
        if self.sink is not None:
            self.sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Shared disabled tracer: the default ``tracer`` attribute of every
#: instrumentable component.  Its ``enabled`` is always ``False``.
NULL_TRACER = Tracer(sink=None, enabled=False)


def trace_enabled(obj) -> bool:
    """True when ``obj`` (a Machine, Simulator, ...) is being traced.

    Any object carrying an enabled :class:`Tracer` in its ``tracer``
    attribute counts; objects without one are never traced.
    """
    tracer = getattr(obj, "tracer", None)
    return tracer is not None and tracer.enabled
