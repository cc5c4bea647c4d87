"""Counters, histograms, and traffic breakdowns for the evaluation.

The paper's figures are built from a handful of aggregate statistics:
execution time, network traffic by category (Fig. 9), memory traffic by
category (Fig. 10), and log size over time (Fig. 11).  ``TrafficBreakdown``
mirrors the figures' category split exactly.

The scalar metrics (``Counter``, ``Histogram``) are the canonical
implementations from :mod:`repro.obs.metrics`, re-exported here for
backwards compatibility, and :class:`StatsRegistry` is a subclass of
:class:`repro.obs.metrics.MetricsRegistry`: every counter the
simulator keeps is a registry metric, so the legacy accessors
(``counter``/``value``/``snapshot``) and the newer observability
surface (gauges, histogram percentiles, ``full_snapshot``) always
agree by construction.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.columns import int_column

__all__ = ["TRAFFIC_CATEGORIES", "Counter", "Gauge", "Histogram",
           "TrafficBreakdown", "StatsRegistry"]

#: Traffic categories used by Figures 9 and 10 of the paper.
TRAFFIC_CATEGORIES = ("RD/RDX", "ExeWB", "CkpWB", "LOG", "PAR")


class TrafficBreakdown:
    """Byte counts split by the paper's five traffic categories.

    One instance tracks network bytes (Fig. 9), another memory bytes
    (Fig. 10).  Baseline-system traffic is RD/RDX + ExeWB; ReVive adds
    CkpWB, LOG and PAR.
    """

    __slots__ = ("name", "bytes_by_category")

    def __init__(self, name: str) -> None:
        self.name = name
        self.bytes_by_category: Dict[str, int] = {
            c: 0 for c in TRAFFIC_CATEGORIES}

    def add(self, category: str, nbytes: int) -> None:
        """Increase the counter/bucket by ``amount``/``nbytes``."""
        self.bytes_by_category[category] += nbytes

    @property
    def total(self) -> int:
        """Sum over all categories."""
        return sum(self.bytes_by_category.values())

    @property
    def baseline_total(self) -> int:
        """Traffic that exists with or without ReVive."""
        return (self.bytes_by_category["RD/RDX"]
                + self.bytes_by_category["ExeWB"])

    @property
    def revive_total(self) -> int:
        """Traffic caused by ReVive (checkpoint flushes, log, parity)."""
        return self.total - self.baseline_total

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict copy of the per-category byte counts."""
        return dict(self.bytes_by_category)

    def merged_with(self, other: "TrafficBreakdown") -> "TrafficBreakdown":
        """New breakdown holding the element-wise sum."""
        merged = TrafficBreakdown(self.name)
        for category in TRAFFIC_CATEGORIES:
            merged.bytes_by_category[category] = (
                self.bytes_by_category[category]
                + other.bytes_by_category[category])
        return merged

    def reset(self) -> None:
        """Reset to the freshly-constructed state."""
        for category in TRAFFIC_CATEGORIES:
            self.bytes_by_category[category] = 0


class StatsRegistry(MetricsRegistry):
    """Owns every statistic collected during one simulation run.

    A :class:`~repro.obs.metrics.MetricsRegistry` extended with the
    paper-specific aggregates: the two traffic breakdowns and the
    Figure 11 log-size time series.  ``sample_log_size`` mirrors each
    sample into the ``log.bytes`` gauge so registry consumers see the
    log high-water mark without knowing about the legacy sample list.
    """

    def __init__(self) -> None:
        super().__init__()
        self.network_traffic = TrafficBreakdown("network")
        self.memory_traffic = TrafficBreakdown("memory")
        self.log_size_samples: List[Tuple[int, int]] = []  # (time, bytes)
        # Bound on the first sample, so the gauge keeps its place in the
        # registry's creation order.
        self._log_bytes_gauge: Optional[Gauge] = None

    @property
    def max_log_bytes(self) -> int:
        """Largest log size seen by any ``sample_log_size`` call."""
        return self.gauge("log.bytes").max_value

    def sample_log_size(self, time: int, nbytes: int) -> None:
        """Record a (time, total log bytes) sample."""
        self.log_size_samples.append((time, nbytes))
        gauge = self._log_bytes_gauge
        if gauge is None:
            gauge = self._log_bytes_gauge = self.gauge("log.bytes")
        gauge.set(nbytes)

    def state(self) -> Dict:
        """Registry metrics plus the paper-specific aggregates.

        The Figure 11 samples travel as one flat typed column,
        ``time, bytes, time, bytes, ...``.
        """
        state = super().state()
        state["network_traffic"] = self.network_traffic.as_dict()
        state["memory_traffic"] = self.memory_traffic.as_dict()
        state["log_size_samples"] = int_column(
            chain.from_iterable(self.log_size_samples))
        return state

    def digest_state(self) -> Dict:
        """Determinism-observatory hook (obs/digest.py).

        Fingerprints the *full* registry :meth:`state`, not the legacy
        flat-counters ``snapshot()`` view the default would hash —
        gauges, histograms, and the traffic breakdowns all participate
        in the machine digest.  The Figure 11 sample series grows
        linearly with run length, so it is folded through the
        packed-int fast path (count plus hash) rather than re-encoded
        as JSON at every window.
        """
        from repro.obs.digest import packed_ints_digest

        state = super().state()
        state["network_traffic"] = self.network_traffic.as_dict()
        state["memory_traffic"] = self.memory_traffic.as_dict()
        state["log_size_samples"] = [
            len(self.log_size_samples),
            packed_ints_digest(
                chain.from_iterable(self.log_size_samples))]
        return state

    def restore(self, state: Dict) -> None:
        """Reinstate a :meth:`state` capture (docs/SNAPSHOTS.md)."""
        super().restore(state)
        self.network_traffic.bytes_by_category.update(
            state["network_traffic"])
        self.memory_traffic.bytes_by_category.update(state["memory_traffic"])
        flat = state["log_size_samples"]
        self.log_size_samples[:] = zip(flat[0::2], flat[1::2])
