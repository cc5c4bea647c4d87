"""Observability: structured tracing, metrics, and profiling.

Three independent instruments over one simulation:

* :class:`Tracer` — structured, timestamped JSONL events from
  instrumentation points across the engine, coherence protocol, log,
  checkpointing, and recovery.  Schema documented and versioned in
  ``docs/OBSERVABILITY.md``; zero-cost when disabled.
* :class:`MetricsRegistry` — counters/gauges/histograms; the legacy
  :class:`repro.sim.stats.StatsRegistry` is a subclass, so every
  historical counter lives here too.
* :class:`Profiler` — wall-clock per simulator component and
  activations per second, for the simulator's own performance.

Built on the tracer's event stream (all in ``docs/OBSERVABILITY.md``):

* :class:`MonitorSuite` + the monitors in :mod:`repro.obs.monitor` —
  streaming run-health state (log watermarks, checkpoint cadence,
  traffic rates, recovery phases) computed in-process, plus the
  :class:`RunLedger` manifest stamping each run.
* :class:`SpanRecorder` / :class:`Span` — causal per-transaction spans
  with ordered child segments whose durations sum exactly to the span;
  :func:`latency_report` adds their critical-path attribution to the
  span-latency monitor's percentiles and :func:`chrome_trace` exports
  them for Perfetto.
* :mod:`repro.obs.report` — the ``repro report`` dashboard: Figures 8,
  11, and 12 plus the span latency tables, recomputed from traces +
  ledgers alone.
* :func:`lint_trace <repro.obs.lint.lint_file>` — the ``repro
  trace-lint`` schema validator (including span pairing, segment-sum
  closure, and digest chain linkage).
* :mod:`repro.obs.digest` — the determinism observatory: per-window
  machine state digests chained at every checkpoint boundary
  (:class:`DigestChain`, :class:`DigestRecorder`), compared by
  :func:`first_divergence` and bisected by ``repro diff``.

Quick start::

    from repro.obs import Tracer, JsonlFileSink, recovery_breakdown
    from repro.harness.runner import build_machine

    tracer = Tracer(JsonlFileSink("out.jsonl"))
    machine = build_machine("cp_parity", tracer=tracer)
    ...
    tracer.close()

or, without writing Python: ``python -m repro recover lu --nodes 4
--scale 0.5 --interval-us 50 --lost-node 1 --trace out.jsonl``.
"""

from repro.obs.analysis import (
    category_counts,
    latency_report,
    read_trace,
    recovery_breakdown,
    span_ends,
    steady_state_span_ends,
)
from repro.obs.export import (
    chrome_trace,
    write_chrome_trace,
)
from repro.obs.digest import (
    DIGEST_SCHEMA,
    DigestChain,
    DigestRecorder,
    canonical_bytes,
    component_digest,
    digest_value,
    first_divergence,
    merge_sweep_digests,
    read_digest_file,
    window_digest,
    write_digest_file,
)
from repro.obs.lint import lint_events, lint_file
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LogHistogram,
    MetricsRegistry,
)
from repro.obs.monitor import (
    LEDGER_VERSION,
    CacheHealthMonitor,
    CheckpointCadenceMonitor,
    LogOccupancyMonitor,
    MemTrafficMonitor,
    Monitor,
    MonitorSuite,
    RecoveryMonitor,
    RunLedger,
    SpanLatencyMonitor,
    TrafficRateMonitor,
    read_ledger,
)
from repro.obs.profiling import Profiler
from repro.obs.spans import (
    NULL_SPANS,
    SEGMENTS,
    SPAN_CLASSES,
    Span,
    SpanRecorder,
)
from repro.obs.telemetry import (
    PROFILE_SCHEMA,
    actor_coverage,
    emit_profile_events,
    fallout_share,
    flamegraph_lines,
    merge_profiles,
    profile_snapshot,
    prometheus_text,
)
from repro.obs.tracer import (
    CATEGORIES,
    NULL_TRACER,
    SCHEMA_VERSION,
    JsonlFileSink,
    RingBufferSink,
    Tracer,
    trace_enabled,
)

__all__ = [
    "SCHEMA_VERSION",
    "CATEGORIES",
    "LEDGER_VERSION",
    "Tracer",
    "NULL_TRACER",
    "JsonlFileSink",
    "RingBufferSink",
    "trace_enabled",
    "Counter",
    "Gauge",
    "Histogram",
    "LogHistogram",
    "MetricsRegistry",
    "Profiler",
    "Span",
    "SpanRecorder",
    "NULL_SPANS",
    "SPAN_CLASSES",
    "SEGMENTS",
    "SpanLatencyMonitor",
    "Monitor",
    "MonitorSuite",
    "CacheHealthMonitor",
    "LogOccupancyMonitor",
    "CheckpointCadenceMonitor",
    "TrafficRateMonitor",
    "RecoveryMonitor",
    "MemTrafficMonitor",
    "RunLedger",
    "read_ledger",
    "lint_events",
    "lint_file",
    "read_trace",
    "category_counts",
    "recovery_breakdown",
    "span_ends",
    "steady_state_span_ends",
    "latency_report",
    "chrome_trace",
    "write_chrome_trace",
    "PROFILE_SCHEMA",
    "profile_snapshot",
    "merge_profiles",
    "actor_coverage",
    "fallout_share",
    "emit_profile_events",
    "flamegraph_lines",
    "prometheus_text",
    "DIGEST_SCHEMA",
    "DigestChain",
    "DigestRecorder",
    "canonical_bytes",
    "component_digest",
    "digest_value",
    "first_divergence",
    "merge_sweep_digests",
    "read_digest_file",
    "window_digest",
    "write_digest_file",
]
