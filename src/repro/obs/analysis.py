"""Reading traces back and recomputing paper exhibits from them.

The JSONL trace is the ground truth these helpers consume — nothing
here peeks at live simulator state.  :func:`recovery_breakdown`
reconstructs the Figure 12 recovery-time components purely from
``recovery.*`` phase-boundary events plus the ``ckpt.commit`` event of
the recovery's target epoch, and is the function ``repro recover
--trace`` (the worked example in ``docs/OBSERVABILITY.md``) checks
against :class:`repro.core.recovery.RecoveryResult`.
:func:`latency_report` adds the critical-path attribution tables of
schema-v2 span events to a span-latency monitor's percentiles.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List


def read_trace(path: str) -> List[Dict]:
    """Load every event of a JSONL trace as plain dicts, oldest first."""
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def category_counts(events: Iterable[Dict]) -> Dict[str, int]:
    """Events per category — the first thing to look at in any trace.

    Categories outside :data:`~repro.obs.tracer.CATEGORIES` (from a
    newer schema, or a foreign tool writing the same envelope) are
    counted under their own name rather than folded together; events
    with no usable ``cat`` at all land under ``"<missing>"`` so a
    malformed trace is visible instead of silently mis-grouped.  Use
    ``repro trace-lint`` to diagnose either case.
    """
    counts: Dict[str, int] = {}
    for event in events:
        cat = event.get("cat")
        if not isinstance(cat, str) or not cat:
            cat = "<missing>"
        counts[cat] = counts.get(cat, 0) + 1
    return dict(sorted(counts.items()))


def span_ends(events: Iterable[Dict]) -> List[Dict]:
    """The ``span.end`` events of a trace, in stream order."""
    return [e for e in events if e.get("name") == "span.end"]


def steady_state_span_ends(events: Iterable[Dict]) -> List[Dict]:
    """``span.end`` events after the last warmup reset.

    ``Machine.note_warmup_done`` resets the ``txn.*`` counters and
    emits ``sim.warmup_done``; partitioning the stream at that marker
    (by position, not timestamp — transactions complete synchronously,
    so no span straddles it) makes per-class span counts comparable
    bit-for-bit with the live steady-state counters.
    """
    events = list(events)
    start = 0
    for position, event in enumerate(events):
        if event.get("name") == "sim.warmup_done":
            start = position + 1
    return span_ends(events[start:])


def latency_report(events: Iterable[Dict],
                   summaries: Dict[str, Dict]) -> Dict[str, Dict]:
    """Per-class latency percentiles + critical-path attribution.

    ``summaries`` are the per-class :class:`LogHistogram` summaries
    (count / mean / max / p50 / p90 / p99 / p999, upper-edge
    convention) of a :class:`~repro.obs.monitor.SpanLatencyMonitor`
    that saw ``events``; this adds, from the ``span.end`` events, two
    attribution tables mapping segment kinds to their share of span
    time:

    * ``attribution`` — over *all* spans of the class, and
    * ``tail_attribution`` — over the slowest 1% (at least one span),
      which is what sentences like "read-miss p99 is 62% directory
      occupancy" are about.

    Tail selection orders by ``(-dur_ns, txn)``, so the report is
    byte-deterministic for a deterministic trace — serial and parallel
    sweeps of the same jobs agree exactly.
    """
    by_class: Dict[str, List[Dict]] = {}
    for event in span_ends(events):
        by_class.setdefault(event["class"], []).append(event)

    def _shares(spans: List[Dict]) -> Dict[str, float]:
        totals: Dict[str, int] = {}
        for span in spans:
            for kind, dur in span["segs"]:
                totals[kind] = totals.get(kind, 0) + dur
        grand = sum(totals.values())
        if not grand:
            return {}
        return {kind: totals[kind] / grand
                for kind in sorted(totals)}

    classes: Dict[str, Dict] = {}
    for cls, spans in sorted(by_class.items()):
        tail_n = max(1, math.ceil(len(spans) / 100))
        tail = sorted(spans,
                      key=lambda s: (-s["dur_ns"], s["txn"]))[:tail_n]
        classes[cls] = dict(summaries[cls], attribution=_shares(spans),
                            tail_attribution=_shares(tail))
    return {"classes": classes,
            "total_spans": sum(len(s) for s in by_class.values())}


def recovery_breakdown(events: Iterable[Dict]) -> Dict[str, int]:
    """Recompute the Figure 12 components from trace events alone.

    Returns nanosecond durations keyed exactly like
    ``RecoveryResult.breakdown()`` — ``lost_work``, ``hw_recovery``,
    ``log_rebuild``, ``rollback`` — plus ``background_repair``
    (Phase 4, which the paper reports separately because the machine
    is available during it).

    Phase durations are *recomputed* as the timestamp difference
    between each phase's ``recovery.phase_begin`` / ``phase_end``
    pair; lost work is the detection timestamp minus the ``ckpt.commit``
    timestamp of the target epoch (epoch 0 is the initial state,
    committed at time 0 and never traced).
    """
    events = list(events)
    begin_ts: Dict[str, int] = {}
    durations: Dict[str, int] = {}
    detect_ts = None
    target_epoch = None
    commit_ts: Dict[int, int] = {0: 0}
    for event in events:
        name = event.get("name")
        if name == "ckpt.commit":
            commit_ts[event["epoch"]] = event["ts"]
        elif name == "recovery.begin":
            detect_ts = event["ts"]
        elif name == "recovery.phase_begin":
            begin_ts[event["phase"]] = event["ts"]
        elif name == "recovery.phase_end":
            phase = event["phase"]
            if phase not in begin_ts:
                raise ValueError(f"phase_end without phase_begin: {phase}")
            durations[phase] = event["ts"] - begin_ts[phase]
        elif name == "recovery.end":
            target_epoch = event["target_epoch"]
    if detect_ts is None or target_epoch is None:
        raise ValueError("trace contains no complete recovery "
                         "(recovery.begin .. recovery.end)")
    if target_epoch not in commit_ts:
        raise ValueError(
            f"trace has no ckpt.commit event for target epoch "
            f"{target_epoch} (was tracing enabled before the run?)")
    breakdown = {
        "lost_work": detect_ts - commit_ts[target_epoch],
        "hw_recovery": durations.get("hw_recovery", 0),
        "log_rebuild": durations.get("log_rebuild", 0),
        "rollback": durations.get("rollback", 0),
        "background_repair": durations.get("background_repair", 0),
    }
    return breakdown
