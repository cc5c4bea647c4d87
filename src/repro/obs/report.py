"""The ``repro report`` dashboard: paper exhibits from traces alone.

Everything here consumes only JSONL traces and ledger manifests —
never live simulator state — and reproduces the paper's run-health
exhibits from them:

* **Figure 8** — per-app overhead of each variant, recomputed from the
  ``execution_time_ns`` stamped into each run's ledger
  (:func:`overhead_rows_from_ledgers` matches
  ``SweepResult.overhead_rows`` bit-for-bit).
* **Figure 11** — the log-occupancy curve from ``log.append``/
  ``log.reclaim`` events (:func:`log_occupancy`) and the per-node
  high-water marks of the log-occupancy monitor (warmup-aware like the
  simulator's own ``max_bytes_used`` statistic).
* **Figure 12** — the recovery-phase breakdown via
  :func:`repro.obs.analysis.recovery_breakdown`.
* **Transaction latency** — the span-latency monitor's per-class
  p50/p90/p99/p999 percentiles plus the critical-path attribution of
  schema-v2 span events (:func:`repro.obs.analysis.latency_report`),
  cross-checked against live ``lat.*`` histograms in
  ``tests/test_obs_report.py``.
* **Event counts** — events per category.

Stream statistics are computed by *replaying* the trace through the
monitors the live run used (:func:`repro.harness.observe.run_monitors`,
sized from the run's ledger), so on-line and post-mortem numbers can
never drift apart.

Entry points: :func:`gather_runs` resolves CLI paths (trace files or
sweep directories) into runs, :func:`build_report` computes the
JSON-able report, :func:`render_report` renders the terminal
dashboard.  ``tests/test_obs_report.py`` pins the cross-checks.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.obs.analysis import category_counts, latency_report, \
    read_trace, recovery_breakdown
from repro.obs.monitor import MonitorSuite, read_ledger
from repro.obs.tracer import SCHEMA_VERSION


def log_occupancy(events: List[Dict], curve_points: int = 24) -> Dict:
    """Figure 11's occupancy curve from the trace.

    ``curve`` is the machine-wide total log occupancy over time
    (``log.append``/``log.reclaim`` events), down-sampled to
    ``curve_points`` buckets of (bucket-end ts, max total bytes);
    ``warmup_ts`` is the ``sim.warmup_done`` time.  The per-node
    high-water marks come from the replayed
    :class:`~repro.obs.monitor.LogOccupancyMonitor` (:func:`build_report`).
    """
    occupancy: Dict[int, int] = {}
    samples: List[Tuple[int, int]] = []
    warmup_ts: Optional[int] = None
    for event in events:
        name = event.get("name")
        if name == "sim.warmup_done":
            warmup_ts = event["ts"]
        elif name in ("log.append", "log.reclaim"):
            occupancy[event["node"]] = event["bytes_used"]
            samples.append((event["ts"], sum(occupancy.values())))
    return {"warmup_ts": warmup_ts,
            "curve": _bucket_curve(samples, curve_points)}


def _bucket_curve(samples: List[Tuple[int, int]],
                  points: int) -> List[Tuple[int, int]]:
    """Down-sample (ts, value) samples to per-bucket maxima."""
    if not samples or points <= 0:
        return []
    t0, t1 = samples[0][0], samples[-1][0]
    if t1 <= t0:
        return [(t1, max(value for _ts, value in samples))]
    maxima: List[Optional[int]] = [None] * points
    closing = [0] * points
    for ts, value in samples:
        bucket = min(points - 1, (ts - t0) * points // (t1 - t0))
        if maxima[bucket] is None or value > maxima[bucket]:
            maxima[bucket] = value
        closing[bucket] = value
    # A bucket with no samples inherits the occupancy the previous
    # bucket closed at — the level simply persisted through it.
    carry = 0
    curve: List[Tuple[int, int]] = []
    width = (t1 - t0) / points
    for bucket in range(points):
        if maxima[bucket] is None:
            value = carry
        else:
            value = maxima[bucket]
            carry = closing[bucket]
        curve.append((int(t0 + (bucket + 1) * width), value))
    return curve


def overhead_rows(times: Dict[Tuple[str, str], int]) -> List[Dict]:
    """Figure-8-shaped rows from ``{(app, variant): execution_time_ns}``.

    One row per app, in first-appearance order: ``{"app",
    "baseline_ns", variant: time / base - 1.0, ...}`` with the variants
    in map order.  The one Figure 8 row builder: sweeps, serve reports,
    ``fig8_overhead`` and ledger reports all feed it, so their rows
    agree bit-for-bit.
    """
    rows = []
    for app in dict.fromkeys(app for app, _variant in times):
        base = times.get((app, "baseline"))
        if base is None:
            raise ValueError("overhead rows need the 'baseline' variant "
                             f"for app {app!r}")
        if base <= 0:
            raise ValueError("baseline has no execution time")
        row: Dict = {"app": app, "baseline_ns": base}
        for (row_app, variant), time in times.items():
            if row_app == app and variant != "baseline":
                row[variant] = time / base - 1.0
        rows.append(row)
    return rows


def overhead_rows_from_ledgers(ledgers: List[Dict]) -> List[Dict]:
    """:func:`overhead_rows` from ledger manifests alone.

    Fed the ledgers of a sweep in canonical order, the rows equal
    ``SweepResult.overhead_rows()``; manifests without a result are
    skipped.
    """
    return overhead_rows({
        (manifest["app"], manifest["variant"]):
            manifest["result"]["execution_time_ns"]
        for manifest in ledgers if manifest.get("result") is not None})


def gather_runs(paths: List[str]) -> List[Dict]:
    """Resolve CLI paths into runs: ``{name, events, ledger}`` each.

    A directory is scanned for ``*.jsonl`` traces (each paired with its
    ``<name>.ledger.json`` when present); a sweep directory's merged
    ``sweep.ledger.json`` fixes the canonical run order.  A file path
    names one trace (its sibling ledger is picked up the same way).
    """
    runs: List[Dict] = []
    for path in paths:
        if os.path.isdir(path):
            names = sorted(fname[:-len(".jsonl")]
                           for fname in os.listdir(path)
                           if fname.endswith(".jsonl"))
            merged_path = os.path.join(path, "sweep.ledger.json")
            if os.path.exists(merged_path):
                merged = read_ledger(merged_path)
                canonical = [f"{job['app']}__{job['variant']}"
                             for job in merged.get("jobs", [])]
                names.sort(key=lambda name:
                           (canonical.index(name) if name in canonical
                            else len(canonical), name))
            for name in names:
                runs.append(_one_run(os.path.join(path, name + ".jsonl"),
                                     name))
        else:
            name = os.path.basename(path)
            if name.endswith(".jsonl"):
                name = name[:-len(".jsonl")]
            runs.append(_one_run(path, name))
    return runs


def _one_run(trace_path: str, name: str) -> Dict:
    stem = trace_path[:-len(".jsonl")] if trace_path.endswith(".jsonl") \
        else trace_path
    ledger_path = stem + ".ledger.json"
    return {
        "name": name,
        "events": read_trace(trace_path),
        "ledger": (read_ledger(ledger_path)
                   if os.path.exists(ledger_path) else None),
    }


def build_report(runs: List[Dict]) -> Dict:
    """Compute the full JSON-able report for :func:`render_report`.

    Each run's stream statistics — verdicts, per-node log watermarks,
    per-class latency percentiles — come from replaying its events
    through :func:`~repro.harness.observe.run_monitors` of its ledger's
    variant and ``run_args``: the monitors the live run used, sized
    the same way, so the report's verdicts equal the ledger's.
    """
    from repro.harness.observe import run_monitors

    report_runs: List[Dict] = []
    ledgers: List[Dict] = []
    for run in runs:
        events = run["events"]
        ledger = run.get("ledger")
        suite = MonitorSuite(run_monitors(
            (ledger or {}).get("variant"),
            (ledger or {}).get("run_args") or {}))
        for event in events:
            suite.write(event)
        try:
            recovery = recovery_breakdown(events)
        except ValueError:
            recovery = None
        verdicts = suite.verdicts()
        log = verdicts["log_occupancy"]
        spans = verdicts["span_latency"]["classes"]
        report_runs.append({
            "name": run["name"],
            "events": len(events),
            "categories": category_counts(events),
            "log_occupancy": dict(log_occupancy(events),
                                  per_node_watermark=log["watermark_bytes"],
                                  max_log_bytes=log["max_watermark_bytes"]),
            "recovery": recovery,
            "latency": latency_report(events, spans) if spans else None,
            "verdicts": verdicts,
            "healthy": all(v.get("healthy", True)
                           for v in verdicts.values()),
            "ledger": ledger,
        })
        if ledger is not None:
            ledgers.append(ledger)
    overhead: Optional[List[Dict]] = None
    if ledgers:
        try:
            overhead = overhead_rows_from_ledgers(ledgers)
        except ValueError:
            overhead = None      # no baseline run in this report
    return {
        "schema_version": SCHEMA_VERSION,
        "runs": report_runs,
        "overhead_rows": overhead,
    }


#: Figure 12 phases, in timeline order, with display labels.
_RECOVERY_LABELS = (
    ("lost_work", "lost work"),
    ("hw_recovery", "1: hardware recovery"),
    ("log_rebuild", "2: log rebuild"),
    ("rollback", "3: rollback"),
    ("background_repair", "4: background repair"),
)


def render_latency(latency: Dict) -> str:
    """Render one run's latency tables.

    First table: per-class count, mean, p50/p90/p99/p999, max (all in
    nanoseconds, upper-edge percentile convention).  Second table: the
    critical-path attribution — each segment kind's share of span time
    over all spans and over the slowest 1% — which supports statements
    like "read-miss p99 is 62% directory occupancy".
    """
    from repro.harness.reporting import format_table

    classes = latency.get("classes", {})
    if not classes:
        return "latency: no span events (trace spans with schema v2)"
    rows = [[cls, s["count"], f"{s['mean']:.1f}",
             f"{s['p50']:.0f}", f"{s['p90']:.0f}", f"{s['p99']:.0f}",
             f"{s['p999']:.0f}", s["max"]]
            for cls, s in classes.items()]
    sections = [format_table(
        ["Class", "Count", "Mean", "p50", "p90", "p99", "p999", "Max"],
        rows, title="transaction latency (ns, from spans)")]

    seg_order: List[str] = []
    for summary in classes.values():
        for kind in summary["attribution"]:
            if kind not in seg_order:
                seg_order.append(kind)
    attribution_rows = []
    for cls, summary in classes.items():
        for label, table in (("all", summary["attribution"]),
                             ("tail 1%", summary["tail_attribution"])):
            attribution_rows.append(
                [cls, label] + [(f"{100 * table[kind]:.1f}%"
                                 if kind in table else "—")
                                for kind in seg_order])
    sections.append(format_table(
        ["Class", "Spans", *seg_order], attribution_rows,
        title="critical-path attribution (share of span time)"))
    return "\n".join(sections)


def render_report(report: Dict) -> str:
    """Render the terminal dashboard for a built report."""
    from repro.harness.reporting import bar_chart, format_table

    sections: List[str] = []
    overhead = report.get("overhead_rows")
    if overhead:
        variant_order: List[str] = []
        for row in overhead:
            for key in row:
                if key not in ("app", "baseline_ns") \
                        and key not in variant_order:
                    variant_order.append(key)
        rows = [[row["app"], f"{row['baseline_ns'] / 1e3:.1f}"]
                + [(f"{100 * row[v]:+.1f}%" if v in row else "—")
                   for v in variant_order]
                for row in overhead]
        sections.append(format_table(
            ["App", "Base (us)"] + variant_order, rows,
            title="Overhead vs baseline (Figure 8, from ledgers)"))

    for run in report["runs"]:
        lines = [f"== {run['name']} "
                 f"[{'healthy' if run['healthy'] else 'UNHEALTHY'}] =="]
        lines.append("categories: " + ", ".join(
            f"{cat}={count}" for cat, count
            in run["categories"].items()))

        occupancy = run["log_occupancy"]
        if occupancy["curve"]:
            lines.append(f"max log: {occupancy['max_log_bytes'] / 1024:.1f}"
                         " KB; per-node watermarks (KB): "
                         + ", ".join(f"{node}:{used / 1024:.1f}"
                                     for node, used in
                                     occupancy["per_node_watermark"]
                                     .items()))
            labels = [f"t={ts / 1e3:.0f}us"
                      for ts, _used in occupancy["curve"]]
            values = [used / 1024.0 for _ts, used in occupancy["curve"]]
            lines.append(bar_chart(labels, values, width=40, unit="KB"))

        cadence = run["verdicts"].get("checkpoint_cadence", {})
        if cadence.get("commits"):
            gap = cadence.get("mean_gap_ns")
            lines.append(
                f"checkpoints: {cadence['commits']} commits"
                + (f", mean gap {gap / 1e3:.1f} us" if gap else "")
                + (f", {len(cadence['excursions'])} cadence excursions"
                   if cadence.get("excursions") else ""))

        mem = run["verdicts"].get("mem_traffic", {})
        if mem.get("batches"):
            l1 = mem.get("l1_hit_rate")
            l2 = mem.get("l2_hit_rate")
            rem = mem.get("remote_fraction")
            lines.append(
                f"mem: {mem['totals']['refs']} refs in "
                f"{mem['batches']} batches"
                + (f", L1 hit {100 * l1:.1f}%" if l1 is not None else "")
                + (f", L2 hit {100 * l2:.1f}%" if l2 is not None else "")
                + (f", remote {100 * rem:.2f}%" if rem is not None
                   else ""))

        if run.get("latency"):
            lines.append(render_latency(run["latency"]))

        if run["recovery"] is not None:
            rows = [[label, f"{run['recovery'][key] / 1e3:.1f}"]
                    for key, label in _RECOVERY_LABELS
                    if key in run["recovery"]]
            lines.append(format_table(
                ["Phase", "us"], rows,
                title="recovery breakdown (Figure 12, from trace)"))

        alerts = run["verdicts"].get("log_occupancy", {}) \
            .get("high_water_alerts")
        if alerts:
            lines.append(f"ALERT: log high-water crossed {len(alerts)}x "
                         f"(first: node {alerts[0]['node']} at "
                         f"t={alerts[0]['ts'] / 1e3:.0f}us)")
        sections.append("\n".join(lines))
    if not sections:
        return "report: no runs"
    return "\n\n".join(sections)
