#!/usr/bin/env python
"""Throughput harness entry point (docs/PERFORMANCE.md).

Run from the repository root::

    python tools/bench.py                 # full report, 3 rounds
    python tools/bench.py --quick         # 1 round, smaller runs
    python tools/bench.py --no-sweep      # skip the parallel-sweep part

Measures the standard exhibits (``repro.harness.perf``), prints the
human-readable summary, writes the machine-readable report to
``benchmarks/results/BENCH_throughput.json`` (override with ``--out``),
appends the same report as one line of ``history.jsonl`` beside it (the
perf trajectory; each report carries its git SHA and CPU count),
and exits non-zero when any exhibit falls below the hard regression
floor (``SOFT_THRESHOLD`` of the recorded baseline).  The same harness
runs under pytest as ``pytest benchmarks -m perf``.
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

DEFAULT_OUT = os.path.join(REPO_ROOT, "benchmarks", "results",
                           "BENCH_throughput.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench", description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3,
                        help="measurement rounds per exhibit (default 3)")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="exhibit run-length multiplier (default 0.25)")
    parser.add_argument("--sweep-workers", type=int, default=4,
                        help="worker count for the sweep comparison")
    parser.add_argument("--no-sweep", action="store_true",
                        help="skip the serial-vs-parallel sweep timing")
    parser.add_argument("--no-cache-bench", action="store_true",
                        help="skip the result-store hit-path latency "
                             "measurement (and its gate)")
    parser.add_argument("--no-campaign-bench", action="store_true",
                        help="skip the fault-campaign fork-vs-cold "
                             "measurement (and its gate)")
    parser.add_argument("--no-columnar-bench", action="store_true",
                        help="skip the columnar-vs-reference-loop tier "
                             "comparison (and its gate)")
    parser.add_argument("--no-obs-bench", action="store_true",
                        help="skip the disabled-observability overhead "
                             "measurement (and its gate)")
    parser.add_argument("--no-digest-bench", action="store_true",
                        help="skip the determinism-digest overhead "
                             "measurement (and its gate)")
    parser.add_argument("--quick", action="store_true",
                        help="one round at scale 0.1 (smoke use)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"report path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    from repro.harness.perf import (
        append_history,
        format_report,
        hard_failures,
        throughput_report,
        write_report,
    )

    rounds = 1 if args.quick else args.rounds
    scale = 0.1 if args.quick else args.scale
    report = throughput_report(rounds=rounds, scale=scale,
                               sweep_workers=args.sweep_workers,
                               include_sweep=not args.no_sweep,
                               sweep_scale=min(0.1, scale),
                               include_cache=not args.no_cache_bench,
                               include_campaign=not args.no_campaign_bench,
                               include_columnar=not args.no_columnar_bench,
                               include_obs=not args.no_obs_bench,
                               include_digest=not args.no_digest_bench)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    write_report(report, args.out)
    history = os.path.join(os.path.dirname(args.out), "history.jsonl")
    append_history(report, history)
    print(format_report(report))
    print(f"report: {args.out} (appended to {history})")

    failures = hard_failures(report)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
