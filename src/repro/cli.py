"""Command-line interface.

Exposes the common workflows without writing Python::

    python -m repro list                      # available workloads
    python -m repro run ocean --variant cp_parity
    python -m repro compare radix             # all five variants
    python -m repro sweep lu fft --workers 4  # parallel app x variant sweep
    python -m repro recover lu --lost-node 3  # fault injection + recovery
    python -m repro campaign lu --workers 4   # fork-based fault campaign
    python -m repro trace lu --out out.jsonl  # traced node-loss recovery
    python -m repro report sweep_traces/      # dashboard from traces/ledgers
    python -m repro latency out.jsonl         # span latency percentiles
    python -m repro export-trace out.jsonl    # Perfetto / chrome://tracing
    python -m repro trace-lint out.jsonl      # schema-validate a trace
    python -m repro table3                    # machine configuration
    python -m repro serve --cache-dir .cache  # async simulation service
    python -m repro submit lu --nodes 4       # stream a request to it
    python -m repro profile lu --nodes 4      # per-actor host-time profile
    python -m repro stats                     # live telemetry from serve
    python -m repro diff a.json b.json        # first divergent window
    python -m repro diff a.json b.json --bisect   # ... down to the event

All commands accept ``--scale`` (run length multiplier),
``--interval-us`` (checkpoint interval), and ``--nodes`` (shrink to a
``MachineConfig.tiny(n)`` machine).  ``run``, ``recover`` and ``trace``
accept ``--trace PATH`` (write the JSONL event trace documented in
docs/OBSERVABILITY.md), ``--trace-categories`` (comma-separated
filter), ``--profile`` (wall-clock profile of the simulator itself),
and ``--ledger PATH`` (live run-health monitors + manifest).  Every
command parses its observability flags into one
:class:`~repro.harness.observe.Observe` value (:func:`_observe`) and
hands it to the harness, which builds and closes the instruments.
``trace`` is the full worked example: a traced run with a node-loss
fault whose recovery breakdown is recomputed *from the trace* and
checked against the live ``RecoveryResult``.  ``sweep --trace-dir``
collects per-job traces and ledgers, merged deterministically;
``report`` renders the Figure 8/11/12 dashboard from such a directory
(or any trace files) without re-running anything.  Exit status is
nonzero when a recovery verification (or the trace cross-check)
fails, so the CLI is scriptable in CI.

``sweep`` and ``campaign`` accept a shared ``--cache-dir``: a
content-addressed result store (docs/SERVING.md) that lets repeat
configurations skip the simulation (or a campaign's warm-up) entirely,
with a hits/misses log line.  ``serve`` runs the async simulation
service over the same store; ``submit`` streams a
run/latency/sweep/report request to it.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.harness.campaign import (
    WarmupTooShort,
    _fault_and_recover,
    run_campaign,
    warm_machine,
)
from repro.harness.observe import Observe
from repro.harness.reporting import (
    format_table,
    profile_table,
    trace_summary_table,
)
from repro.harness.runner import (
    DEFAULT_INTERVAL_NS,
    VARIANT_LABELS,
    VARIANTS,
    profile_summary,
    run_app,
    tiny_revive_overrides,
)
from repro.machine.config import MachineConfig
from repro.obs import CATEGORIES, read_trace, recovery_breakdown
from repro.sim.stats import TRAFFIC_CATEGORIES
from repro.workloads.registry import APP_NAMES, paper_reference


def make_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ReVive (ISCA 2002) reproduction: run the simulator, "
                    "compare configurations, inject faults.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the twelve Splash-2 analogs")
    sub.add_parser("table3", help="print the modelled machine parameters")

    run_p = sub.add_parser("run", help="run one workload on one variant")
    _common(run_p)
    _observability(run_p)
    run_p.add_argument("--variant", choices=VARIANTS, default="cp_parity")
    run_p.add_argument("--digest", metavar="PATH", default=None,
                       help="record the determinism digest chain (one "
                            "window per checkpoint boundary) and write "
                            "the run's spec + chain there — the input "
                            "of 'repro diff' (docs/OBSERVABILITY.md)")

    cmp_p = sub.add_parser("compare",
                           help="run all five variants and report overheads")
    _common(cmp_p)

    swp_p = sub.add_parser(
        "sweep",
        help="run an app x variant sweep, fanning out over worker "
             "processes (results are bit-identical to a serial sweep; "
             "see docs/PERFORMANCE.md)")
    swp_p.add_argument("apps", nargs="*", metavar="APP",
                       help="applications to sweep (default: all twelve)")
    swp_p.add_argument("--variants", default=None, metavar="V1,V2",
                       help="comma-separated variants "
                            f"(default: all of {','.join(VARIANTS)})")
    swp_p.add_argument("--scale", type=float, default=1.0,
                       help="run-length multiplier (default 1.0)")
    swp_p.add_argument("--interval-us", type=float,
                       default=DEFAULT_INTERVAL_NS / 1000,
                       help="checkpoint interval in microseconds")
    swp_p.add_argument("--nodes", type=int, default=None,
                       choices=(2, 4, 8, 16),
                       help="use a MachineConfig.tiny(n) machine")
    swp_p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: one per job, "
                            "capped at the CPU count; 1 forces serial)")
    swp_p.add_argument("--chunksize", type=int, default=1,
                       help="jobs handed to a worker per dispatch")
    swp_p.add_argument("--serial", action="store_true",
                       help="run in-process without multiprocessing")
    swp_p.add_argument("--json", metavar="PATH", default=None,
                       help="also write the full sweep results as JSON")
    swp_p.add_argument("--trace-dir", metavar="DIR", default=None,
                       help="write each job's JSONL trace + ledger there "
                            "and merge the per-run ledgers into "
                            "sweep.ledger.json (render with: repro "
                            "report DIR)")
    swp_p.add_argument("--trace-categories", metavar="CATS", default=None,
                       help="comma-separated category filter for "
                            "--trace-dir traces")
    swp_p.add_argument("--digest", action="store_true",
                       help="record every job's determinism digest "
                            "chain; with --trace-dir the merged chains "
                            "land in sweep.digest.json beside the "
                            "ledger (serial and parallel sweeps write "
                            "identical files)")
    _cache_flags(swp_p)

    cam_p = sub.add_parser(
        "campaign",
        help="fork-based fault campaign: warm one machine to N "
             "checkpoints, snapshot it (content-addressed in "
             "--cache-dir), and fork the lost-node x detection-latency "
             "grid from the warm image across worker processes "
             "(docs/SNAPSHOTS.md)")
    _common(cam_p, default_scale=0.5, default_interval_us=50.0,
            default_nodes=4)
    cam_p.add_argument("--variant", choices=("cp_parity", "cp_mirroring"),
                       default="cp_parity")
    cam_p.add_argument("--warm", type=int, default=2, metavar="N",
                       help="checkpoints committed before the snapshot "
                            "(default 2)")
    cam_p.add_argument("--lost-nodes", default="none,1", metavar="N1,N2",
                       help="comma-separated fault sites; 'none' injects "
                            "a memory-intact transient fault "
                            "(default none,1)")
    cam_p.add_argument("--detect-fractions", default="0.2,0.5,0.8",
                       metavar="F1,F2",
                       help="detection latencies as fractions of the "
                            "checkpoint interval (default 0.2,0.5,0.8)")
    cam_p.add_argument("--hybrid-fractions", default=None, metavar="F1,F2",
                       help="optional mirrored_fraction axis; each "
                            "fraction warms its own image")
    cam_p.add_argument("--workers", type=int, default=None,
                       help="worker processes for the fault grid")
    cam_p.add_argument("--serial", action="store_true",
                       help="run the grid in-process")
    cam_p.add_argument("--cold", action="store_true",
                       help="re-simulate the warm-up in every scenario "
                            "instead of forking (the perf-gate baseline)")
    cam_p.add_argument("--trace", metavar="PATH", default=None,
                       help="write the campaign's snap.* events as JSONL")
    cam_p.add_argument("--json", metavar="PATH", default=None,
                       help="also write the full campaign as JSON")
    _cache_flags(cam_p)

    srv_p = sub.add_parser(
        "serve",
        help="run the async simulation service: accepts "
             "run/latency/sweep/report requests over newline-delimited "
             "JSON, dedupes them against the content-addressed result "
             "store, and streams progress events back "
             "(docs/SERVING.md)")
    srv_p.add_argument("--host", default=None,
                       help="bind address (default 127.0.0.1)")
    srv_p.add_argument("--port", type=int, default=None,
                       help="TCP port (default 7316; 0 picks a free one)")
    srv_p.add_argument("--workers", type=int, default=None,
                       help="worker processes for cache misses "
                            "(default: CPU count, capped at 4)")
    srv_p.add_argument("--max-cache-mb", type=float, default=None,
                       help="size-bound the result store; least-"
                            "recently-used entries are evicted")
    _cache_flags(srv_p, default_dir=".repro-cache")

    sbm_p = sub.add_parser(
        "submit",
        help="submit a request to a running 'repro serve' instance and "
             "stream its progress events")
    sbm_p.add_argument("apps", nargs="+", metavar="APP",
                       help="application(s); run/latency take exactly one")
    sbm_p.add_argument("--op", choices=("run", "latency", "sweep",
                                        "report", "campaign"),
                       default="run",
                       help="request operation (default run)")
    sbm_p.add_argument("--variants", default=None, metavar="V1,V2",
                       help="comma-separated variants (default: "
                            "cp_parity for run/latency, "
                            "baseline,cp_parity for sweep/report)")
    sbm_p.add_argument("--scale", type=float, default=0.1,
                       help="run-length multiplier (default 0.1)")
    sbm_p.add_argument("--interval-us", type=float,
                       default=DEFAULT_INTERVAL_NS / 1000,
                       help="checkpoint interval in microseconds")
    sbm_p.add_argument("--nodes", type=int, default=None,
                       choices=(2, 4, 8, 16),
                       help="use a MachineConfig.tiny(n) machine")
    sbm_p.add_argument("--host", default=None,
                       help="server address (default 127.0.0.1)")
    sbm_p.add_argument("--port", type=int, default=None,
                       help="server port (default 7316)")
    sbm_p.add_argument("--no-cache", action="store_true",
                       help="ask the server to bypass its result store")
    sbm_p.add_argument("--json", action="store_true",
                       help="print the raw event stream as JSON lines")

    prf_p = sub.add_parser(
        "profile",
        help="host-time attribution of one run: per-component self vs "
             "cumulative seconds, per-actor dispatch time with the "
             "batch-vs-protocol-fallout tier split, and flamegraph / "
             "Perfetto / prof.* trace exports (docs/OBSERVABILITY.md)")
    _common(prf_p, default_scale=0.25, default_interval_us=50.0,
            default_nodes=4)
    prf_p.add_argument("--variant", choices=VARIANTS, default="cp_parity")
    prf_p.add_argument("--top", type=int, default=None, metavar="N",
                       help="show only the N hottest actors")
    prf_p.add_argument("--min-coverage", type=float, default=None,
                       metavar="FRACTION",
                       help="exit 1 unless at least this fraction of "
                            "machine.run wall time is attributed to "
                            "actors (the reconciliation gate)")
    prf_p.add_argument("--flame", metavar="PATH", default=None,
                       help="write collapsed-stack lines for "
                            "flamegraph.pl / speedscope")
    prf_p.add_argument("--perfetto", metavar="PATH", default=None,
                       help="write Chrome Trace counter tracks for "
                            "ui.perfetto.dev")
    prf_p.add_argument("--trace", metavar="PATH", default=None,
                       help="write the profile as prof.* JSONL events "
                            "(passes repro trace-lint)")
    prf_p.add_argument("--json", metavar="PATH", default=None,
                       help="write the profile snapshot as JSON")

    sts_p = sub.add_parser(
        "stats",
        help="fetch live telemetry from a running 'repro serve': "
             "heartbeat gauges and the metrics snapshot over the JSONL "
             "protocol, or the raw Prometheus text exposition")
    sts_p.add_argument("--host", default=None,
                       help="server address (default 127.0.0.1)")
    sts_p.add_argument("--port", type=int, default=None,
                       help="server port (default 7316)")
    sts_p.add_argument("--prometheus", action="store_true",
                       help="print the GET /metrics exposition body "
                            "instead of the event stream")
    sts_p.add_argument("--json", action="store_true",
                       help="print the raw event stream as JSON lines")

    rec_p = sub.add_parser("recover",
                           help="inject a fault and verify recovery")
    _common(rec_p)
    _observability(rec_p)
    rec_p.add_argument("--lost-node", type=int, default=None,
                       help="node to lose permanently "
                            "(omit for a transient system-wide fault)")

    trc_p = sub.add_parser(
        "trace",
        help="traced node-loss recovery on a tiny machine; the recovery "
             "breakdown is recomputed from the JSONL trace and checked "
             "against the live RecoveryResult (docs/OBSERVABILITY.md)")
    _common(trc_p, default_scale=0.5,
            default_interval_us=50.0, default_nodes=4)
    _observability(trc_p)
    trc_p.add_argument("--out", default="trace.jsonl",
                       help="JSONL trace output path (default trace.jsonl); "
                            "--trace overrides it")
    trc_p.add_argument("--lost-node", type=int, default=1,
                       help="node to lose permanently (default 1)")

    rep_p = sub.add_parser(
        "report",
        help="render a run-health dashboard (Figures 8/11/12) from "
             "JSONL traces and ledger manifests alone — pass trace "
             "files or a sweep --trace-dir directory")
    rep_p.add_argument("paths", nargs="+", metavar="PATH",
                       help="trace files (*.jsonl) or directories of "
                            "traces + ledgers (e.g. a sweep --trace-dir)")
    rep_p.add_argument("--json", metavar="PATH", default=None,
                       help="also dump the full report as JSON")

    lint_p = sub.add_parser(
        "trace-lint",
        help="validate JSONL traces against the schema "
             "(docs/OBSERVABILITY.md): envelope, categories, names, "
             "required fields, span pairing + segment-sum closure; "
             "exit 1 on any problem")
    lint_p.add_argument("paths", nargs="+", metavar="PATH",
                        help="JSONL trace files to validate")

    lat_p = sub.add_parser(
        "latency",
        help="per-class transaction latency percentiles "
             "(p50/p90/p99/p999) and critical-path attribution, "
             "recomputed from span events in JSONL traces alone")
    lat_p.add_argument("paths", nargs="+", metavar="PATH",
                       help="trace files (*.jsonl) or directories of "
                            "traces (e.g. a sweep --trace-dir)")
    lat_p.add_argument("--json", metavar="PATH", default=None,
                       help="also dump the latency report as JSON")

    exp_p = sub.add_parser(
        "export-trace",
        help="convert a JSONL trace into Chrome Trace Event JSON for "
             "Perfetto (ui.perfetto.dev) or chrome://tracing — one "
             "track per node, nested slices per span segment")
    exp_p.add_argument("trace", metavar="TRACE",
                       help="JSONL trace file (rotated segments are "
                            "followed)")
    exp_p.add_argument("--out", metavar="PATH", default=None,
                       help="output path (default: TRACE with a "
                            ".chrome.json suffix)")
    exp_p.add_argument("--spans-only", action="store_true",
                       help="export span slices only (skip the 'i' "
                            "instant markers for point events)")

    dif_p = sub.add_parser(
        "diff",
        help="compare two runs' digest chains (from 'repro run "
             "--digest'): name the first divergent checkpoint window "
             "and component, and with --bisect replay the divergent "
             "window from the last-agreeing state to pin the first "
             "divergent event; exit 1 when the runs diverge")
    dif_p.add_argument("run_a", metavar="A.json",
                       help="first run's digest file")
    dif_p.add_argument("run_b", metavar="B.json",
                       help="second run's digest file")
    dif_p.add_argument("--bisect", action="store_true",
                       help="re-simulate to the last-agreeing commit, "
                            "fork both specs from that image, and "
                            "replay with per-event digesting down to "
                            "the first divergent event")
    dif_p.add_argument("--image", metavar="PATH", default=None,
                       help="with --bisect: pickle run A's machine "
                            "image at the divergence frontier (the "
                            "last agreeing state) there for offline "
                            "inspection")
    return parser


def _common(parser: argparse.ArgumentParser, default_scale: float = 1.0,
            default_interval_us: float = DEFAULT_INTERVAL_NS / 1000,
            default_nodes: Optional[int] = None) -> None:
    parser.add_argument("app", choices=APP_NAMES)
    parser.add_argument("--scale", type=float, default=default_scale,
                        help=f"run-length multiplier "
                             f"(default {default_scale})")
    parser.add_argument("--interval-us", type=float,
                        default=default_interval_us,
                        help="checkpoint interval in microseconds")
    parser.add_argument("--nodes", type=int, default=default_nodes,
                        choices=(2, 4, 8, 16),
                        help="use a MachineConfig.tiny(n) machine with one "
                             "processor per node (default: the 16-node "
                             "bench preset)")


def _observability(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a JSONL event trace to PATH "
                             "(schema: docs/OBSERVABILITY.md)")
    parser.add_argument("--trace-categories", metavar="CATS", default=None,
                        help="comma-separated category filter, e.g. "
                             "'ckpt,recovery' (default: all categories)")
    parser.add_argument("--profile", action="store_true",
                        help="print a wall-clock profile of the simulator")
    parser.add_argument("--ledger", metavar="PATH", default=None,
                        help="monitor the run live (log watermarks, "
                             "checkpoint cadence, traffic, recovery) and "
                             "write the ledger manifest to PATH")


def _cache_flags(parser: argparse.ArgumentParser,
                 default_dir: Optional[str] = None) -> None:
    """The shared ``--cache-dir`` / ``--no-cache`` pair."""
    parser.add_argument("--cache-dir", metavar="DIR", default=default_dir,
                        help="content-addressed result store: repeat "
                             "configurations are served from it instead "
                             "of re-simulating (docs/SERVING.md)"
                             + (f" (default {default_dir})"
                                if default_dir else ""))
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir for this invocation")


def _cache_dir(args) -> Optional[str]:
    """The effective result-store root (None when caching is off)."""
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None)


def _machine_setup(args):
    """(machine_config, n_procs) implied by ``--nodes``."""
    if args.nodes is None:
        return None, 16
    return MachineConfig.tiny(args.nodes), args.nodes


def _trace_categories(args) -> Optional[List[str]]:
    """The validated ``--trace-categories`` filter (None = all)."""
    raw = getattr(args, "trace_categories", None)
    if not raw:
        return None
    categories = [c.strip() for c in raw.split(",") if c.strip()]
    unknown = sorted(set(categories) - set(CATEGORIES))
    if unknown:
        raise SystemExit(
            f"unknown trace categories {', '.join(unknown)}; "
            f"choose from {', '.join(CATEGORIES)}")
    return categories


def _observe(args) -> Observe:
    """The command's observability flags as one :class:`Observe`.

    ``--trace`` (``trace --out``, ``sweep --trace-dir``) is the trace
    path, ``--ledger`` the ledger path; ``--digest`` takes a file
    path on ``run`` and is a flag on ``sweep``.
    """
    trace = (getattr(args, "trace", None) or getattr(args, "out", None)
             or getattr(args, "trace_dir", None))
    return Observe(trace=trace, trace_categories=_trace_categories(args),
                   ledger=getattr(args, "ledger", None),
                   profile=getattr(args, "profile", False),
                   digest=bool(getattr(args, "digest", None)))


def _print_observed(observe: Observe,
                    profile: Optional[dict] = None) -> None:
    """Show a finished run's profile; point at its trace and ledger."""
    if profile is not None:
        print()
        print(profile_table(profile))
    if observe.trace is not None:
        with open(observe.trace, encoding="utf-8") as handle:
            events = sum(1 for _line in handle)
        print(f"trace: {events} events -> {observe.trace}")
    if observe.ledger is not None:
        from repro.obs.monitor import read_ledger

        healthy = read_ledger(observe.ledger)["healthy"]
        print(f"ledger: {observe.ledger} "
              f"({'healthy' if healthy else 'UNHEALTHY'})")


def cmd_list() -> int:
    """``repro list``: print the twelve workload analogs."""
    rows = []
    for app in APP_NAMES:
        ref = paper_reference(app)
        rows.append([app, ref["problem"], ref["instructions_M"],
                     ref["l2_miss_pct"]])
    print(format_table(
        ["App", "Paper problem size", "Paper instr (M)", "Paper L2 miss %"],
        rows, title="Splash-2 application analogs (Table 4)"))
    return 0


def cmd_table3() -> int:
    """``repro table3``: print the machine parameters."""
    from repro.harness.experiments import table3_architecture

    row = table3_architecture()
    print(format_table(["Parameter", "Value"],
                       [[k, v] for k, v in row.items()],
                       title="Modelled machine (Table 3)"))
    return 0


def cmd_run(args) -> int:
    """``repro run``: one workload on one variant."""
    interval = int(args.interval_us * 1000)
    machine_config, n_procs = _machine_setup(args)
    overrides = (tiny_revive_overrides(args.nodes, args.variant)
                 if args.variant != "baseline" else {})
    observe = _observe(args)
    result = run_app(args.app, args.variant, scale=args.scale,
                     n_procs=n_procs, interval_ns=interval,
                     machine_config=machine_config, observe=observe,
                     **overrides)
    rows = [
        ["execution time (us)", f"{result.execution_time_ns / 1e3:.1f}"],
        ["references", result.total_refs],
        ["L2 miss rate", f"{100 * result.l2_miss_rate:.3f}%"],
        ["checkpoints", result.checkpoints],
        ["max log (KB)", f"{result.max_log_bytes / 1024:.0f}"],
    ]
    for category in TRAFFIC_CATEGORIES:
        rows.append([f"memory traffic {category} (MB)",
                     f"{result.memory_traffic[category] / 1e6:.2f}"])
    print(format_table(["Metric", "Value"], rows,
                       title=f"{args.app} on "
                             f"{VARIANT_LABELS[args.variant]}"))
    if args.digest:
        import os

        from repro.obs.diff import write_run_digest

        # The spec mirrors this command's arguments so 'repro diff
        # --bisect' can rebuild the exact run later.  The test-only
        # perturbation rides along: a replay must reproduce it.
        spec = {"app": args.app, "variant": args.variant,
                "scale": args.scale, "nodes": args.nodes,
                "interval_us": args.interval_us,
                "perturb_store": (int(os.environ.get(
                    "REPRO_PERTURB_STORE", "0")) or None)}
        write_run_digest(args.digest, spec, result.digest)
        print(f"\ndigest: {len(result.digest['windows'])} windows -> "
              f"{args.digest}")
    _print_observed(observe, result.profile)
    return 0


def cmd_compare(args) -> int:
    """``repro compare``: all five variants, with overheads."""
    interval = int(args.interval_us * 1000)
    machine_config, n_procs = _machine_setup(args)
    base = run_app(args.app, "baseline", scale=args.scale,
                   machine_config=machine_config, n_procs=n_procs)
    rows = [["Base", f"{base.execution_time_ns / 1e3:.1f}", "—"]]
    for variant in VARIANTS[1:]:
        result = run_app(args.app, variant, scale=args.scale,
                         interval_ns=interval,
                         machine_config=machine_config, n_procs=n_procs,
                         **tiny_revive_overrides(args.nodes, variant))
        rows.append([VARIANT_LABELS[variant],
                     f"{result.execution_time_ns / 1e3:.1f}",
                     f"{100 * result.overhead_vs(base):+.1f}%"])
    print(format_table(["Variant", "Time (us)", "Overhead"], rows,
                       title=f"{args.app}: error-free execution "
                             f"(Figure 8 row)"))
    return 0


def cmd_sweep(args) -> int:
    """``repro sweep``: app × variant fan-out with parallel workers."""
    from repro.harness.parallel import run_sweep

    for app in args.apps:
        if app not in APP_NAMES:
            raise SystemExit(f"unknown workload {app!r}; "
                             f"choose from {', '.join(APP_NAMES)}")
    variants = None
    if args.variants:
        variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    machine_config, n_procs = _machine_setup(args)
    cache_dir = _cache_dir(args)
    sweep = run_sweep(
        args.apps or None, variants,
        workers=args.workers, chunksize=args.chunksize, serial=args.serial,
        scale=args.scale, n_procs=n_procs,
        interval_ns=int(args.interval_us * 1000),
        machine_config=machine_config, cache_dir=cache_dir,
        observe=_observe(args), **tiny_revive_overrides(args.nodes))
    if args.digest and sweep.digest is not None:
        digested = sum(1 for job in sweep.digest["jobs"]
                       if job["digest"] is not None)
        print(f"digest: {digested}/{len(sweep.digest['jobs'])} job "
              f"chains recorded"
              + (f" -> {args.trace_dir}/sweep.digest.json"
                 if args.trace_dir else ""))
    if cache_dir is not None:
        print(f"cache: {sweep.cache_hits} hits, {sweep.cache_misses} "
              f"misses ({cache_dir})")

    swept_variants = []
    for _app, variant in sweep.job_order:
        if variant not in swept_variants:
            swept_variants.append(variant)
    rows = []
    for app in sweep.apps():
        row = [app]
        base = sweep.results.get((app, "baseline"))
        for variant in swept_variants:
            result = sweep.results[(app, variant)]
            cell = f"{result.execution_time_ns / 1e3:.1f}us"
            if base is not None and variant != "baseline":
                cell += f" ({100 * result.overhead_vs(base):+.1f}%)"
            row.append(cell)
        rows.append(row)
    mode = (f"{sweep.workers} workers" if sweep.parallel
            else "serial")
    print(format_table(
        ["App"] + [VARIANT_LABELS[v] for v in swept_variants], rows,
        title=f"sweep: {len(sweep.job_order)} runs in "
              f"{sweep.wall_seconds:.1f}s ({mode})"))
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(sweep.to_jsonable(), fh, indent=2)
        print(f"\nresults: {args.json}")
    if sweep.trace_dir is not None:
        healthy = sum(1 for ledger in sweep.ledgers or []
                      if ledger.get("healthy"))
        print(f"\ntraces + ledgers: {sweep.trace_dir} "
              f"({healthy}/{len(sweep.ledgers or [])} runs healthy; "
              f"render with: repro report {sweep.trace_dir})")
    return 0


def _fraction_list(raw: str, flag: str) -> List[float]:
    """Parse a comma-separated fraction list CLI argument."""
    try:
        return [float(f) for f in raw.split(",") if f.strip()]
    except ValueError:
        raise SystemExit(f"{flag} wants comma-separated numbers, "
                         f"got {raw!r}")


def cmd_campaign(args) -> int:
    """``repro campaign``: warm once, fork the fault grid."""
    lost_nodes = []
    for token in args.lost_nodes.split(","):
        token = token.strip().lower()
        if not token:
            continue
        lost_nodes.append(None if token == "none" else int(token))
    detect_fractions = _fraction_list(args.detect_fractions,
                                      "--detect-fractions")
    hybrid_fractions = (_fraction_list(args.hybrid_fractions,
                                       "--hybrid-fractions")
                        if args.hybrid_fractions else None)
    machine_config, n_procs = _machine_setup(args)
    observe = _observe(args)
    campaign = run_campaign(
        args.app, args.variant, warm_checkpoints=args.warm,
        lost_nodes=tuple(lost_nodes),
        detect_fractions=tuple(detect_fractions),
        hybrid_fractions=hybrid_fractions,
        scale=args.scale, n_procs=n_procs,
        interval_ns=int(args.interval_us * 1000),
        machine_config=machine_config, cache_dir=_cache_dir(args),
        workers=args.workers, serial=args.serial, cold=args.cold,
        observe=observe, **tiny_revive_overrides(args.nodes, args.variant))
    rows = []
    for outcome in campaign.outcomes:
        lost = ("—" if outcome["lost_node"] is None
                else str(outcome["lost_node"]))
        row = [lost, f"{outcome['detect_fraction']:.2f}",
               f"{outcome['lost_work_ns'] / 1e3:.0f}",
               f"{outcome['breakdown']['log_rebuild'] / 1e3:.0f}",
               f"{outcome['breakdown']['rollback'] / 1e3:.0f}",
               f"{outcome['unavailable_ns'] / 1e6:.1f}"]
        if outcome["hybrid_fraction"] is not None:
            row.insert(0, f"{outcome['hybrid_fraction']:.2f}")
        rows.append(row)
    headers = ["Lost node", "Detect", "Lost work (us)",
               "Log rebuild (us)", "Rollback (us)", "Unavailable (ms)"]
    if any(o["hybrid_fraction"] is not None for o in campaign.outcomes):
        headers.insert(0, "Hybrid")
    mode = ("cold" if campaign.cold
            else f"{campaign.workers} workers" if campaign.parallel
            else "forked, serial")
    print(format_table(
        headers, rows,
        title=f"{args.app} on {VARIANT_LABELS[args.variant]}: "
              f"{len(campaign.outcomes)} scenarios in "
              f"{campaign.wall_seconds:.1f}s ({mode})"))
    if not campaign.cold:
        for image in campaign.images:
            state = "cached" if image["cached"] else "captured"
            print(f"warm image {image['key'][:12]}: "
                  f"{image['bytes'] / 1024:.0f}KB ({state})")
    _print_observed(observe)
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(campaign.to_jsonable(), fh, indent=2)
        print(f"campaign: {args.json}")
    return 0


def _worst_case_recovery(args):
    """Figure 12's worst case on the ``--nodes`` machine.

    Warms past the second commit, loses ``--lost-node`` (or takes a
    transient fault) 0.8 of an interval later, and recovers to
    checkpoint 1, observed as the command's flags say; the trace and
    ledger are complete when this returns.  Returns
    ``(machine, result)``, or None when the run is too short for two
    checkpoints.
    """
    interval = int(args.interval_us * 1000)
    machine_config, n_procs = _machine_setup(args)
    run_kwargs = dict(scale=args.scale, n_procs=n_procs,
                      interval_ns=interval, machine_config=machine_config,
                      **tiny_revive_overrides(args.nodes))
    try:
        machine = warm_machine(args.app, "cp_parity",
                               dict(run_kwargs, debug_snapshots=True), 2,
                               observe=_observe(args))
    except WarmupTooShort:
        print("run too short for two checkpoints; raise --scale or "
              "lower --interval-us", file=sys.stderr)
        return None
    _detect, result = _fault_and_recover(
        machine, {"lost_node": args.lost_node, "detect_fraction": 0.8}, 2,
        interval)
    machine.instruments.close(
        run_args=dict(run_kwargs, lost_node=args.lost_node))
    return machine, result


def cmd_recover(args) -> int:
    """``repro recover``: fault injection + verified recovery."""
    recovered = _worst_case_recovery(args)
    if recovered is None:
        return 2
    machine, result = recovered
    mismatches = machine.verify_against_snapshot(result.target_epoch)
    broken = machine.revive.parity.check_all_parity()
    print(format_table(
        ["Phase", "us"],
        [["lost work", f"{result.lost_work_ns / 1e3:.0f}"],
         ["1: hardware recovery", f"{result.phase1_ns / 1e3:.0f}"],
         ["2: log rebuild", f"{result.phase2_ns / 1e3:.0f}"],
         ["3: rollback", f"{result.phase3_ns / 1e3:.0f}"],
         ["4: background repair",
          f"{result.phase4_background_ns / 1e3:.0f}"]],
        title=f"{args.app}: recovery "
              f"({result.entries_undone} entries undone)"))
    _print_observed(machine.instruments.observe,
                    profile_summary(machine.profiler))
    if mismatches or broken:
        print(f"VERIFICATION FAILED: {len(mismatches)} mismatching lines, "
              f"{len(broken)} broken stripes", file=sys.stderr)
        return 1
    print("verification: memory bit-exact, parity consistent")
    return 0


def cmd_trace(args) -> int:
    """``repro trace``: the documented trace-a-recovery worked example.

    Runs the workload on a tiny ``--nodes`` machine with tracing on,
    lets two checkpoints commit, loses ``--lost-node``, recovers to
    epoch 1, then *recomputes* the recovery phase breakdown from the
    JSONL trace alone and cross-checks it against the live
    ``RecoveryResult`` — the same procedure docs/OBSERVABILITY.md
    walks through.  Exit status 1 on any mismatch.
    """
    recovered = _worst_case_recovery(args)
    if recovered is None:
        return 2
    machine, result = recovered
    mismatches = machine.verify_against_snapshot(result.target_epoch)
    observe = machine.instruments.observe
    events = read_trace(observe.trace)
    print(trace_summary_table(events))
    print()

    # The cross-check: Figure 12's components, once from the live
    # RecoveryResult and once recomputed from the JSONL alone.
    from_trace = recovery_breakdown(events)
    live = dict(result.breakdown(),
                background_repair=result.phase4_background_ns)
    rows = []
    all_match = True
    for phase, live_ns in live.items():
        traced_ns = from_trace.get(phase)
        match = traced_ns == live_ns
        all_match &= match
        rows.append([phase, f"{live_ns / 1e3:.1f}",
                     f"{traced_ns / 1e3:.1f}" if traced_ns is not None
                     else "—", "ok" if match else "MISMATCH"])
    print(format_table(
        ["Phase", "RecoveryResult (us)", "From trace (us)", ""],
        rows, title=f"{args.app}: recovery breakdown, live vs "
                    f"recomputed from {observe.trace}"))
    _print_observed(observe, profile_summary(machine.profiler))
    if mismatches:
        print(f"VERIFICATION FAILED: {len(mismatches)} mismatching lines",
              file=sys.stderr)
        return 1
    if not all_match:
        print("TRACE MISMATCH: breakdown recomputed from the trace "
              "disagrees with RecoveryResult", file=sys.stderr)
        return 1
    print("verification: memory bit-exact, trace breakdown matches "
          "RecoveryResult")
    return 0


def cmd_report(args) -> int:
    """``repro report``: the dashboard, from traces + ledgers alone.

    Never touches a live machine — every number is recomputed from the
    JSONL events and ledger manifests (Figure 8 from ledgers, Figure 11
    log occupancy and Figure 12 recovery breakdown from events), the
    same computations ``tests/test_obs_report.py`` cross-checks
    bit-for-bit against simulator state.
    """
    from repro.obs.report import build_report, gather_runs, render_report

    try:
        runs = gather_runs(args.paths)
    except FileNotFoundError as exc:
        raise SystemExit(f"no trace at {exc}")
    if not runs:
        raise SystemExit("no traces found under "
                         + ", ".join(args.paths))
    report = build_report(runs)
    print(render_report(report))
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"\nreport: {args.json}")
    return 0


def cmd_trace_lint(args) -> int:
    """``repro trace-lint``: schema-validate traces; exit 1 on problems."""
    from repro.obs import lint_file

    failures = 0
    for path in args.paths:
        problems = lint_file(path)
        if problems:
            failures += 1
            for problem in problems:
                print(problem, file=sys.stderr)
        else:
            events = read_trace(path)
            print(f"{path}: {len(events)} events, schema-clean")
    return 1 if failures else 0


def cmd_latency(args) -> int:
    """``repro latency``: percentile + attribution tables from spans.

    Traces come from any command run with ``--trace`` (or a sweep's
    ``--trace-dir``) under schema v2 with the ``span`` category
    enabled.  The report is recomputed from the events alone, and for
    a deterministic sweep it is byte-identical whether the traces were
    produced serially or in parallel.
    """
    from repro.obs.analysis import latency_report
    from repro.obs.report import gather_runs, render_latency

    try:
        runs = gather_runs(args.paths)
    except FileNotFoundError as exc:
        raise SystemExit(f"no trace at {exc}")
    if not runs:
        raise SystemExit("no traces found under " + ", ".join(args.paths))
    reports = {}
    for run in runs:
        latency = reports[run["name"]] = latency_report(run["events"])
        if len(runs) > 1:
            print(f"== {run['name']} ==")
        print(render_latency(latency))
        if len(runs) > 1:
            print()
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(reports, fh, indent=2, sort_keys=True)
        print(f"latency report: {args.json}")
    return 0


def cmd_export_trace(args) -> int:
    """``repro export-trace``: JSONL -> Chrome Trace Event JSON."""
    from repro.obs.export import write_chrome_trace

    try:
        events = read_trace(args.trace)
    except FileNotFoundError:
        raise SystemExit(f"no trace at {args.trace}")
    out = args.out
    if out is None:
        stem = args.trace[:-len(".jsonl")] \
            if args.trace.endswith(".jsonl") else args.trace
        out = stem + ".chrome.json"
    slices = write_chrome_trace(events, out,
                                include_instants=not args.spans_only)
    print(f"{args.trace}: {len(events)} events -> {slices} trace "
          f"entries in {out}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def cmd_profile(args) -> int:
    """``repro profile``: host-time attribution of one run.

    Runs the workload with per-actor host-time attribution on and
    prints the component table (self vs cumulative), the per-actor
    attribution with the per-node batch/protocol-fallout tier split,
    and the reconciliation line: the fraction of ``machine.run`` wall
    time the per-actor timings account for.  ``--min-coverage`` turns
    that line into a gate (exit 1 below the threshold) so CI can pin
    the attribution honest.
    """
    import json as json_mod

    from repro.harness.reporting import actor_table
    from repro.obs import write_profile_counter_trace
    from repro.obs.telemetry import (
        actor_coverage,
        emit_profile_events,
        fallout_share,
        flamegraph_lines,
    )

    interval = int(args.interval_us * 1000)
    machine_config, n_procs = _machine_setup(args)
    overrides = (tiny_revive_overrides(args.nodes, args.variant)
                 if args.variant != "baseline" else {})
    result = run_app(args.app, args.variant, scale=args.scale,
                     interval_ns=interval, machine_config=machine_config,
                     n_procs=n_procs, observe=Observe(profile=True),
                     **overrides)
    profile = result.profile
    display = profile
    if args.top is not None:
        hottest = sorted(profile["actors"].items(),
                         key=lambda kv: kv[1]["seconds"],
                         reverse=True)[:args.top]
        display = dict(profile, actors=dict(hottest))
    print(profile_table(profile))
    print()
    print(actor_table(display))
    coverage = actor_coverage(profile)
    share = fallout_share(profile)
    print(f"\nattribution: {100 * coverage:.1f}% of machine.run wall "
          f"time attributed to {len(profile['actors'])} actors")
    print(f"tier split: {100 * share:.1f}% of actor time in scalar "
          f"protocol fallout (docs/PERFORMANCE.md §1b)")
    if args.flame:
        lines = flamegraph_lines(profile)
        with open(args.flame, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"flamegraph: {len(lines)} stacks -> {args.flame}")
    if args.perfetto:
        entries = write_profile_counter_trace(profile, args.perfetto)
        print(f"perfetto: {entries} counter entries -> {args.perfetto}")
    if args.trace:
        from repro.obs.tracer import JsonlFileSink, Tracer

        tracer = Tracer(JsonlFileSink(args.trace))
        emit_profile_events(tracer, profile)
        tracer.close()
        print(f"trace: {tracer.events_emitted} prof events -> "
              f"{args.trace}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json_mod.dump(profile, fh, indent=2, sort_keys=True)
        print(f"profile: {args.json}")
    if args.min_coverage is not None and coverage < args.min_coverage:
        print(f"ATTRIBUTION BELOW THRESHOLD: {coverage:.3f} < "
              f"{args.min_coverage}", file=sys.stderr)
        return 1
    return 0


def cmd_diff(args) -> int:
    """``repro diff``: where did two runs stop being the same run?

    Compares the digest chains of two ``repro run --digest`` files.
    Identical chains exit 0; otherwise the first divergent checkpoint
    window and component are named and the exit status is 1.
    ``--bisect`` then re-simulates run A to the last-agreeing commit,
    forks both specs from that shared image, and replays the divergent
    window with per-event digesting until the first event whose
    machine digest differs — the determinism-observatory workflow
    documented in docs/OBSERVABILITY.md.
    """
    from repro.obs.diff import (
        bisect_divergence,
        diff_run_digests,
        read_run_digest,
    )

    try:
        doc_a = read_run_digest(args.run_a)
        doc_b = read_run_digest(args.run_b)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"cannot read digest file: {exc}")
    divergence = diff_run_digests(doc_a, doc_b)
    windows_a = doc_a["chain"]["windows"]
    if divergence is None:
        tip = windows_a[-1]["machine"] if windows_a else "genesis"
        print(f"identical: {len(windows_a)} windows, tip {tip[:12]}")
        return 0
    component = divergence["component"] or "(chain length)"
    print(f"divergent: first at window {divergence['window']} "
          f"(epoch {divergence['epoch']}), component {component}")
    print(f"  A: {(divergence['a'] or '—')[:16]}  "
          f"B: {(divergence['b'] or '—')[:16]}")
    if args.bisect:
        report = bisect_divergence(doc_a, doc_b, divergence,
                                   image_path=args.image)
        event = report["event"]
        if event is None:
            print(f"bisect: {report.get('note', 'event not localised')}")
        else:
            lo, hi = event["store_range"]
            print(f"bisect: first divergent event {event['index']} at "
                  f"t={event['now']}ns, component "
                  f"{event['component'] or '(event count)'}, "
                  f"stores ({lo}, {hi}]")
            if report["image"]:
                print(f"frontier image: {report['image']}")
    return 1


def cmd_stats(args) -> int:
    """``repro stats``: live telemetry from a running service."""
    import json as json_mod

    from repro.serve import DEFAULT_HOST, DEFAULT_PORT, fetch_metrics, \
        submit

    host = args.host if args.host is not None else DEFAULT_HOST
    port = args.port if args.port is not None else DEFAULT_PORT
    try:
        if args.prometheus:
            sys.stdout.write(fetch_metrics(host=host, port=port))
            return 0
        status = 0
        for event in submit({"op": "stats"}, host=host, port=port):
            if args.json:
                print(json_mod.dumps(event, sort_keys=True))
                if event["name"] == "svc.error":
                    status = 1
                continue
            name = event.get("name")
            if name == "stats.heartbeat":
                print(f"beat {event['beat']}: "
                      f"{event['workers_busy']}/{event['workers']} "
                      f"workers busy, queue {event['queue_depth']}, "
                      f"{event['inflight']} in flight")
            elif name == "stats.snapshot":
                _print_stats_snapshot(event)
            elif name == "svc.error":
                print(f"error: {event['error']}", file=sys.stderr)
                status = 1
        return status
    except OSError as exc:
        raise SystemExit(f"cannot reach repro serve at {host}:{port} "
                         f"({exc}); start one with: repro serve")


def _print_stats_snapshot(event: dict) -> None:
    """Render one ``stats.snapshot`` metrics payload for humans."""
    metrics = event["metrics"]
    if metrics["counters"]:
        print(format_table(["Counter", "Value"],
                           sorted(metrics["counters"].items()),
                           title=f"Counters (beat {event['beat']})"))
    if metrics["gauges"]:
        print(format_table(
            ["Gauge", "Value", "Max"],
            [[name, info["value"], info["max"]]
             for name, info in sorted(metrics["gauges"].items())],
            title="Gauges"))
    if metrics["histograms"]:
        print(format_table(
            ["Histogram", "Count", "Mean", "p50", "p99", "Max"],
            [[name, s["count"], f"{s['mean']:.0f}", f"{s['p50']:.0f}",
              f"{s['p99']:.0f}", s["max"]]
             for name, s in sorted(metrics["histograms"].items())],
            title="Histograms (us)"))


def cmd_serve(args) -> int:
    """``repro serve``: the async simulation service (docs/SERVING.md).

    Binds a JSONL TCP server on ``--host:--port`` (``--port 0`` picks
    a free port; the banner line reports the bound address) and serves
    run/latency/sweep/report requests, deduped against the result
    store at ``--cache-dir``.  Runs until interrupted (SIGINT or
    SIGTERM); either way the worker processes are shut down first.
    """
    import asyncio
    import signal

    from repro.serve import (
        DEFAULT_HOST,
        DEFAULT_PORT,
        SimulationService,
        bound_port,
        start_server,
    )

    host = args.host if args.host is not None else DEFAULT_HOST
    port = args.port if args.port is not None else DEFAULT_PORT
    max_bytes = (int(args.max_cache_mb * 1024 * 1024)
                 if args.max_cache_mb is not None else None)
    service = SimulationService(cache_dir=_cache_dir(args),
                                workers=args.workers,
                                max_cache_bytes=max_bytes)

    async def _serve() -> None:
        server = await start_server(service, host=host, port=port)
        cache = _cache_dir(args) or "off"
        print(f"serving on {host}:{bound_port(server)} "
              f"(cache: {cache}, workers: {service.workers})", flush=True)
        async with server:
            await server.serve_forever()

    # SIGTERM stops the server like Ctrl-C, so the ``finally`` below
    # still shuts the worker pool down instead of orphaning it.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


def cmd_submit(args) -> int:
    """``repro submit``: stream one request through a running service."""
    import json as json_mod

    from repro.serve import DEFAULT_HOST, DEFAULT_PORT, submit

    variants = None
    if args.variants:
        variants = [v.strip() for v in args.variants.split(",")
                    if v.strip()]
    request = {"op": args.op, "nodes": args.nodes, "scale": args.scale,
               "interval_us": args.interval_us,
               "no_cache": args.no_cache}
    if args.op in ("run", "latency", "campaign"):
        if len(args.apps) != 1:
            raise SystemExit(f"op {args.op!r} takes exactly one app")
        request["app"] = args.apps[0]
        if variants:
            request["variant"] = variants[0]
    else:
        request["apps"] = args.apps
        if variants:
            request["variants"] = variants

    host = args.host if args.host is not None else DEFAULT_HOST
    port = args.port if args.port is not None else DEFAULT_PORT
    try:
        events = submit(request, host=host, port=port)
        status = 0
        for event in events:
            if args.json:
                print(json_mod.dumps(event, sort_keys=True))
                if event["name"] == "svc.error":
                    status = 1
                continue
            status = max(status, _print_submit_event(event))
        return status
    except OSError as exc:
        raise SystemExit(f"cannot reach repro serve at {host}:{port} "
                         f"({exc}); start one with: repro serve")


def _print_submit_event(event: dict) -> int:
    """Render one ``svc.*`` event for humans; returns the exit status."""
    name = event.get("name")
    short = (event.get("key") or "")[:12]
    if name == "svc.accepted":
        print(f"accepted {event['op']} request {short}")
    elif name == "svc.cache_hit":
        print(f"cache hit {short}")
    elif name == "svc.cache_miss":
        print(f"cache miss {short}")
    elif name == "svc.scheduled":
        print(f"  scheduled {short}")
    elif name == "svc.coalesced":
        print(f"  coalesced onto in-flight run {short}")
    elif name == "svc.verdicts":
        healthy = all(v.get("healthy", True)
                      for v in event["verdicts"].values())
        print(f"  {event['app']} {event['variant']}: monitors "
              f"{'healthy' if healthy else 'UNHEALTHY'}")
    elif name == "svc.latency":
        classes = event["classes"]
        if classes:
            parts = [f"{cls} p99={summary.get('p99', 0) / 1e3:.1f}us"
                     for cls, summary in sorted(classes.items())]
            print(f"  latency: {', '.join(parts)}")
    elif name == "svc.result":
        result = event["result"]
        suffix = " (cached)" if event["cached"] else ""
        print(f"  {event['app']} {event['variant']}: "
              f"{result['execution_time_ns'] / 1e3:.1f}us, "
              f"{result['checkpoints']} checkpoints, "
              f"max log {result['max_log_bytes'] / 1024:.0f}KB{suffix}")
    elif name == "svc.report":
        for row in event["rows"]:
            overheads = ", ".join(
                f"{variant} {100 * value:+.1f}%"
                for variant, value in sorted(row.items())
                if variant not in ("app", "baseline_ns"))
            print(f"  {row['app']}: baseline "
                  f"{row['baseline_ns'] / 1e3:.1f}us; {overheads}")
    elif name == "snap.capture":
        print(f"  warm image {short}: {event['bytes'] / 1024:.0f}KB "
              f"captured at epoch {event['epoch']} "
              f"in {event['dur_ms']}ms")
    elif name == "snap.restore":
        print(f"  warm image {short}: {event['bytes'] / 1024:.0f}KB "
              f"from cache")
    elif name == "snap.fork":
        print(f"  forking {event['scenarios']} scenarios from {short}")
    elif name == "svc.campaign":
        for outcome in event["outcomes"]:
            lost = ("transient" if outcome["lost_node"] is None
                    else f"node {outcome['lost_node']} lost")
            print(f"  {lost}, detect {outcome['detect_fraction']:.2f}: "
                  f"lost work {outcome['lost_work_ns'] / 1e3:.0f}us, "
                  f"unavailable {outcome['unavailable_ns'] / 1e6:.1f}ms")
    elif name == "svc.timing":
        phases = event["phases"]
        print(f"  host time: {phases['total_ms']:.0f}ms total "
              f"(lookup {phases['cache_lookup_ms']:.1f}ms, queue "
              f"{phases['queue_wait_ms']:.1f}ms, execute "
              f"{phases['execute_ms']:.0f}ms)")
    elif name == "svc.done":
        print(f"done: {event['jobs']} jobs, {event['cached']} from cache")
    elif name == "svc.error":
        print(f"error: {event['error']}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = make_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "table3":
        return cmd_table3()
    if args.command == "run":
        return cmd_run(args)
    if args.command == "compare":
        return cmd_compare(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "campaign":
        return cmd_campaign(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "trace-lint":
        return cmd_trace_lint(args)
    if args.command == "latency":
        return cmd_latency(args)
    if args.command == "export-trace":
        return cmd_export_trace(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "submit":
        return cmd_submit(args)
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "stats":
        return cmd_stats(args)
    if args.command == "diff":
        return cmd_diff(args)
    assert args.command == "recover"
    return cmd_recover(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
