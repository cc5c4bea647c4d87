"""Throughput measurement harness (docs/PERFORMANCE.md).

Measures the simulator's end-to-end speed on the standard exhibit —
the ``lu`` analog at scale 0.25 on the bench machine — and the sweep
executor's parallel speedup, and emits a machine-readable report
(``benchmarks/results/BENCH_throughput.json``) with each exhibit's
refs/sec and its speedup against the *recorded* baseline, plus the
columnar-vs-reference-loop tier comparison and its enforced floor.
Consumers:

* ``benchmarks/test_simulator_throughput.py`` (``pytest -m perf``) —
  writes the report and enforces the soft regression threshold;
* ``tools/bench.py`` — the command-line entry point;
* ``tools/smoke.py`` — a one-round perf smoke.

The regression policy is *soft*: falling below the recorded baseline
itself is reported as a warning in ``report["regressions"]`` (hosts
differ), while falling below ``SOFT_THRESHOLD`` of it fails the
harness — that much slowdown is a code regression, not host noise.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Sequence

from repro.harness.parallel import run_sweep
from repro.harness.runner import build_machine
from repro.machine.config import MachineConfig
from repro.workloads.registry import get_workload

#: refs/sec recorded in ``benchmarks/results/BENCH_throughput.json``
#: by the compiled *scalar* fast path (a since-deleted tier) on the
#: bench host, before the columnar batch engine landed.  (The
#: pre-fast-path PR-1 seed recorded 319,002 refs/s in
#: ``results/simulator_throughput.txt``.)
RECORDED_BASELINE_REFS_PER_SEC = 752_941

#: Fraction of the recorded baseline below which the harness *fails*
#: (above it but below 1.0 is only a warning — hosts differ).
SOFT_THRESHOLD = 0.5

#: The standard exhibits: single-process runs whose refs/sec we track.
EXHIBIT_VARIANTS = ("baseline", "cp_parity")

#: Hard ceiling on the result store's warm hit path: replaying a whole
#: cached sweep (lookup + byte replay, zero simulation) must finish in
#: well under a second, or the cache is not the O(1) lookup
#: docs/SERVING.md promises.
CACHE_HIT_MAX_SECONDS = 0.25

#: Hard floor on hit-vs-miss speedup: a warm cache must beat fresh
#: simulation by at least this factor on the standard cache exhibit.
CACHE_HIT_MIN_SPEEDUP = 5.0

#: Hard floor on the fault campaign's fork path: replaying the Fig. 12
#: grid from one stored warm image must beat cold per-scenario
#: re-simulation by at least this factor on the standard campaign
#: exhibit (docs/SNAPSHOTS.md).
CAMPAIGN_MIN_SPEEDUP = 5.0

#: Hard floor on the columnar batch engine's speedup over the layered
#: reference loop on the standard exhibit (same process, tiers
#: alternating within each round, so host drift hits both equally).
#: Set from measurement on a shared 2-core x86-64 Linux container at
#: the CI's ``--quick`` scale (0.1, one round per tier): 30
#: alternating pairs gave columnar/reference min 1.12x, quartiles
#: 1.28x / 1.42x / 1.67x, max 2.05x; best-of-3 at scale 0.25 gave
#: 1.58x, 2.13x, 2.17x and 2.25x.  The floor sits below every measured
#: quick-scale pair, so it fails when the default tier stops beating
#: the oracle loop, not on host noise (docs/PERFORMANCE.md §1b: the directory
#: protocol's per-reference fallout bounds the speedup).
COLUMNAR_MIN_SPEEDUP = 1.05

#: Hard ceiling on the *disabled* observability tax: a machine with
#: the full hook surface installed but turned off (disabled tracer,
#: no profiler) must run within this fraction of a machine that never
#: saw the install path.  Keeps "observability is zero-cost when off"
#: (docs/OBSERVABILITY.md) an enforced property, not a slogan.
OBS_OVERHEAD_MAX = 0.02

#: Hard ceiling on the *enabled* determinism-digest tax: a cp_parity
#: run digesting every checkpoint boundary (docs/OBSERVABILITY.md,
#: "Determinism observatory") must run within this fraction of the
#: same run without digesting.  Checkpoint boundaries are sparse
#: relative to memory references, so the per-window sha256 over every
#: component's snapshot state has to stay in the noise.
DIGEST_OVERHEAD_MAX = 0.05

REPORT_SCHEMA = 1


def _run_exhibit(variant: str, scale: float,
                 columnar: bool = True) -> Dict[str, float]:
    machine = build_machine(variant, machine_config=MachineConfig.bench())
    machine.attach_workload(get_workload("lu", scale=scale))
    for proc in machine.processors:
        proc.columnar = columnar
    start = time.perf_counter()
    machine.run()
    wall = time.perf_counter() - start
    return {"refs": machine.total_mem_refs(), "wall_seconds": wall}


def measure_exhibit(variant: str, scale: float = 0.25,
                    rounds: int = 3) -> Dict[str, float]:
    """Refs/sec of one variant, best-of-``rounds`` fresh machines."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    runs = [_run_exhibit(variant, scale) for _ in range(rounds)]
    best = min(run["wall_seconds"] for run in runs)
    mean = sum(run["wall_seconds"] for run in runs) / rounds
    refs = runs[0]["refs"]
    return {
        "variant": variant,
        "refs": refs,
        "rounds": rounds,
        "wall_seconds_best": best,
        "wall_seconds_mean": mean,
        "refs_per_sec": refs / best,
    }


def measure_sweep_parallelism(workers: int = 4, scale: float = 0.1,
                              apps: Sequence[str] = ("lu", "fft"),
                              variants: Sequence[str] = EXHIBIT_VARIANTS,
                              ) -> Dict[str, float]:
    """Serial vs ``workers``-way wall clock of one small sweep.

    The speedup is bounded by the host's real core count — on a
    single-core container the parallel path measures its overhead, not
    a speedup — so the report carries ``cpu_count`` alongside it.
    """
    serial = run_sweep(apps, variants, serial=True, scale=scale)
    parallel = run_sweep(apps, variants, workers=workers, scale=scale)
    return {
        "jobs": len(serial.job_order),
        "workers_requested": workers,
        "workers_used": parallel.workers,
        "ran_parallel": parallel.parallel,
        "cpu_count": os.cpu_count() or 1,
        "serial_wall_seconds": serial.wall_seconds,
        "parallel_wall_seconds": parallel.wall_seconds,
        "speedup": serial.wall_seconds / parallel.wall_seconds
        if parallel.wall_seconds else 0.0,
    }


def measure_cache_hit_path(rounds: int = 3) -> Dict[str, float]:
    """Warm-cache latency of the result store's hit path.

    Runs the standard cache exhibit — a serial ``lu``
    baseline/cp_parity sweep on a tiny 4-node machine — once cold
    (populating a fresh store; this is the *miss* wall clock) and then
    ``rounds`` more times warm, reporting the best warm wall clock,
    the equivalent lookups/sec, and the hit-vs-miss speedup.  Gated in
    :func:`hard_failures` by :data:`CACHE_HIT_MAX_SECONDS` and
    :data:`CACHE_HIT_MIN_SPEEDUP`.
    """
    import shutil
    import tempfile

    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    apps, variants = ["lu"], ["baseline", "cp_parity"]
    kwargs = dict(serial=True, scale=0.05, n_procs=4,
                  machine_config=MachineConfig.tiny(4),
                  parity_group_size=3, log_bytes_per_node=64 * 1024)
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        cold = run_sweep(apps, variants, cache_dir=cache_dir, **kwargs)
        assert cold.cache_misses == len(cold.job_order)
        warm_walls = []
        for _ in range(rounds):
            warm = run_sweep(apps, variants, cache_dir=cache_dir, **kwargs)
            assert warm.cache_hits == len(warm.job_order)
            warm_walls.append(warm.wall_seconds)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    best = min(warm_walls)
    jobs = len(cold.job_order)
    return {
        "jobs": jobs,
        "rounds": rounds,
        "miss_wall_seconds": cold.wall_seconds,
        "hit_wall_seconds_best": best,
        "hit_wall_seconds_mean": sum(warm_walls) / rounds,
        "hit_lookups_per_sec": jobs / best if best else 0.0,
        "speedup_vs_miss": (cold.wall_seconds / best) if best else 0.0,
        "max_seconds": CACHE_HIT_MAX_SECONDS,
        "min_speedup": CACHE_HIT_MIN_SPEEDUP,
    }


def measure_campaign_fork_speedup(rounds: int = 2) -> Dict[str, float]:
    """Fork-vs-cold wall clock of the fault-campaign path.

    Runs the standard campaign exhibit — a nine-scenario Fig. 12 grid
    (``fft``/cp_parity, three lost-node choices x three detection
    latencies) warmed six checkpoints deep on a tiny 4-node machine —
    once cold (every scenario re-simulates its own warm-up), once to
    populate a fresh store with the warm image, and then ``rounds``
    more times forked from the stored image, reporting the best forked
    wall clock and the fork-vs-cold speedup.  The populate round
    doubles as a correctness cross-check: forked outcomes must equal
    the cold ones exactly.  Gated in :func:`hard_failures` by
    :data:`CAMPAIGN_MIN_SPEEDUP`.
    """
    import shutil
    import tempfile

    from repro.harness.campaign import run_campaign

    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    kwargs = dict(scale=0.05, n_procs=4, interval_ns=50_000,
                  machine_config=MachineConfig.tiny(4),
                  warm_checkpoints=6, lost_nodes=(None, 1, 2),
                  detect_fractions=(0.1, 0.2, 0.3), serial=True,
                  parity_group_size=3, log_bytes_per_node=64 * 1024)
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-campaign-")
    try:
        cold = run_campaign("fft", "cp_parity", cold=True, **kwargs)
        populate = run_campaign("fft", "cp_parity", cache_dir=cache_dir,
                                **kwargs)
        assert populate.outcomes == cold.outcomes, \
            "forked campaign outcomes diverged from cold replays"
        forked_walls = []
        for _ in range(rounds):
            forked = run_campaign("fft", "cp_parity",
                                  cache_dir=cache_dir, **kwargs)
            assert all(image["cached"] for image in forked.images)
            forked_walls.append(forked.wall_seconds)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    best = min(forked_walls)
    return {
        "scenarios": len(cold.outcomes),
        "warm_checkpoints": 6,
        "rounds": rounds,
        "image_bytes": populate.image_bytes,
        "cold_wall_seconds": cold.wall_seconds,
        "populate_wall_seconds": populate.wall_seconds,
        "forked_wall_seconds_best": best,
        "forked_wall_seconds_mean": sum(forked_walls) / rounds,
        "speedup_vs_cold": (cold.wall_seconds / best) if best else 0.0,
        "min_speedup": CAMPAIGN_MIN_SPEEDUP,
    }


def measure_columnar_speedup(rounds: int = 3,
                             scale: float = 0.25) -> Dict[str, float]:
    """Columnar-vs-reference-loop refs/sec on the standard exhibit.

    Runs the baseline exhibit on each execution tier — the layered
    reference loop and the columnar batch engine — with the tier set
    per processor after the workload is attached.  Rounds alternate
    between the two tiers so host drift hits both equally; both take
    best-of-``rounds``.  Gated in :func:`hard_failures` by
    :data:`COLUMNAR_MIN_SPEEDUP`.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    walls: Dict[str, List[float]] = {"reference": [], "columnar": []}
    refs = 0
    for _ in range(rounds):
        for tier, runs in walls.items():
            run = _run_exhibit("baseline", scale,
                               columnar=tier == "columnar")
            runs.append(run["wall_seconds"])
            refs = run["refs"]
    reference_rate = refs / min(walls["reference"])
    columnar_rate = refs / min(walls["columnar"])
    return {
        "rounds": rounds,
        "scale": scale,
        "reference_refs_per_sec": reference_rate,
        "columnar_refs_per_sec": columnar_rate,
        "speedup": columnar_rate / reference_rate,
        "min_speedup": COLUMNAR_MIN_SPEEDUP,
    }


def measure_obs_overhead(rounds: int = 3,
                         scale: float = 0.25) -> Dict[str, float]:
    """Wall-clock tax of the observability surface when it is *off*.

    Runs the baseline exhibit two ways: a machine built the ordinary
    way (no tracer, no profiler — the hooks were never installed) and
    a machine pushed through the full install path with everything
    disabled (``install_tracer`` with a sink-less disabled tracer,
    ``install_profiler(None)``).  Rounds alternate between the two
    tiers so host drift hits both equally; both take best-of-rounds.
    The reported ``overhead_fraction`` is how much slower the
    obs-off machine ran, gated in :func:`hard_failures` by
    :data:`OBS_OVERHEAD_MAX`.
    """
    from repro.obs.tracer import Tracer

    if rounds < 1:
        raise ValueError("rounds must be >= 1")

    def run_once(install_hooks: bool) -> Dict[str, float]:
        machine = build_machine("baseline",
                                machine_config=MachineConfig.bench())
        machine.attach_workload(get_workload("lu", scale=scale))
        if install_hooks:
            machine.install_tracer(Tracer(sink=None, enabled=False))
            machine.install_profiler(None)
        start = time.perf_counter()
        machine.run()
        return {"refs": machine.total_mem_refs(),
                "wall_seconds": time.perf_counter() - start}

    no_hooks, obs_off = [], []
    for _ in range(rounds):
        no_hooks.append(run_once(False))
        obs_off.append(run_once(True))
    refs = no_hooks[0]["refs"]
    base = min(run["wall_seconds"] for run in no_hooks)
    off = min(run["wall_seconds"] for run in obs_off)
    return {
        "rounds": rounds,
        "scale": scale,
        "refs": refs,
        "no_hooks_wall_seconds_best": base,
        "obs_off_wall_seconds_best": off,
        "no_hooks_refs_per_sec": refs / base if base else 0.0,
        "obs_off_refs_per_sec": refs / off if off else 0.0,
        "overhead_fraction": (off / base - 1.0) if base else 0.0,
        "max_overhead": OBS_OVERHEAD_MAX,
    }


def measure_digest_overhead(rounds: int = 3,
                            scale: float = 0.25) -> Dict[str, float]:
    """Wall-clock tax of checkpoint-boundary determinism digesting.

    Runs the cp_parity exhibit at a 50 us checkpoint interval — short
    enough that the bench run commits several checkpoints, so every
    commit rolls a digest window — with the digest recorder installed
    (the exact wiring of ``run_app(digest=True)``) and every
    ``record_digest`` call timed.  The gated ``overhead_fraction`` is
    the attributed fraction: seconds spent digesting over the total
    wall clock of the *same* runs.  Numerator and denominator come
    from one run, so the fraction is robust to the host's run-to-run
    wall-clock drift — an A/B comparison would need the true ~4%
    signal to beat >10% scheduler noise.  Plain runs are still
    measured (alternating, best-of-rounds) so the report carries the
    refs/sec context, and the gate in :func:`hard_failures` enforces
    ``overhead_fraction <= DIGEST_OVERHEAD_MAX``.
    """
    from repro.obs.digest import DigestRecorder

    if rounds < 1:
        raise ValueError("rounds must be >= 1")

    def run_plain() -> Dict[str, float]:
        machine = build_machine("cp_parity",
                                machine_config=MachineConfig.bench(),
                                interval_ns=50_000)
        machine.attach_workload(get_workload("lu", scale=scale))
        start = time.perf_counter()
        machine.run()
        return {"refs": machine.total_mem_refs(),
                "wall_seconds": time.perf_counter() - start}

    def run_digested() -> Dict[str, float]:
        machine = build_machine("cp_parity",
                                machine_config=MachineConfig.bench(),
                                interval_ns=50_000)
        machine.attach_workload(get_workload("lu", scale=scale))
        machine.install_digests(DigestRecorder(None))
        cost = [0.0]
        inner = machine.record_digest

        def timed_record(ts=None):
            begin = time.perf_counter()
            try:
                return inner(ts)
            finally:
                cost[0] += time.perf_counter() - begin

        machine.record_digest = timed_record
        start = time.perf_counter()
        machine.record_digest(0)  # window 0, inside the timed region
        machine.run()
        return {"refs": machine.total_mem_refs(),
                "wall_seconds": time.perf_counter() - start,
                "digest_seconds": cost[0],
                "windows": len(machine.digests.chain)}

    plain, digested = [], []
    for _ in range(rounds):
        plain.append(run_plain())
        digested.append(run_digested())
    refs = plain[0]["refs"]
    base = min(run["wall_seconds"] for run in plain)
    on = min(run["wall_seconds"] for run in digested)
    total_wall = sum(run["wall_seconds"] for run in digested)
    total_cost = sum(run["digest_seconds"] for run in digested)
    return {
        "rounds": rounds,
        "scale": scale,
        "refs": refs,
        "windows": digested[0]["windows"],
        "plain_wall_seconds_best": base,
        "digest_wall_seconds_best": on,
        "plain_refs_per_sec": refs / base if base else 0.0,
        "digest_refs_per_sec": refs / on if on else 0.0,
        "digest_seconds_per_window": (
            total_cost / sum(run["windows"] for run in digested)),
        "overhead_fraction": total_cost / total_wall if total_wall
        else 0.0,
        "max_overhead": DIGEST_OVERHEAD_MAX,
    }


def throughput_report(rounds: int = 3, scale: float = 0.25,
                      sweep_workers: int = 4,
                      include_sweep: bool = True,
                      sweep_scale: float = 0.1,
                      include_cache: bool = True,
                      include_campaign: bool = True,
                      include_columnar: bool = True,
                      include_obs: bool = True,
                      include_digest: bool = True) -> Dict:
    """The full ``BENCH_throughput.json`` payload."""
    exhibits = {variant: measure_exhibit(variant, scale=scale,
                                         rounds=rounds)
                for variant in EXHIBIT_VARIANTS}
    for exhibit in exhibits.values():
        exhibit["speedup_vs_recorded"] = (
            exhibit["refs_per_sec"] / RECORDED_BASELINE_REFS_PER_SEC)
    report = {
        "schema": REPORT_SCHEMA,
        "exhibit": f"lu @ scale {scale}, bench machine",
        "recorded_baseline_refs_per_sec": RECORDED_BASELINE_REFS_PER_SEC,
        "soft_threshold": SOFT_THRESHOLD,
        "exhibits": exhibits,
        "sweep": (measure_sweep_parallelism(workers=sweep_workers,
                                            scale=sweep_scale)
                  if include_sweep else None),
        "cache": (measure_cache_hit_path(rounds=rounds)
                  if include_cache else None),
        "campaign": (measure_campaign_fork_speedup()
                     if include_campaign else None),
        "columnar": (measure_columnar_speedup(rounds=rounds, scale=scale)
                     if include_columnar else None),
        "obs": (measure_obs_overhead(rounds=rounds, scale=scale)
                if include_obs else None),
        # The digest gate always measures its representative exhibit:
        # per-window cost hashes machine-sized state and barely moves
        # with scale, while the wall clock shrinks with it, so a
        # quick-mode scale would inflate the fraction being gated.
        "digest": (measure_digest_overhead(rounds=rounds,
                                           scale=max(scale, 0.25))
                   if include_digest else None),
    }
    report["regressions"] = soft_regressions(report)
    return report


def soft_regressions(report: Dict) -> List[str]:
    """Warnings for exhibits slower than the recorded baseline.

    Only the *baseline* exhibit is compared against the recorded
    number (the recorded number was a baseline-variant measurement);
    other exhibits are listed when they fall below the hard floor.
    """
    warnings = []
    recorded = report["recorded_baseline_refs_per_sec"]
    for variant, exhibit in report["exhibits"].items():
        rate = exhibit["refs_per_sec"]
        if variant == "baseline" and rate < recorded:
            warnings.append(
                f"{variant}: {rate:,.0f} refs/s is below the recorded "
                f"baseline {recorded:,} (host noise or regression)")
        if rate < SOFT_THRESHOLD * recorded:
            warnings.append(
                f"{variant}: {rate:,.0f} refs/s is below "
                f"{SOFT_THRESHOLD:.0%} of the recorded baseline — "
                f"treat as a real regression")
    return warnings


def hard_failures(report: Dict) -> List[str]:
    """The subset of regressions that should fail a perf gate."""
    floor = SOFT_THRESHOLD * report["recorded_baseline_refs_per_sec"]
    failures = [
        f"{variant}: {exhibit['refs_per_sec']:,.0f} refs/s < "
        f"{floor:,.0f} floor"
        for variant, exhibit in report["exhibits"].items()
        if exhibit["refs_per_sec"] < floor
    ]
    cache = report.get("cache")
    if cache:
        if cache["hit_wall_seconds_best"] > CACHE_HIT_MAX_SECONDS:
            failures.append(
                f"cache: warm hit path took "
                f"{cache['hit_wall_seconds_best']:.3f}s > "
                f"{CACHE_HIT_MAX_SECONDS}s ceiling")
        if cache["speedup_vs_miss"] < CACHE_HIT_MIN_SPEEDUP:
            failures.append(
                f"cache: hit path only {cache['speedup_vs_miss']:.1f}x "
                f"faster than simulating (< {CACHE_HIT_MIN_SPEEDUP:.0f}x "
                f"floor)")
    campaign = report.get("campaign")
    if campaign and campaign["speedup_vs_cold"] < CAMPAIGN_MIN_SPEEDUP:
        failures.append(
            f"campaign: forked grid only "
            f"{campaign['speedup_vs_cold']:.1f}x faster than cold "
            f"replays (< {CAMPAIGN_MIN_SPEEDUP:.0f}x floor)")
    columnar = report.get("columnar")
    if columnar and columnar["speedup"] < COLUMNAR_MIN_SPEEDUP:
        failures.append(
            f"columnar: batch engine only {columnar['speedup']:.2f}x "
            f"the reference loop "
            f"({columnar['columnar_refs_per_sec']:,.0f} vs "
            f"{columnar['reference_refs_per_sec']:,.0f} refs/s, "
            f"< {COLUMNAR_MIN_SPEEDUP:.2f}x floor)")
    obs = report.get("obs")
    if obs and obs["overhead_fraction"] > OBS_OVERHEAD_MAX:
        failures.append(
            f"obs: disabled observability hooks cost "
            f"{obs['overhead_fraction']:.1%} of the no-hooks wall clock "
            f"(> {OBS_OVERHEAD_MAX:.0%} ceiling) — the off path is no "
            f"longer free")
    digest = report.get("digest")
    if digest and digest["overhead_fraction"] > DIGEST_OVERHEAD_MAX:
        failures.append(
            f"digest: checkpoint-boundary digesting cost "
            f"{digest['overhead_fraction']:.1%} of the undigested wall "
            f"clock (> {DIGEST_OVERHEAD_MAX:.0%} ceiling) over "
            f"{digest['windows']} windows")
    return failures


def write_report(report: Dict, path: str) -> None:
    """Write the JSON report (stable key order for diffing)."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_report(report: Dict) -> str:
    """Human-readable rendering of the report."""
    lines = [f"throughput: {report['exhibit']}"]
    for variant, ex in report["exhibits"].items():
        lines.append(
            f"  {variant:<12} {ex['refs_per_sec']:>10,.0f} refs/s "
            f"({ex['speedup_vs_recorded']:.2f}x recorded baseline, "
            f"best of {ex['rounds']} x {ex['wall_seconds_best']:.2f}s)")
    sweep = report.get("sweep")
    if sweep:
        lines.append(
            f"  sweep        {sweep['jobs']} jobs: "
            f"{sweep['serial_wall_seconds']:.2f}s serial vs "
            f"{sweep['parallel_wall_seconds']:.2f}s with "
            f"{sweep['workers_used']} workers "
            f"({sweep['speedup']:.2f}x, host has {sweep['cpu_count']} "
            f"CPU(s))")
    cache = report.get("cache")
    if cache:
        lines.append(
            f"  cache hit    {cache['jobs']} jobs replayed in "
            f"{cache['hit_wall_seconds_best']:.3f}s "
            f"({cache['speedup_vs_miss']:.0f}x faster than simulating, "
            f"best of {cache['rounds']})")
    campaign = report.get("campaign")
    if campaign:
        lines.append(
            f"  campaign     {campaign['scenarios']} scenarios forked "
            f"in {campaign['forked_wall_seconds_best']:.2f}s vs "
            f"{campaign['cold_wall_seconds']:.2f}s cold "
            f"({campaign['speedup_vs_cold']:.1f}x, warm image "
            f"{campaign['image_bytes']:,} bytes)")
    columnar = report.get("columnar")
    if columnar:
        lines.append(
            f"  columnar     {columnar['columnar_refs_per_sec']:>10,.0f} "
            f"refs/s vs {columnar['reference_refs_per_sec']:,.0f} "
            f"reference loop "
            f"({columnar['speedup']:.2f}x, floor "
            f"{columnar['min_speedup']:.2f}x)")
    obs = report.get("obs")
    if obs:
        lines.append(
            f"  obs off      {obs['overhead_fraction']:+.1%} vs no hooks "
            f"({obs['obs_off_refs_per_sec']:,.0f} vs "
            f"{obs['no_hooks_refs_per_sec']:,.0f} refs/s, ceiling "
            f"{obs['max_overhead']:.0%})")
    digest = report.get("digest")
    if digest:
        lines.append(
            f"  digest on    {digest['overhead_fraction']:+.1%} vs "
            f"undigested ({digest['digest_refs_per_sec']:,.0f} vs "
            f"{digest['plain_refs_per_sec']:,.0f} refs/s, "
            f"{digest['windows']} windows, ceiling "
            f"{digest['max_overhead']:.0%})")
    for warning in report.get("regressions", []):
        lines.append(f"  WARNING: {warning}")
    return "\n".join(lines)
