"""Parallel sweep executor: app × variant fan-out over worker processes.

The evaluation sweeps (Figure 8 overhead, traffic, log-size exhibits)
are embarrassingly parallel — every (app, variant) cell is one
independent simulation.  :func:`run_sweep` fans the cells out through
the job executor (:mod:`repro.harness.executor`) and gets the
:class:`RunResult`s back in job order, so the output is
**bit-identical to a serial sweep no matter the worker count or
completion order**: each simulation is deterministic given its
arguments, and the merge ignores arrival order.
``tests/test_parallel_sweep.py`` pins serial == 1 == 2 == 4 workers.

Serial fallback: ``workers=1`` (or ``serial=True``) runs in-process
with zero multiprocessing machinery.  A pool that cannot start
(restricted environments without ``fork``/semaphores) or whose worker
is killed mid-job degrades to the same in-process path with a warning
rather than an error or a hang.

Observation arrives as one :class:`~repro.harness.observe.Observe`
value, ``observe=``, whose ``trace`` path a sweep reads as a directory.

Traced sweeps (``observe.trace``): every worker runs its job under a
tracer wrapped in the standard monitor suite, writes
``<app>__<variant>.jsonl`` + ``<app>__<variant>.ledger.json`` into
that directory, and ships the ledger manifest back; the parent merges
the manifests **in canonical job order** into ``sweep.ledger.json``.
Ledgers carry no wall-clock values, so a traced parallel sweep's
files are byte-identical to a serial one's — pinned by
``tests/test_parallel_sweep.py``.  ``repro report trace_dir/`` renders
the dashboard from them.

Cached sweeps (``cache_dir=``): every job is first looked up in a
:class:`~repro.harness.store.ResultStore` keyed by its ledger config
digest (folded with the trace-category filter and schema versions, see
``docs/SERVING.md``).  Hits skip the simulation entirely and — for
traced sweeps — replay the stored trace and manifest bytes into
the trace directory, byte-identical to a fresh run; misses run normally and
are stored for next time.  ``tests/test_cached_sweep.py`` pins the
byte-identity.

Profiled sweeps (``observe.profile``): every worker runs its job with a
:class:`~repro.obs.profiling.Profiler` attached, ships the per-job
profile snapshot back in ``RunResult.profile``, and the parent merges
them with :func:`~repro.obs.telemetry.merge_profiles` into
``SweepResult.profile`` — one coherent host-time attribution for the
whole multi-process sweep.  Profiles carry wall-clock values, so they
ride *outside* the deterministic artifacts: traced profiled sweeps
write ``sweep.profile.json`` next to (never inside) the byte-identical
``sweep.ledger.json``.

Used by ``repro sweep`` (CLI), the simulation service
(``repro.serve``), and the throughput harness
(``benchmarks/test_simulator_throughput.py``); see docs/PERFORMANCE.md.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.executor import (
    check_pool_args,
    default_workers,
    run_job,
    run_jobs,
)
from repro.harness.observe import Observe
from repro.harness.runner import DEFAULT_INTERVAL_NS, VARIANTS, RunResult
from repro.obs.report import overhead_rows
from repro.workloads.registry import APP_NAMES

__all__ = ["SweepResult", "default_workers", "run_sweep", "sweep_jobs"]


def sweep_jobs(apps: Optional[Sequence[str]] = None,
               variants: Optional[Sequence[str]] = None,
               *, scale: float = 1.0, n_procs: int = 16,
               interval_ns: int = DEFAULT_INTERVAL_NS,
               machine_config=None,
               **revive_overrides) -> List[Tuple[str, str, Dict]]:
    """The deterministic job list of a sweep: app-major, variant order.

    Each job is ``(app, variant, run_app_kwargs)``.  The list order is
    the canonical result order — parallel execution may *complete* jobs
    in any order, but results are always reported in this one.
    """
    apps = list(apps) if apps else list(APP_NAMES)
    variants = list(variants) if variants else list(VARIANTS)
    unknown = sorted(set(variants) - set(VARIANTS))
    if unknown:
        raise ValueError(f"unknown variants: {', '.join(unknown)}; "
                         f"choose from {VARIANTS}")
    jobs = []
    for app in apps:
        for variant in variants:
            kwargs = dict(scale=scale, n_procs=n_procs,
                          interval_ns=interval_ns,
                          machine_config=machine_config)
            if variant != "baseline":
                kwargs.update(revive_overrides)
            jobs.append((app, variant, kwargs))
    return jobs


@dataclass
class SweepResult:
    """A sweep's merged results plus how they were obtained."""

    #: ``(app, variant) -> RunResult`` in canonical job order.
    results: Dict[Tuple[str, str], RunResult]
    #: Worker processes used (1 for a serial run).
    workers: int
    #: Wall-clock seconds for the whole sweep.
    wall_seconds: float
    #: False when the serial path ran (requested or fallback).
    parallel: bool
    #: Canonical (app, variant) order, for renderers.
    job_order: List[Tuple[str, str]] = field(default_factory=list)
    #: Per-job ledger manifests in job order (traced sweeps only).
    ledgers: Optional[List[Dict]] = None
    #: Where traces/ledgers were written (traced sweeps only).
    trace_dir: Optional[str] = None
    #: Jobs served from the result store (cached sweeps only).
    cache_hits: int = 0
    #: Jobs actually simulated when a result store was in use.
    cache_misses: int = 0
    #: The result store root (cached sweeps only).
    cache_dir: Optional[str] = None
    #: Merged host-time attribution across all simulated jobs
    #: (profiled sweeps only; see repro.obs.telemetry.merge_profiles).
    profile: Optional[Dict] = None
    #: Per-job determinism digest chains in job order (digested sweeps
    #: only; the repro.obs.digest.merge_sweep_digests shape, identical
    #: for serial and parallel executions of the same sweep).
    digest: Optional[Dict] = None

    def get(self, app: str, variant: str) -> RunResult:
        """The result of one sweep cell."""
        return self.results[(app, variant)]

    def apps(self) -> List[str]:
        """Applications present, in job order."""
        seen: List[str] = []
        for app, _variant in self.job_order:
            if app not in seen:
                seen.append(app)
        return seen

    def overhead_rows(self) -> List[Dict]:
        """Figure-8-shaped rows: per-app overhead of each variant.

        Requires the sweep to include ``baseline``; other variants are
        reported as fractional slowdown against it
        (:func:`repro.obs.report.overhead_rows`).
        """
        return overhead_rows({job: result.execution_time_ns
                              for job, result in self.results.items()})

    def to_jsonable(self) -> Dict:
        """A JSON-ready dict of the whole sweep (stable ordering)."""
        return {
            "workers": self.workers,
            "parallel": self.parallel,
            "wall_seconds": self.wall_seconds,
            "results": [asdict(self.results[key]) for key in self.job_order],
        }


def run_sweep(apps: Optional[Sequence[str]] = None,
              variants: Optional[Sequence[str]] = None,
              *, workers: Optional[int] = None, chunksize: int = 1,
              serial: bool = False, scale: float = 1.0, n_procs: int = 16,
              interval_ns: int = DEFAULT_INTERVAL_NS, machine_config=None,
              cache_dir: Optional[str] = None,
              cache_max_bytes: Optional[int] = None,
              observe: Observe = Observe(),
              **revive_overrides) -> SweepResult:
    """Run an app × variant sweep, fanning out over worker processes.

    ``workers=None`` picks :func:`default_workers`; ``workers=1`` or
    ``serial=True`` forces the in-process path.  ``chunksize`` batches
    jobs per worker dispatch (raise it when jobs are many and short).
    Results are merged in :func:`sweep_jobs` order, making the output
    independent of scheduling — see the module docstring.

    ``observe.trace`` names a trace directory and turns on per-job
    tracing: each worker writes its job's JSONL trace and ledger
    manifest there (created if needed), filtered to
    ``observe.trace_categories``, and the merged ``sweep.ledger.json``
    is written after the deterministic merge.

    ``cache_dir`` memoizes jobs through a
    :class:`~repro.harness.store.ResultStore` rooted there: cells whose
    config digest (and trace-category filter) match a stored entry are
    served from the store — traced hits replay the stored trace and
    ledger bytes into the trace directory — and only the misses are
    dispatched to workers.  A traced sweep hitting an entry stored
    without a trace re-runs that cell and upgrades the entry.
    ``cache_max_bytes`` bounds the store (LRU eviction on write).

    ``observe.profile`` attaches a host-time profiler to every simulated
    job; per-job snapshots ride back in ``RunResult.profile`` and the
    deterministic merge of them lands in ``SweepResult.profile`` (and
    ``sweep.profile.json`` for traced sweeps).  Cache hits skipped the
    simulation, so they contribute no host time.

    ``observe.digest`` records every job's determinism digest chain
    (docs/OBSERVABILITY.md, "Determinism observatory"): per-job chains
    ride back in ``RunResult.digest`` and the job-ordered merge lands
    in ``SweepResult.digest`` (and ``sweep.digest.json`` for traced
    sweeps).  Chains are pure functions of deterministic simulation
    state, so the merged document is identical for serial and parallel
    executions — the property the CI determinism gate compares.  Like
    ``profile``, the flag travels in the jobs' ``Observe`` value, never
    in their kwargs: digesting is an observation, not configuration.
    A digested sweep served from entries stored by an undigested sweep
    reports ``None`` chains for those cells (use a fresh
    ``cache_dir`` — or none — when comparing chains).
    """
    check_pool_args(workers, chunksize)
    jobs = sweep_jobs(apps, variants, scale=scale, n_procs=n_procs,
                      interval_ns=interval_ns, machine_config=machine_config,
                      **revive_overrides)
    trace_dir = observe.trace
    cache = None
    if cache_dir is not None:
        from repro.harness import store as result_store

        cache = result_store.ResultStore(cache_dir,
                                         max_bytes=cache_max_bytes)
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)

    start = time.perf_counter()
    cells: List[Tuple[RunResult, Optional[Dict]]] = [None] * len(jobs)
    keys: List[Optional[str]] = [None] * len(jobs)
    todo: List[int] = []
    for index, (app, variant, kwargs) in enumerate(jobs):
        entry = None
        if cache is not None:
            # Keys come from the kwargs alone, exactly as the worker's
            # RunLedger will canonicalise them; observation lives in
            # ``observe`` and cannot reach them.
            keys[index] = result_store.store_key(
                result_store.job_digest(app, variant, kwargs),
                trace_categories=(observe.trace_categories
                                  if trace_dir is not None else None))
            entry = result_store.run_entry(cache, keys[index],
                                           traced=trace_dir is not None)
        if entry is None:
            todo.append(index)
            continue
        manifest = entry.payload.get("manifest")
        if trace_dir is not None:
            cell = observe.cell(app, variant)
            with open(cell.trace, "wb") as handle:
                handle.write(
                    entry.read_artifact(result_store.TRACE_ARTIFACT))
            with open(cell.ledger, "wb") as handle:
                handle.write(result_store.manifest_bytes(manifest))
        cells[index] = (result_store.result_from_payload(entry.payload),
                        manifest)

    computed, n_workers, ran_parallel = run_jobs(
        run_job, [jobs[index] for index in todo], workers=workers,
        serial=serial, chunksize=chunksize, context=observe)
    for index, cell in zip(todo, computed):
        cells[index] = cell
        if cache is not None:
            app, variant, _kwargs = jobs[index]
            artifacts = None
            if trace_dir is not None:
                with open(observe.cell(app, variant).trace,
                          "rb") as handle:
                    artifacts = {result_store.TRACE_ARTIFACT: handle.read()}
            cache.put(keys[index], result_store.KIND_RUN,
                      result_store.run_payload(*cell), artifacts=artifacts)

    job_order = [(app, variant) for app, variant, _kwargs in jobs]
    results = {job: result for job, (result, _manifest)
               in zip(job_order, cells)}
    ledgers: Optional[List[Dict]] = None
    if trace_dir is not None:
        # Manifests in canonical job order, and they carry no
        # wall-clock values: this file is byte-identical however the
        # sweep was scheduled.
        ledgers = [manifest for _result, manifest in cells]
        _write_json(os.path.join(trace_dir, "sweep.ledger.json"), {
            "ledger_version": ledgers[0]["ledger_version"] if ledgers
            else None,
            "schema_version": ledgers[0]["schema_version"] if ledgers
            else None,
            "jobs": ledgers,
        })
    merged_profile = None
    if observe.profile:
        from repro.obs.telemetry import merge_profiles

        merged_profile = merge_profiles(
            result.profile for result in results.values())
        if trace_dir is not None and merged_profile is not None:
            # A side-channel next to sweep.ledger.json, never inside
            # it: profiles carry wall-clock values and would break the
            # ledger's byte-identity guarantee.
            _write_json(os.path.join(trace_dir, "sweep.profile.json"),
                        merged_profile)
    merged_digest = None
    if observe.digest:
        from repro.obs.digest import merge_sweep_digests, write_digest_file

        merged_digest = merge_sweep_digests(
            [f"{app}__{variant}" for app, variant in job_order],
            [result.digest for result in results.values()])
        if trace_dir is not None:
            # A side channel beside sweep.ledger.json, like
            # sweep.profile.json — but deterministic: serial and
            # parallel sweeps of the same jobs write identical bytes.
            write_digest_file(os.path.join(trace_dir, "sweep.digest.json"),
                              merged_digest)
    return SweepResult(results=results, workers=n_workers,
                       wall_seconds=time.perf_counter() - start,
                       parallel=ran_parallel, job_order=job_order,
                       ledgers=ledgers, trace_dir=trace_dir,
                       cache_hits=len(jobs) - len(todo),
                       cache_misses=len(todo) if cache is not None else 0,
                       cache_dir=cache_dir, profile=merged_profile,
                       digest=merged_digest)


def _write_json(path: str, doc: Dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")
