"""The job executor: every process pool of the program, in one place.

The paper's evaluation is a set of independent, deterministic runs —
the Figure 8–11 sweep cells and the Figure 12 fault grid.  Three
front-ends run them: :func:`~repro.harness.parallel.run_sweep`,
:func:`~repro.harness.campaign.run_campaign`, and
:class:`~repro.serve.SimulationService`.  They share what is here:

* **One pool type.**  :func:`open_pool` builds every pool on
  :class:`concurrent.futures.ProcessPoolExecutor`.  Batch front-ends
  use the default start method; serve asks for ``spawn`` (see
  :func:`open_pool`).
* **One ordered merge.**  :func:`run_jobs` returns results in input
  order (``Executor.map``), so a parallel run is bit-identical to a
  serial one however the workers are scheduled.
* **One fallback set.**  :data:`POOL_FAILURES` is what degrades a pool
  to in-process execution: a pool that cannot start (no ``fork``, no
  semaphores) and a worker killed mid-job (OOM, SIGKILL), which
  ``ProcessPoolExecutor`` reports as ``BrokenProcessPool`` at once.
  Batch mode warns and recomputes the unfinished jobs in-process, so a
  killed worker ends in the correct answer rather than a hang.
* **One run-cell body.**  :func:`run_job` simulates one (app, variant)
  cell, observed as its :class:`Observe` value says.

Shared job context (a campaign's warm images) travels through the
pool's ``initializer``; the serial path passes it straight to the job
function and keeps it in no module global, so it dies with the run.
"""

from __future__ import annotations

import functools
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.runner import BENCH_LOG_BYTES, RunResult, run_app

#: Failures that degrade a pool to in-process execution: a pool that
#: cannot start, and one whose worker died mid-job.
POOL_FAILURES = (OSError, ImportError, PermissionError, BrokenProcessPool)


@dataclass(frozen=True)
class Observe:
    """How a job is observed — never part of what it computes.

    Kept beside the job's kwargs rather than inside them, so the cache
    keys and config digests computed from those kwargs cannot see it.
    ``trace_dir`` turns on the monitor-suite trace and ledger
    (``<app>__<variant>.jsonl`` / ``.ledger.json``), filtered to
    ``trace_categories``; ``profile`` attaches a host-time profiler;
    ``digest`` records the determinism chain.
    """

    trace_dir: Optional[str] = None
    trace_categories: Optional[Tuple[str, ...]] = None
    profile: bool = False
    digest: bool = False

    @property
    def key_categories(self) -> Optional[List[str]]:
        """The category filter folded into store keys: a filtered trace
        is a different artifact than an unfiltered one."""
        if self.trace_dir is None or self.trace_categories is None:
            return None
        return sorted(self.trace_categories)

    def trace_base(self, app: str, variant: str) -> str:
        """Path stem of one cell's trace and ledger files."""
        return os.path.join(self.trace_dir, f"{app}__{variant}")


def run_job(app: str, variant: str, kwargs: Dict, observe: Observe
            ) -> Tuple[RunResult, Optional[Dict]]:
    """Simulate one (app, variant) cell; module-level so it pickles.

    Returns ``(result, manifest)``.  With ``observe.trace_dir`` set the
    run is observed by the standard monitor suite, its trace and ledger
    land in that directory, and the ledger manifest (wall-clock-free)
    comes back for the deterministic merge; otherwise the manifest is
    None.
    """
    profiler = None
    if observe.profile:
        from repro.obs.profiling import Profiler

        profiler = Profiler()
    if observe.trace_dir is None:
        return run_app(app, variant, profiler=profiler,
                       digest=observe.digest, **kwargs), None

    from repro.obs.monitor import MonitorSuite
    from repro.obs.tracer import JsonlFileSink, Tracer

    base = observe.trace_base(app, variant)
    suite = MonitorSuite(run_monitors(variant, kwargs),
                         sink=JsonlFileSink(base + ".jsonl"))
    categories = (list(observe.trace_categories)
                  if observe.trace_categories is not None else None)
    tracer = Tracer(suite, categories=categories)
    result = run_app(app, variant, tracer=tracer, profiler=profiler,
                     digest=observe.digest, **kwargs)
    tracer.close()
    manifest = write_ledger(base + ".ledger.json", app, variant, kwargs,
                            suite, tracer, result=result)
    return result, manifest


def run_monitors(variant: str, kwargs: Dict) -> List:
    """The standard monitor set for one run of ``variant`` with
    :func:`run_app` kwargs ``kwargs``.

    The log monitor's capacity is ``log_bytes_per_node`` (default
    :data:`BENCH_LOG_BYTES`); the baseline keeps no log, so none.
    """
    from repro.obs.monitor import default_monitors

    capacity = None
    if variant != "baseline":
        capacity = kwargs.get("log_bytes_per_node", BENCH_LOG_BYTES)
    return default_monitors(interval_ns=kwargs.get("interval_ns"),
                            log_capacity_bytes=capacity)


def write_ledger(path: str, app: str, variant: str, kwargs: Dict,
                 suite, tracer, result: Optional[RunResult] = None
                 ) -> Dict:
    """Finalize one run's ledger (seeded with the workload's registered
    seed), write it to ``path`` and return its manifest."""
    from repro.obs.monitor import RunLedger
    from repro.workloads.splash2 import SPLASH2_SPECS

    spec = SPLASH2_SPECS.get(app)
    ledger = RunLedger(app, variant, run_args=kwargs,
                       seed=spec.seed if spec is not None else None)
    manifest = ledger.finalize(result=result, monitors=suite,
                               tracer=tracer)
    ledger.write(path)
    return manifest


def run_cell(job: Tuple[str, str, Dict], observe: Observe):
    """:func:`run_job` over one ``(app, variant, kwargs)`` sweep job."""
    app, variant, kwargs = job
    return run_job(app, variant, kwargs, observe)


def default_workers(n_jobs: int) -> int:
    """Auto worker count: one per job, capped at the CPU count."""
    return max(1, min(n_jobs, os.cpu_count() or 1))


def check_pool_args(workers: Optional[int], chunksize: int = 1) -> None:
    """Reject a bad worker count or chunk size before any work starts."""
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if chunksize < 1:
        raise ValueError("chunksize must be >= 1")


#: The job context of this process when it is a pool worker (set by
#: the pool initializer, in the worker only).
_worker_context: Any = None


def _init_worker(context: Any) -> None:
    global _worker_context
    _worker_context = context


def _in_worker(fn: Callable, payload):
    return fn(payload, _worker_context)


def open_pool(workers: int, context: Any = None,
              spawn: bool = False) -> ProcessPoolExecutor:
    """A process pool of ``workers`` workers, each handed ``context``.

    ``spawn=True`` is for pools started while sockets are open (the
    simulation service starts workers lazily, mid-connection): a forked
    worker would inherit the accepted socket and keep the client's
    stream open after the server closes it, while spawn (fork+exec)
    drops every non-inheritable fd.
    """
    import multiprocessing as mp

    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=mp.get_context("spawn") if spawn else None,
        initializer=_init_worker, initargs=(context,))


def run_jobs(fn: Callable, payloads: Sequence, *,
             workers: Optional[int] = None, serial: bool = False,
             chunksize: int = 1, context: Any = None
             ) -> Tuple[List, int, bool]:
    """Run ``fn(payload, context)`` for every payload, in input order.

    Returns ``(results, workers_used, parallel)``.  ``workers=None``
    picks :func:`default_workers`; ``serial=True``, one worker, or
    fewer than two payloads run in-process without starting a pool.
    On a :data:`POOL_FAILURES` failure the run warns and computes the
    payloads the pool did not deliver in-process; it then reports
    ``parallel=False`` and one worker, like a serial run.
    """
    check_pool_args(workers, chunksize)
    payloads = list(payloads)
    n_workers = (workers if workers is not None
                 else default_workers(len(payloads)))
    results: List = []
    if not serial and n_workers > 1 and len(payloads) > 1:
        try:
            with open_pool(n_workers, context) as pool:
                for result in pool.map(functools.partial(_in_worker, fn),
                                       payloads, chunksize=chunksize):
                    results.append(result)
            return results, n_workers, True
        except POOL_FAILURES as exc:
            warnings.warn(
                f"parallel run unavailable ({exc!r}); computing the "
                f"{len(payloads) - len(results)} unfinished jobs "
                f"in-process", RuntimeWarning, stacklevel=3)
    results.extend(fn(payload, context)
                   for payload in payloads[len(results):])
    return results, 1, False
