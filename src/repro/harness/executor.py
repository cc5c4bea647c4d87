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
  cell through :func:`~repro.harness.runner.run_app`, observed as its
  :class:`~repro.harness.observe.Observe` value says.

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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.observe import Observe
from repro.harness.runner import RunResult, run_app

#: Failures that degrade a pool to in-process execution: a pool that
#: cannot start, and one whose worker died mid-job.
POOL_FAILURES = (OSError, ImportError, PermissionError, BrokenProcessPool)


def run_job(job: Tuple[str, str, Dict], observe: Observe
            ) -> Tuple[RunResult, Optional[Dict]]:
    """Simulate one ``(app, variant, kwargs)`` cell; module-level so it
    pickles.

    Returns ``(result, manifest)``.  With ``observe.trace`` naming a
    directory, the cell's trace and ledger land there
    (:meth:`Observe.cell`) and the ledger manifest (wall-clock-free)
    comes back for the deterministic merge; otherwise the manifest is
    None.
    """
    app, variant, kwargs = job
    cell = observe.cell(app, variant)
    result = run_app(app, variant, observe=cell, **kwargs)
    if cell.ledger is None:
        return result, None
    from repro.obs.monitor import read_ledger

    return result, read_ledger(cell.ledger)


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
