"""The job executor (repro.harness.executor): one pool, one fallback.

Toy module-level jobs, no simulation.  A pool that cannot start and a
worker killed mid-job both end in the serial answer, in input order;
the job context reaches pool workers and is not kept after a serial
run; and the batch front-ends reject a bad worker count before doing
any work.
"""

import gc
import os
import signal
import weakref

import pytest

from repro.harness import campaign, executor, parallel

PARENT = os.getpid()


def square(n, _context):
    return n * n


def square_unless_child(n, _context):
    if os.getpid() != PARENT:
        os._exit(1)
    return n * n


def scaled(n, context):
    return n * context.factor, os.getpid() != PARENT


class Context:
    factor = 3


@pytest.fixture
def deadline():
    """Fail a pool test that hangs rather than wait on it forever."""
    def expire(_signum, _frame):
        raise TimeoutError("the pool never delivered its results")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_pool_start_failure_falls_back_in_input_order(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise OSError("no semaphores here")

    monkeypatch.setattr(executor, "open_pool", refuse)
    with pytest.warns(RuntimeWarning, match="unavailable"):
        results, workers, ran_parallel = executor.run_jobs(
            square, range(6), workers=2)
    assert results == executor.run_jobs(square, range(6), serial=True)[0]
    assert results == [n * n for n in range(6)]
    assert (workers, ran_parallel) == (1, False)


def test_killed_worker_is_recomputed_in_process(deadline):
    with pytest.warns(RuntimeWarning, match="BrokenProcessPool"):
        results, workers, ran_parallel = executor.run_jobs(
            square_unless_child, range(4), workers=2)
    assert results == [n * n for n in range(4)]
    assert (workers, ran_parallel) == (1, False)


def test_context_reaches_pool_workers(deadline):
    results, workers, ran_parallel = executor.run_jobs(
        scaled, range(4), workers=2, context=Context())
    assert (workers, ran_parallel) == (2, True)
    assert results == [(3 * n, True) for n in range(4)]


def test_serial_run_keeps_no_context():
    context = Context()
    alive = weakref.ref(context)
    results, workers, ran_parallel = executor.run_jobs(
        scaled, range(3), serial=True, context=context)
    assert results == [(0, False), (3, False), (6, False)]
    assert (workers, ran_parallel) == (1, False)
    del context
    gc.collect()
    assert alive() is None


def test_front_ends_reject_bad_workers_before_any_work(monkeypatch):
    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before validation")

    monkeypatch.setattr(campaign, "warm_machine", no_work)
    monkeypatch.setattr(parallel, "sweep_jobs", no_work)
    with pytest.raises(ValueError, match="workers"):
        campaign.run_campaign("fft", "cp_parity", workers=0)
    with pytest.raises(ValueError, match="workers"):
        parallel.run_sweep(["lu"], workers=0, cache_dir="unused")
    with pytest.raises(ValueError, match="chunksize"):
        parallel.run_sweep(["lu"], chunksize=0)
