"""Cached sweeps: ``run_sweep(cache_dir=...)`` correctness.

A deterministic simulator makes memoization *correct*, not merely
fast — these tests pin that a warm-cache sweep returns results equal
to a cold one, that a traced warm sweep replays byte-identical trace
and ledger files into the trace directory (the acceptance oracle of
docs/SERVING.md), that result-only entries are upgraded rather than
served to traced sweeps, and that a corrupted entry silently falls
back to recompute.
"""

import filecmp
import os
from dataclasses import asdict

import pytest

from repro.harness.observe import Observe
from repro.harness.parallel import run_sweep
from repro.harness.store import ResultStore, job_digest, store_key
from repro.machine.config import MachineConfig

APPS = ["lu"]
VARIANTS = ["baseline", "cp_parity"]
KW = dict(scale=0.05, n_procs=4, machine_config=MachineConfig.tiny(4),
          parity_group_size=3, log_bytes_per_node=64 * 1024)


def _sweep(cache_dir, **overrides):
    kwargs = dict(KW, serial=True, cache_dir=str(cache_dir))
    kwargs.update(overrides)
    return run_sweep(APPS, VARIANTS, **kwargs)


def _comparable(sweep):
    """Everything that must not depend on where the results came from."""
    return {key: asdict(result) for key, result in sweep.results.items()}


def _trace_files(trace_dir):
    return sorted(os.listdir(trace_dir))


class TestUntracedCaching:
    def test_warm_sweep_is_all_hits_and_equal(self, tmp_path):
        cache = tmp_path / "cache"
        cold = _sweep(cache)
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        assert cold.cache_dir == str(cache)
        warm = _sweep(cache)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        assert _comparable(warm) == _comparable(cold)
        assert warm.job_order == cold.job_order
        assert warm.overhead_rows() == cold.overhead_rows()

    def test_uncached_sweep_reports_no_cache(self, tmp_path):
        sweep = run_sweep(APPS, VARIANTS, serial=True, **KW)
        assert (sweep.cache_hits, sweep.cache_misses) == (0, 0)
        assert sweep.cache_dir is None

    def test_cached_results_survive_a_parallel_warm_sweep(self, tmp_path):
        cache = tmp_path / "cache"
        cold = _sweep(cache)
        warm = _sweep(cache, serial=False, workers=2)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        assert _comparable(warm) == _comparable(cold)

    def test_keys_on_disk_match_the_job_digests(self, tmp_path):
        from repro.harness.parallel import sweep_jobs

        cache = tmp_path / "cache"
        sweep = _sweep(cache)
        expected = {store_key(job_digest(app, variant, kwargs))
                    for app, variant, kwargs in sweep_jobs(
                        APPS, VARIANTS, **KW)}
        store = ResultStore(str(cache))
        assert set(store.keys()) == expected
        assert len(expected) == len(sweep.job_order)


class TestTracedCaching:
    def test_warm_traced_sweep_replays_identical_bytes(self, tmp_path):
        cache = tmp_path / "cache"
        cold_dir = tmp_path / "cold"
        warm_dir = tmp_path / "warm"
        cold = _sweep(cache, observe=Observe(trace=str(cold_dir)))
        assert cold.cache_misses == 2
        warm = _sweep(cache, observe=Observe(trace=str(warm_dir)))
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        files = _trace_files(cold_dir)
        assert files == _trace_files(warm_dir)
        assert "lu__cp_parity.jsonl" in files
        assert "lu__cp_parity.ledger.json" in files
        assert "sweep.ledger.json" in files
        match, mismatch, errors = filecmp.cmpfiles(
            str(cold_dir), str(warm_dir), files, shallow=False)
        assert (sorted(match), mismatch, errors) == (files, [], [])
        assert warm.ledgers == cold.ledgers

    def test_traced_and_untraced_entries_are_distinct(self, tmp_path):
        """A category-filtered trace must not be served the full one."""
        cache = tmp_path / "cache"
        _sweep(cache, observe=Observe(trace=str(tmp_path / "full")))
        filtered = _sweep(cache, observe=Observe(
            trace=str(tmp_path / "coh"), trace_categories=["coh"]))
        # Different store key (trace_categories folds in): all misses.
        assert filtered.cache_misses == 2

    def test_untraced_entry_upgraded_by_traced_sweep(self, tmp_path):
        cache = tmp_path / "cache"
        cold = _sweep(cache)                     # result-only entries
        traced = _sweep(cache, observe=Observe(trace=str(tmp_path / "t1")))
        # Result-only entries cannot satisfy a traced sweep: recompute
        # (and upgrade the entries in place).
        assert (traced.cache_hits, traced.cache_misses) == (0, 2)
        assert _comparable(traced) == _comparable(cold)
        again = _sweep(cache, observe=Observe(trace=str(tmp_path / "t2")))
        assert (again.cache_hits, again.cache_misses) == (2, 0)
        # And the upgraded entry still serves untraced sweeps.
        untraced = _sweep(cache)
        assert (untraced.cache_hits, untraced.cache_misses) == (2, 0)
        assert _comparable(untraced) == _comparable(cold)

    def test_corrupted_entry_falls_back_to_recompute(self, tmp_path):
        cache = tmp_path / "cache"
        cold = _sweep(cache)
        # Tamper with every stored entry payload.
        objects = cache / "objects"
        tampered = 0
        for shard in objects.iterdir():
            for entry_dir in shard.iterdir():
                entry = entry_dir / "entry.json"
                entry.write_text(entry.read_text()[:-10])
                tampered += 1
        assert tampered == 2
        warm = _sweep(cache)
        assert (warm.cache_hits, warm.cache_misses) == (0, 2)
        assert _comparable(warm) == _comparable(cold)
        healed = _sweep(cache)
        assert (healed.cache_hits, healed.cache_misses) == (2, 0)


class TestValidation:
    def test_zero_workers_still_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_sweep(APPS, VARIANTS, workers=0,
                      cache_dir=str(tmp_path / "cache"), **KW)

    def test_bad_cache_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_sweep(APPS, VARIANTS, serial=True,
                      cache_dir=str(tmp_path / "cache"),
                      cache_max_bytes=0, **KW)
