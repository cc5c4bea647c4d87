"""Parallel sweep determinism: worker count must not change results.

Every (app, variant) simulation is deterministic given its arguments,
and the executor merges results in canonical job order — so a sweep's
output must be bit-identical whether it runs serially or across any
number of worker processes.  These tests pin that across workers
{1, 2, 4}, including per-app overhead percentages, log bytes, and the
full counter/traffic breakdowns carried by each RunResult.
"""

from dataclasses import asdict

import pytest

from repro.harness.observe import Observe
from repro.harness.parallel import (
    SweepResult,
    default_workers,
    run_sweep,
    sweep_jobs,
)
from repro.machine.config import MachineConfig

APPS = ["lu"]
VARIANTS = ["baseline", "cp_parity"]
KW = dict(scale=0.05, n_procs=4, machine_config=MachineConfig.tiny(4),
          parity_group_size=3, log_bytes_per_node=64 * 1024)


def _sweep(**overrides) -> SweepResult:
    kwargs = dict(KW)
    kwargs.update(overrides)
    return run_sweep(APPS, VARIANTS, **kwargs)


def _comparable(sweep: SweepResult):
    """Everything that must not depend on the execution strategy."""
    return {key: asdict(result) for key, result in sweep.results.items()}


class TestDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        return _sweep(serial=True)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_across_worker_counts(self, serial, workers):
        parallel = _sweep(workers=workers)
        assert _comparable(parallel) == _comparable(serial)
        assert parallel.job_order == serial.job_order

    def test_overhead_rows_identical(self, serial):
        parallel = _sweep(workers=2)
        assert parallel.overhead_rows() == serial.overhead_rows()
        row = serial.overhead_rows()[0]
        assert row["app"] == "lu"
        assert row["baseline_ns"] > 0
        assert row["cp_parity"] > 0          # ReVive costs something

    def test_log_bytes_identical(self, serial):
        parallel = _sweep(workers=4)
        for key in serial.results:
            assert parallel.results[key].max_log_bytes == \
                serial.results[key].max_log_bytes

    def test_chunksize_does_not_change_results(self, serial):
        chunked = _sweep(workers=2, chunksize=2)
        assert _comparable(chunked) == _comparable(serial)


class TestTracedSweepDeterminism:
    """Traced sweeps: files and ledgers independent of worker count."""

    def _traced(self, trace_dir, trace_categories=None, **overrides):
        return _sweep(observe=Observe(trace=str(trace_dir),
                                      trace_categories=trace_categories),
                      **overrides)

    def test_parallel_files_byte_identical_to_serial(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = self._traced(serial_dir, serial=True)
        parallel = self._traced(parallel_dir, workers=2)
        names = sorted(p.name for p in serial_dir.iterdir())
        assert names == sorted(p.name for p in parallel_dir.iterdir())
        assert "sweep.ledger.json" in names
        for name in names:
            assert (serial_dir / name).read_bytes() == \
                (parallel_dir / name).read_bytes(), name
        assert parallel.ledgers == serial.ledgers

    def test_traced_results_match_untraced(self, tmp_path):
        # Tracing observes the sweep; it must not change its results.
        untraced = _sweep(serial=True)
        traced = self._traced(tmp_path / "t", serial=True)
        assert _comparable(traced) == _comparable(untraced)

    def test_ledger_layout(self, tmp_path):
        import json

        sweep = self._traced(tmp_path / "t", serial=True)
        assert sweep.trace_dir == str(tmp_path / "t")
        assert [(m["app"], m["variant"]) for m in sweep.ledgers] == \
            sweep.job_order
        for (app, variant), manifest in zip(sweep.job_order, sweep.ledgers):
            result = sweep.results[(app, variant)]
            assert manifest["result"]["execution_time_ns"] == \
                result.execution_time_ns
            assert manifest["result"]["max_log_bytes"] == \
                result.max_log_bytes
            assert manifest["healthy"]
            base = tmp_path / "t" / f"{app}__{variant}"
            assert base.with_suffix(".jsonl").exists()
        merged = json.loads((tmp_path / "t" / "sweep.ledger.json")
                            .read_text())
        assert merged["jobs"] == sweep.ledgers

    def test_category_filter_applies_to_every_job(self, tmp_path):
        import json

        # Short interval: the tiny run must commit checkpoints, else a
        # ckpt-only trace is legitimately empty.
        self._traced(tmp_path / "t", serial=True, interval_ns=25_000,
                     trace_categories=["ckpt"])
        for path in (tmp_path / "t").glob("*__cp_parity.jsonl"):
            events = [json.loads(line)
                      for line in path.read_text().splitlines()]
            assert events
            assert {e["cat"] for e in events} == {"ckpt"}


class TestProfiledSweep:
    """observe.profile: host-time attribution rides a side channel and
    never perturbs the sweep's deterministic outputs."""

    def _strip_profiles(self, sweep):
        stripped = {}
        for key, result in sweep.results.items():
            fields = asdict(result)
            fields.pop("profile")
            stripped[key] = fields
        return stripped

    def test_profiled_results_match_unprofiled(self):
        plain = _sweep(serial=True)
        profiled = _sweep(serial=True, observe=Observe(profile=True))
        assert self._strip_profiles(profiled) == \
            self._strip_profiles(plain)
        assert plain.profile is None
        assert profiled.profile is not None
        assert profiled.profile["jobs"] == len(profiled.job_order) == 2
        assert profiled.profile["total_wall_seconds"] > 0

    def test_parallel_profile_merges_all_jobs(self):
        parallel = _sweep(workers=2, observe=Observe(profile=True))
        assert parallel.profile["jobs"] == len(parallel.job_order)
        # Merged maps come back key-sorted — deterministic for any
        # worker completion order.
        assert list(parallel.profile["actors"]) == \
            sorted(parallel.profile["actors"], key=int)

    def test_profiled_ledger_stays_byte_identical(self, tmp_path):
        import json

        plain_dir = tmp_path / "plain"
        prof_dir = tmp_path / "profiled"
        _sweep(serial=True, observe=Observe(trace=str(plain_dir)))
        profiled = _sweep(serial=True,
                          observe=Observe(trace=str(prof_dir), profile=True))
        # Profiling must never leak wall clock into the ledger: the
        # merged manifest is byte-identical with and without it.  The
        # profile lands in its own side-channel file instead.
        assert (plain_dir / "sweep.ledger.json").read_bytes() == \
            (prof_dir / "sweep.ledger.json").read_bytes()
        side = json.loads((prof_dir / "sweep.profile.json").read_text())
        assert side == profiled.profile
        assert not (plain_dir / "sweep.profile.json").exists()


class TestExecutor:
    def test_job_order_is_app_major(self):
        jobs = sweep_jobs(["fft", "lu"], ["baseline", "cp_parity"])
        assert [(a, v) for a, v, _ in jobs] == [
            ("fft", "baseline"), ("fft", "cp_parity"),
            ("lu", "baseline"), ("lu", "cp_parity")]

    def test_revive_overrides_skip_baseline(self):
        jobs = sweep_jobs(["lu"], ["baseline", "cp_parity"],
                          parity_group_size=3)
        kwargs = {v: kw for _a, v, kw in jobs}
        assert "parity_group_size" not in kwargs["baseline"]
        assert kwargs["cp_parity"]["parity_group_size"] == 3

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variants"):
            sweep_jobs(["lu"], ["warp_drive"])

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(APPS, VARIANTS, chunksize=0, **KW)
        with pytest.raises(ValueError):
            run_sweep(APPS, VARIANTS, workers=0, **KW)

    def test_serial_flag_reported(self):
        sweep = _sweep(serial=True)
        assert sweep.parallel is False
        assert sweep.workers == 1

    def test_parallel_flag_reported(self):
        sweep = _sweep(workers=2)
        assert sweep.parallel is True
        assert sweep.workers == 2

    def test_default_workers_bounds(self):
        assert default_workers(0) == 1
        assert 1 <= default_workers(100) <= 100

    def test_to_jsonable_round_trips(self, tmp_path):
        import json

        sweep = _sweep(serial=True)
        blob = json.dumps(sweep.to_jsonable())
        loaded = json.loads(blob)
        assert loaded["workers"] == 1
        assert len(loaded["results"]) == len(sweep.job_order)
        assert loaded["results"][0]["app"] == "lu"
