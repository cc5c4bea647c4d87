"""Tests for the command-line interface."""

import pytest

from repro.cli import main, make_parser
from repro.obs import recovery_breakdown

#: Figure 12's worst case on a tiny machine, small enough for tests.
TRACED_RECOVERY = ["recover", "lu", "--nodes", "4", "--scale", "0.5",
                   "--interval-us", "50", "--lost-node", "1"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_run_defaults(self):
        args = make_parser().parse_args(["run", "lu"])
        assert args.variant == "cp_parity"
        assert args.scale == 1.0

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["run", "doom"])

    def test_recover_lost_node(self):
        args = make_parser().parse_args(["recover", "lu",
                                         "--lost-node", "3"])
        assert args.lost_node == 3

    def test_trace_defaults(self):
        # Tracing a recovery is 'recover --trace'; there is no 'trace'
        # command and no '--out' flag.
        args = make_parser().parse_args(["recover", "lu"])
        assert args.trace is None and args.trace_categories is None
        assert not hasattr(args, "out")
        args = make_parser().parse_args(["recover", "lu",
                                         "--trace", "t.jsonl"])
        assert args.trace == "t.jsonl"
        with pytest.raises(SystemExit):
            make_parser().parse_args(["trace", "lu"])

    def test_observability_flags_on_run(self):
        args = make_parser().parse_args(
            ["run", "lu", "--trace", "t.jsonl",
             "--trace-categories", "ckpt,recovery", "--profile"])
        assert args.trace == "t.jsonl"
        assert args.trace_categories == "ckpt,recovery"
        assert args.profile


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "radix" in out and "water-sp" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "4x4 torus" in out

    def test_run_small(self, capsys):
        assert main(["run", "lu", "--scale", "0.1",
                     "--variant", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "L2 miss rate" in out

    def test_compare_small(self, capsys):
        assert main(["compare", "lu", "--scale", "0.05",
                     "--interval-us", "40"]) == 0
        out = capsys.readouterr().out
        assert "Cp10ms" in out and "Overhead" in out

    def test_sweep_small(self, capsys, tmp_path):
        out_json = tmp_path / "sweep.json"
        assert main(["sweep", "lu", "--variants", "baseline,cp_parity",
                     "--scale", "0.05", "--nodes", "4",
                     "--workers", "2", "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "sweep: 2 runs" in out and "lu" in out
        import json
        blob = json.loads(out_json.read_text())
        assert len(blob["results"]) == 2

    def test_sweep_serial_matches_parallel(self, capsys):
        assert main(["sweep", "lu", "--variants", "baseline,cp_parity",
                     "--scale", "0.05", "--nodes", "4", "--serial"]) == 0
        serial_out = capsys.readouterr().out
        assert "(serial)" in serial_out
        assert main(["sweep", "lu", "--variants", "baseline,cp_parity",
                     "--scale", "0.05", "--nodes", "4",
                     "--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        # Same table body (only the mode/time header line may differ).
        assert serial_out.splitlines()[-1] == parallel_out.splitlines()[-1]

    def test_sweep_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "nosuchapp"])

    def test_tiny_mirroring_is_not_parity(self, capsys, tmp_path):
        """On a ``--nodes`` machine cp_mirroring keeps its 1+1 mirror
        pairs instead of taking the parity variant's shrunk group."""
        import json

        seen = {}
        for variant in ("cp_parity", "cp_mirroring"):
            path = tmp_path / f"{variant}.json"
            assert main(["run", "fft", "--nodes", "4", "--scale", "0.05",
                         "--interval-us", "25", "--variant", variant,
                         "--digest", str(path)]) == 0
            par = next(line for line in capsys.readouterr().out
                       .splitlines() if "memory traffic PAR" in line)
            windows = json.loads(path.read_text())["chain"]["windows"]
            seen[variant] = (par, windows[-1]["machine"])
        assert seen["cp_parity"][0] != seen["cp_mirroring"][0]
        assert seen["cp_parity"][1] != seen["cp_mirroring"][1]

    def test_tiny_overrides_follow_the_variant(self):
        from repro.harness.runner import tiny_revive_overrides

        assert tiny_revive_overrides(4) == tiny_revive_overrides(
            4, "cp_parity") == {"parity_group_size": 3,
                                "log_bytes_per_node": 64 * 1024}
        assert tiny_revive_overrides(4, "cpinf_mirroring") == {
            "parity_group_size": 1, "log_bytes_per_node": 32 * 1024}
        assert tiny_revive_overrides(None, "cp_mirroring") == {}

    def test_recover_small(self, capsys):
        rc = main(["recover", "lu", "--scale", "0.6",
                   "--interval-us", "100"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bit-exact" in out

    def test_recover_node_loss_small(self, capsys):
        rc = main(["recover", "lu", "--scale", "0.6",
                   "--interval-us", "100", "--lost-node", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "log rebuild" in out

    def test_recover_too_short(self, capsys):
        rc = main(["recover", "lu", "--scale", "0.02",
                   "--interval-us", "100000"])
        assert rc == 2

    def test_run_with_trace_and_profile(self, tmp_path, capsys):
        out_path = str(tmp_path / "run.jsonl")
        rc = main(["run", "lu", "--scale", "0.1", "--nodes", "4",
                   "--trace", out_path, "--trace-categories", "ckpt",
                   "--profile"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wall-clock profile" in out
        assert f"-> {out_path}" in out
        import json
        events = [json.loads(line)
                  for line in open(out_path, encoding="utf-8")]
        assert events and all(e["cat"] == "ckpt" for e in events)

    def test_unknown_trace_category_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown trace categories"):
            main(["run", "lu", "--scale", "0.1", "--nodes", "4",
                  "--trace", str(tmp_path / "x.jsonl"),
                  "--trace-categories", "bogus"])

    def test_trace_command_matches_recovery_result(self, tmp_path, capsys):
        """``recover --trace`` recomputes the recovery breakdown from
        the trace and checks it against the live ``RecoveryResult``."""
        out_path = str(tmp_path / "trace.jsonl")
        rc = main([*TRACED_RECOVERY, "--trace", out_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "live vs recomputed" in out
        assert "parity consistent, trace breakdown matches " \
            "RecoveryResult" in out
        assert "MISMATCH" not in out

    def test_recover_trace_mismatch_exits_1(self, tmp_path, capsys,
                                            monkeypatch):
        import repro.cli

        def off_by_one(events):
            return {phase: ns + 1 for phase, ns
                    in recovery_breakdown(events).items()}

        monkeypatch.setattr(repro.cli, "recovery_breakdown", off_by_one)
        rc = main([*TRACED_RECOVERY, "--trace", str(tmp_path / "t.jsonl")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "MISMATCH" in captured.out
        assert "TRACE MISMATCH" in captured.err

    def test_recover_trace_check_skipped_without_its_categories(
            self, tmp_path, capsys):
        rc = main([*TRACED_RECOVERY, "--trace", str(tmp_path / "t.jsonl"),
                   "--trace-categories", "ckpt,sim"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "check skipped: --trace-categories leaves out recovery" \
            in out
        assert "verification: memory bit-exact, parity consistent\n" in out


class TestMonitoringCommands:
    def test_run_with_ledger_writes_manifest(self, tmp_path, capsys):
        ledger_path = str(tmp_path / "run.ledger.json")
        rc = main(["run", "lu", "--scale", "0.05", "--nodes", "4",
                   "--ledger", ledger_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"ledger: {ledger_path} (healthy)" in out
        import json
        manifest = json.loads(open(ledger_path, encoding="utf-8").read())
        assert manifest["app"] == "lu"
        assert manifest["variant"] == "cp_parity"
        assert manifest["healthy"]
        assert manifest["result"]["execution_time_ns"] > 0
        assert set(manifest["verdicts"]) == {
            "log_occupancy", "checkpoint_cadence", "traffic_rate",
            "recovery", "mem_traffic", "span_latency"}

        # One path builds every run's instruments: a traced run writes
        # the bytes of the same cell of a traced sweep.
        flags = ["--nodes", "4", "--scale", "0.05", "--interval-us", "50"]
        trace = tmp_path / "a.jsonl"
        ledger = tmp_path / "a.ledger.json"
        assert main(["run", "lu", *flags, "--trace", str(trace),
                     "--ledger", str(ledger)]) == 0
        sweep_dir = tmp_path / "sweep"
        assert main(["sweep", "lu", "--variants", "cp_parity", "--serial",
                     "--trace-dir", str(sweep_dir), *flags]) == 0
        assert trace.read_bytes() == \
            (sweep_dir / "lu__cp_parity.jsonl").read_bytes()
        assert ledger.read_bytes() == \
            (sweep_dir / "lu__cp_parity.ledger.json").read_bytes()

        # ... and every entry point takes it as one argument.
        import inspect

        from repro.harness.campaign import run_campaign, warm_machine
        from repro.harness.parallel import run_sweep
        from repro.harness.runner import run_app

        removed = {"tracer", "profiler", "profile", "digest", "trace_dir",
                   "trace_categories"}
        for entry in (run_app, run_sweep, run_campaign, warm_machine):
            params = set(inspect.signature(entry).parameters)
            assert "observe" in params, entry.__name__
            assert not params & removed, entry.__name__

    def test_sweep_trace_dir_then_report_and_lint(self, tmp_path, capsys):
        trace_dir = str(tmp_path / "traces")
        rc = main(["sweep", "lu", "--variants", "baseline,cp_parity",
                   "--scale", "0.05", "--nodes", "4", "--serial",
                   "--trace-dir", trace_dir])
        out = capsys.readouterr().out
        assert rc == 0
        assert "traces + ledgers:" in out and "2/2 runs healthy" in out

        report_json = str(tmp_path / "report.json")
        rc = main(["report", trace_dir, "--json", report_json])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Figure 8" in out and "lu__cp_parity" in out
        import json
        report = json.loads(open(report_json, encoding="utf-8").read())
        assert [run["name"] for run in report["runs"]] == \
            ["lu__baseline", "lu__cp_parity"]
        assert report["overhead_rows"][0]["app"] == "lu"

        import os
        traces = sorted(os.path.join(trace_dir, name)
                        for name in os.listdir(trace_dir)
                        if name.endswith(".jsonl"))
        rc = main(["trace-lint", *traces])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("schema-clean") == len(traces) == 2

    def test_latency_and_export_trace_roundtrip(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        assert main(["run", "lu", "--scale", "0.05", "--nodes", "4",
                     "--trace", trace]) == 0
        capsys.readouterr()

        # repro report: percentile + attribution tables from spans.
        report_json = str(tmp_path / "report.json")
        rc = main(["report", trace, "--json", report_json])
        out = capsys.readouterr().out
        assert rc == 0
        assert "transaction latency" in out
        assert "critical-path attribution" in out
        assert "read_miss" in out and "p999" in out
        import json
        report = json.loads(open(report_json, encoding="utf-8").read())
        (run,) = report["runs"]
        assert run["latency"]["total_spans"] > 0
        assert "read_miss" in run["latency"]["classes"]

        # repro export-trace: default out path, loadable JSON.
        rc = main(["export-trace", trace])
        out = capsys.readouterr().out
        assert rc == 0
        assert "perfetto" in out
        chrome = str(tmp_path / "run.chrome.json")
        assert f"in {chrome}" in out
        loaded = json.loads(open(chrome, encoding="utf-8").read())
        assert loaded["traceEvents"]
        phases = {e["ph"] for e in loaded["traceEvents"]}
        assert {"X", "i", "M"} <= phases

        # --spans-only --out: no instants, explicit path.
        spans_only = str(tmp_path / "spans.json")
        rc = main(["export-trace", trace, "--out", spans_only,
                   "--spans-only"])
        capsys.readouterr()
        assert rc == 0
        loaded = json.loads(open(spans_only, encoding="utf-8").read())
        assert all(e["ph"] in ("X", "M") for e in loaded["traceEvents"])

    def test_latency_missing_trace_exits(self, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        with pytest.raises(SystemExit, match=f"no trace at {missing}"):
            main(["report", missing])

    def test_bench_report_verdicts_equal_the_ledger(self, tmp_path,
                                                    capsys):
        """``repro report`` replays a trace through the monitors its
        run used, sized from the ledger: a bench-machine log monitor
        knows its 2 MB capacity in both."""
        import json

        trace = str(tmp_path / "fft.jsonl")
        ledger = str(tmp_path / "fft.ledger.json")
        assert main(["run", "fft", "--scale", "0.02",
                     "--variant", "cp_parity", "--trace", trace,
                     "--ledger", ledger]) == 0
        report_json = str(tmp_path / "report.json")
        assert main(["report", trace, "--json", report_json]) == 0
        capsys.readouterr()
        (run,) = json.loads(open(report_json, encoding="utf-8").read())[
            "runs"]
        manifest = json.loads(open(ledger, encoding="utf-8").read())
        assert run["verdicts"] == manifest["verdicts"]
        assert run["verdicts"]["log_occupancy"]["capacity_bytes"] == \
            2 * 1024 * 1024

    def test_export_trace_missing_trace_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no trace"):
            main(["export-trace", str(tmp_path / "nope.jsonl")])

    def test_trace_lint_flags_bad_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v": 1, "seq": 0}\n')
        rc = main(["trace-lint", str(bad)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "missing envelope keys" in captured.err

    def test_unknown_sweep_trace_category_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown trace categories"):
            main(["sweep", "lu", "--variants", "baseline",
                  "--scale", "0.05", "--nodes", "4", "--serial",
                  "--trace-dir", str(tmp_path / "t"),
                  "--trace-categories", "bogus"])
