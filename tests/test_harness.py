"""Unit tests for the experiment harness (runner + reporting)."""

import pytest

from repro.core.config import ReViveConfig
from repro.harness.reporting import (
    format_table,
    megabytes,
    milliseconds,
    percent,
)
from repro.harness.runner import (
    RunResult,
    VARIANTS,
    VARIANT_LABELS,
    build_machine,
    revive_config_for,
)
from repro.machine.config import MachineConfig


class TestVariants:
    def test_baseline_has_no_revive(self):
        assert revive_config_for("baseline") is None
        machine = build_machine("baseline",
                                machine_config=MachineConfig.tiny(16))
        assert machine.revive is None

    def test_cp_parity(self):
        cfg = revive_config_for("cp_parity", interval_ns=123)
        assert cfg.parity_group_size == 7
        assert cfg.checkpoint_interval_ns == 123

    def test_cpinf_disables_checkpoints(self):
        cfg = revive_config_for("cpinf_parity")
        assert cfg.checkpoint_interval_ns is None

    def test_mirroring_variants(self):
        assert revive_config_for("cp_mirroring").parity_group_size == 1
        assert revive_config_for("cpinf_mirroring").mirroring

    def test_overrides_flow_through(self):
        cfg = revive_config_for("cp_parity", keep_checkpoints=3)
        assert cfg.keep_checkpoints == 3

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            build_machine("bogus")

    def test_every_variant_has_a_label(self):
        assert set(VARIANT_LABELS) == set(VARIANTS)


class TestReViveConfig:
    def test_defaults_are_paper_design_point(self):
        cfg = ReViveConfig()
        assert cfg.parity_group_size == 7
        assert cfg.keep_checkpoints == 2
        assert not cfg.mirroring

    def test_validation(self):
        with pytest.raises(ValueError):
            ReViveConfig(parity_group_size=0)
        with pytest.raises(ValueError):
            ReViveConfig(keep_checkpoints=0)
        with pytest.raises(ValueError):
            ReViveConfig(checkpoint_interval_ns=-5)
        with pytest.raises(ValueError):
            ReViveConfig(detection_latency_fraction=5.0)
        with pytest.raises(ValueError):
            ReViveConfig(log_bytes_per_node=0)
        with pytest.raises(ValueError):
            ReViveConfig(rebuild_dedication=0.0)

    def test_detection_latency(self):
        cfg = ReViveConfig(checkpoint_interval_ns=1000,
                           detection_latency_fraction=0.8)
        assert cfg.detection_latency_ns == 800
        assert ReViveConfig.cpinf_parity().detection_latency_ns == 0

    def test_factory_methods(self):
        assert ReViveConfig.cp_parity(1000).checkpoint_interval_ns == 1000
        assert ReViveConfig.cp_mirroring(1000).mirroring
        assert ReViveConfig.cpinf_mirroring().checkpoint_interval_ns is None


class TestRunResult:
    def make(self, ns):
        return RunResult(app="x", variant="baseline",
                         execution_time_ns=ns, total_refs=10,
                         l2_miss_rate=0.0, network_traffic={},
                         memory_traffic={}, checkpoints=0,
                         max_log_bytes=0, instructions=0.0)

    def test_overhead(self):
        base, mine = self.make(100), self.make(110)
        assert mine.overhead_vs(base) == pytest.approx(0.10)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            self.make(10).overhead_vs(self.make(0))


class TestRunAppLedger:
    def test_truncated_run_has_its_own_config_digest(self, tmp_path):
        """``run_app(until=...)`` records ``until`` in the ledger, so a
        truncated run does not claim the full run's configuration."""
        from repro.harness.observe import Observe
        from repro.harness.runner import run_app
        from repro.obs import read_ledger

        kwargs = dict(scale=0.05, n_procs=4, interval_ns=50_000,
                      machine_config=MachineConfig.tiny(4),
                      parity_group_size=3, log_bytes_per_node=64 * 1024)
        manifests = {}
        for until in (None, 20_000):
            path = str(tmp_path / f"{until}.ledger.json")
            run_app("lu", "cp_parity", until=until,
                    observe=Observe(ledger=path), **kwargs)
            manifests[until] = read_ledger(path)
        assert "until" not in manifests[None]["run_args"]
        assert manifests[20_000]["run_args"]["until"] == 20_000
        assert manifests[None]["config_digest"] != \
            manifests[20_000]["config_digest"]


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, "x"], [22, "yy"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        widths = {len(l) for l in lines[1:]}
        assert len(widths) == 1          # all rows equal width

    def test_row_width_validation(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_unit_helpers(self):
        assert percent(0.0632, 1) == "6.3%"
        assert megabytes(2.5 * 1024 * 1024, 1) == "2.5MB"
        assert milliseconds(820e6, 0) == "820ms"


class TestReportProvenance:
    def test_provenance_names_commit_and_cpus(self):
        import os

        from repro.harness.perf import provenance

        stamp = provenance()
        assert set(stamp) == {"git_sha", "cpu_count"}
        assert stamp["cpu_count"] == os.cpu_count()
        sha = stamp["git_sha"]
        assert sha is None or (len(sha) == 40
                               and set(sha) <= set("0123456789abcdef"))

    def test_history_appends_one_line_per_report(self, tmp_path):
        import json

        from repro.harness.perf import append_history

        path = tmp_path / "history.jsonl"
        append_history({"git_sha": None, "n": 1}, str(path))
        append_history({"git_sha": "abc", "n": 2}, str(path))
        lines = path.read_text().splitlines()
        assert [json.loads(line)["n"] for line in lines] == [1, 2]
