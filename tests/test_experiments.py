"""Unit tests for the experiment drivers (lightweight paths only).

The heavy drivers (Figure 8's 60 runs, Figure 12's 12 recoveries) are
exercised by the benchmark harness; here we test the aggregation and
the analytic pieces, plus one scaled-down end-to-end driver run.
"""

import pytest

from repro.harness import experiments as E
from repro.harness.runner import VARIANTS
from repro.machine.config import MachineConfig


class TestTable3:
    def test_paper_config_values(self):
        row = E.table3_architecture(MachineConfig.paper())
        assert row["processors"] == 16
        assert "16KB" in row["l1"]
        assert "4x4 torus" in row["network"]

    def test_latency_composition(self):
        row = E.table3_architecture(MachineConfig.paper())
        assert row["neighbor_mem_ns"] > row["local_mem_ns"]


class TestTable1Reference:
    def test_paper_constants(self):
        assert E.TABLE1_PAPER["wb_logged"] == \
            {"accesses": 3, "lines": 1, "messages": 2}
        assert E.TABLE1_PAPER["rdx_unlogged"] == \
            {"accesses": 4, "lines": 2, "messages": 2}
        assert E.TABLE1_PAPER["wb_unlogged"] == \
            {"accesses": 8, "lines": 3, "messages": 4}


class TestFig8Aggregation:
    def test_summary_means(self):
        rows = [
            {"app": "a", "cp_parity": 0.1, "cpinf_parity": 0.02,
             "cp_mirroring": 0.05, "cpinf_mirroring": 0.01},
            {"app": "b", "cp_parity": 0.3, "cpinf_parity": 0.04,
             "cp_mirroring": 0.15, "cpinf_mirroring": 0.03},
        ]
        summary = E.fig8_summary(rows)
        assert summary["cp_parity"] == pytest.approx(0.2)
        assert summary["cpinf_mirroring"] == pytest.approx(0.02)
        assert set(summary) == set(VARIANTS[1:])


class TestAvailabilityAnalysis:
    def test_headline(self):
        out = E.availability_analysis(820.0, errors_per_day=1.0)
        assert out["availability"] > 0.99999
        assert out["downtime_s_per_day"] == pytest.approx(0.82)

    def test_scales_with_error_rate(self):
        one = E.availability_analysis(400.0, 1.0)
        many = E.availability_analysis(400.0, 10.0)
        assert many["availability"] < one["availability"]


class TestRecoveryExperimentScaling:
    def test_scaled_unavailability(self):
        from repro.core.recovery import RecoveryResult

        result = RecoveryResult(
            target_epoch=1, lost_node=3, detect_time=0,
            lost_work_ns=450_000, phase1_ns=50_000_000,
            phase2_ns=100_000, phase3_ns=50_000,
            phase4_background_ns=0)
        exp = E.RecoveryExperiment("x", 3, result, interval_ns=250_000)
        # (450k + 150k) * (100ms / 250us) = 240ms, plus fixed 50ms.
        assert exp.unavailable_ms_scaled == pytest.approx(290.0)


class TestEndToEndDriver:
    def test_fig12_driver_small(self):
        """One full Figure 12 recovery at a reduced scale."""
        exps = E.fig12_recovery(apps=["lu"], scale=0.6, interval_ns=100_000)
        assert len(exps) == 1
        result = exps[0].result
        assert result.lost_node == 3
        assert result.entries_undone > 0
        assert result.target_epoch == 1

    def test_fig12_transient_variant(self):
        exps = E.fig12_recovery(apps=["lu"], scale=0.6,
                                interval_ns=100_000, lost_node=None)
        result = exps[0].result
        assert result.lost_node is None
        assert result.phase2_ns == 0


class TestTrafficDrivers:
    def test_fig9_and_fig10_single_app(self):
        rows9 = E.fig9_network_traffic(apps=["lu"], scale=0.3,
                                       interval_ns=100_000)
        rows10 = E.fig10_memory_traffic(apps=["lu"], scale=0.3,
                                        interval_ns=100_000)
        assert rows9[0]["app"] == "lu" and rows10[0]["app"] == "lu"
        assert rows9[0]["PAR"] > 0
        assert rows10[0]["LOG"] > 0

    def test_fig11_single_app(self):
        rows = E.fig11_log_size(apps=["lu"], scale=0.3,
                                interval_ns=100_000)
        assert rows[0]["max_log_bytes"] > 0
        assert rows[0]["checkpoints"] >= 1

    def test_fig8_single_app(self):
        rows = E.fig8_overhead(apps=["lu"], scale=0.2,
                               interval_ns=60_000)
        row = rows[0]
        assert row["app"] == "lu"
        assert all(variant in row for variant in
                   ("cp_parity", "cpinf_parity", "cp_mirroring",
                    "cpinf_mirroring"))
        assert row["cp_parity"] > row["cpinf_parity"] - 0.02
