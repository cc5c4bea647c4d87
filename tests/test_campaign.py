"""Tests for repro.harness.campaign: fork-based fault campaigns.

The campaign's contract: forked scenarios (restored from one warm
image) produce *exactly* the outcomes of cold per-scenario replays;
warm images are content-addressed in the result store and reused
across campaigns; and the runner narrates itself through catalogued
``snap.*`` events.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.harness.campaign import (
    CampaignResult,
    campaign_scenarios,
    run_campaign,
    warm_machine,
)
from repro.harness.observe import Observe
from repro.harness.runner import tiny_revive_overrides
from repro.machine.config import MachineConfig
from repro.obs.analysis import read_trace
from repro.obs.lint import lint_events

RUN_KWARGS = dict(scale=0.05, n_procs=4, interval_ns=50_000,
                  machine_config=MachineConfig.tiny(4),
                  **tiny_revive_overrides(4))
GRID = dict(warm_checkpoints=2, lost_nodes=(None, 1),
            detect_fractions=(0.2, 0.8))


class TestScenarioGrid:
    def test_canonical_order_is_hybrid_lost_detect(self):
        grid = campaign_scenarios(lost_nodes=(None, 1),
                                  detect_fractions=(0.2, 0.8),
                                  hybrid_fractions=(None, 0.25))
        assert [(s["hybrid_fraction"], s["lost_node"],
                 s["detect_fraction"]) for s in grid] == [
            (None, None, 0.2), (None, None, 0.8),
            (None, 1, 0.2), (None, 1, 0.8),
            (0.25, None, 0.2), (0.25, None, 0.8),
            (0.25, 1, 0.2), (0.25, 1, 0.8)]


class TestWarmMachine:
    def test_warms_to_the_requested_commit(self):
        machine = warm_machine("fft", "cp_parity", RUN_KWARGS, 2)
        assert machine.checkpointing.checkpoints_committed >= 2
        assert not machine.all_finished

    def test_checkpoint_free_variant_is_rejected(self):
        with pytest.raises(ValueError, match="checkpoint"):
            warm_machine("fft", "baseline", RUN_KWARGS, 2)

    def test_too_short_run_is_reported(self):
        kwargs = dict(RUN_KWARGS, scale=0.05)
        with pytest.raises(RuntimeError, match="checkpoints"):
            warm_machine("fft", "cp_parity", kwargs, 50)


class TestForkedEqualsCold:
    def test_forked_outcomes_equal_cold_outcomes(self):
        forked = run_campaign("fft", "cp_parity", serial=True,
                              **RUN_KWARGS, **GRID)
        cold = run_campaign("fft", "cp_parity", serial=True, cold=True,
                            **RUN_KWARGS, **GRID)
        assert forked.outcomes == cold.outcomes
        assert len(forked.outcomes) == 4
        assert cold.cold and not forked.cold

    def test_outcomes_carry_the_recovery_measurements(self):
        campaign = run_campaign("fft", "cp_parity", serial=True,
                                **RUN_KWARGS, **GRID)
        for outcome in campaign.outcomes:
            assert outcome["target_epoch"] == 1
            assert outcome["unavailable_ns"] > 0
            assert set(outcome["breakdown"]) == {
                "lost_work", "hw_recovery", "log_rebuild", "rollback"}
        # Longer detection latency loses more work.
        by_detect = {(o["lost_node"], o["detect_fraction"]):
                     o["lost_work_ns"] for o in campaign.outcomes}
        assert by_detect[(1, 0.8)] > by_detect[(1, 0.2)]

    def test_parallel_grid_matches_serial(self):
        parallel = run_campaign("fft", "cp_parity", workers=2,
                                **RUN_KWARGS, **GRID)
        serial = run_campaign("fft", "cp_parity", serial=True,
                              **RUN_KWARGS, **GRID)
        assert parallel.outcomes == serial.outcomes


class TestCampaignProfiles:
    def test_profiling_never_perturbs_outcomes(self):
        plain = run_campaign("fft", "cp_parity", serial=True,
                             **RUN_KWARGS, **GRID)
        profiled = run_campaign("fft", "cp_parity", serial=True,
                                observe=Observe(profile=True),
                                **RUN_KWARGS, **GRID)
        cold = run_campaign("fft", "cp_parity", serial=True, cold=True,
                            observe=Observe(profile=True),
                            **RUN_KWARGS, **GRID)
        # The cold-vs-forked equality contract survives profiling, and
        # the profile rides beside the outcomes, never inside them.
        assert profiled.outcomes == plain.outcomes
        assert cold.outcomes == plain.outcomes
        assert plain.profile is None
        assert "profile" not in plain.outcomes[0]

    def test_merged_profile_covers_every_scenario(self):
        campaign = run_campaign("fft", "cp_parity", serial=True,
                                observe=Observe(profile=True),
                                **RUN_KWARGS, **GRID)
        profile = campaign.profile
        assert profile is not None
        assert profile["jobs"] == len(campaign.outcomes) == 4
        assert profile["total_wall_seconds"] > 0
        assert profile["events"] > 0
        # Fork restores never double-count: each scenario profiles
        # only its own detect/fault/recover tail, so per-actor
        # attribution stays within the merged run wall.
        attributed = sum(a["seconds"]
                         for a in profile["actors"].values())
        assert 0 < attributed <= profile["total_wall_seconds"] * (1 + 1e-6)
        assert campaign.to_jsonable()["profile"] == profile

    def test_parallel_profile_merges_in_scenario_order(self):
        parallel = run_campaign("fft", "cp_parity", workers=2,
                                observe=Observe(profile=True),
                                **RUN_KWARGS, **GRID)
        assert parallel.outcomes == run_campaign(
            "fft", "cp_parity", serial=True, **RUN_KWARGS,
            **GRID).outcomes
        profile = parallel.profile
        assert profile is not None and profile["jobs"] == 4
        # Deterministic merge: maps come back key-sorted regardless of
        # worker completion order.
        assert list(profile["actors"]) == sorted(profile["actors"],
                                                 key=int)


class TestWarmImageStore:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        store = str(tmp_path / "store")
        first = run_campaign("fft", "cp_parity", serial=True,
                             cache_dir=store, **RUN_KWARGS, **GRID)
        assert [image["cached"] for image in first.images] == [False]
        again = run_campaign("fft", "cp_parity", serial=True,
                             cache_dir=store, **RUN_KWARGS, **GRID)
        assert [image["cached"] for image in again.images] == [True]
        assert again.outcomes == first.outcomes
        assert again.images[0]["key"] == first.images[0]["key"]

    def test_different_warm_depth_is_a_different_image(self, tmp_path):
        store = str(tmp_path / "store")
        two = run_campaign("fft", "cp_parity", serial=True,
                           cache_dir=store, **RUN_KWARGS, **GRID)
        three = run_campaign("fft", "cp_parity", serial=True,
                             cache_dir=store, **RUN_KWARGS,
                             warm_checkpoints=3,
                             lost_nodes=(1,), detect_fractions=(0.5,))
        assert two.images[0]["key"] != three.images[0]["key"]
        assert not three.images[0]["cached"]

    def test_snap_events_narrate_the_campaign(self, tmp_path):
        store = str(tmp_path / "store")
        path = str(tmp_path / "first.jsonl")
        run_campaign("fft", "cp_parity", serial=True, cache_dir=store,
                     observe=Observe(trace=path), **RUN_KWARGS, **GRID)
        events = read_trace(path)
        names = [event["name"] for event in events]
        assert names == ["snap.capture", "snap.fork"]
        assert lint_events(events) == []
        capture, fork = events
        assert capture["bytes"] > 0 and capture["epoch"] == 2
        assert fork["scenarios"] == 4

        path2 = str(tmp_path / "again.jsonl")
        run_campaign("fft", "cp_parity", serial=True, cache_dir=store,
                     observe=Observe(trace=path2), **RUN_KWARGS, **GRID)
        events2 = read_trace(path2)
        names2 = [event["name"] for event in events2]
        assert names2 == ["snap.restore", "snap.fork"]
        assert lint_events(events2) == []


class TestHybridAxis:
    def test_each_hybrid_fraction_gets_its_own_image(self):
        campaign = run_campaign("fft", "cp_parity", serial=True,
                                hybrid_fractions=(0.0, 0.25),
                                lost_nodes=(1,), detect_fractions=(0.5,),
                                warm_checkpoints=2, **RUN_KWARGS)
        assert [image["hybrid_fraction"] for image in campaign.images] \
            == [0.0, 0.25]
        assert campaign.images[0]["key"] != campaign.images[1]["key"]
        assert len(campaign.outcomes) == 2
        assert campaign.image_bytes == sum(image["bytes"]
                                           for image in campaign.images)


class TestResultShape:
    def test_to_jsonable_is_json_clean(self):
        import json

        campaign = run_campaign("fft", "cp_parity", serial=True,
                                **RUN_KWARGS, warm_checkpoints=2,
                                lost_nodes=(1,), detect_fractions=(0.5,))
        assert isinstance(campaign, CampaignResult)
        round_tripped = json.loads(json.dumps(campaign.to_jsonable()))
        assert round_tripped["outcomes"] == campaign.outcomes

    def test_bad_warm_depth_is_rejected(self):
        with pytest.raises(ValueError, match="warm_checkpoints"):
            run_campaign("fft", "cp_parity", warm_checkpoints=0,
                         **RUN_KWARGS)


class TestServeCampaignOp:
    def _events(self, service, request):
        async def collect():
            return [event async for event in service.events(request)]
        return asyncio.run(collect())

    def test_campaign_request_streams_and_lints(self, tmp_path):
        from repro.serve.service import SimulationService

        service = SimulationService(cache_dir=str(tmp_path / "cache"))
        request = {"op": "campaign", "app": "fft",
                   "variant": "cp_parity", "nodes": 4, "scale": 0.05,
                   "interval_us": 50.0, "warm_checkpoints": 2,
                   "lost_nodes": [None, 1],
                   "detect_fractions": [0.2, 0.8]}
        try:
            events = self._events(service, request)
            names = [event["name"] for event in events]
            assert names == ["svc.accepted", "snap.capture", "snap.fork",
                             "svc.campaign", "svc.done"]
            assert lint_events(events) == []
            outcomes = events[-2]["outcomes"]
            assert len(outcomes) == 4
            assert events[-1]["jobs"] == 4

            again = self._events(service, request)
            assert [e["name"] for e in again] == [
                "svc.accepted", "snap.restore", "snap.fork",
                "svc.campaign", "svc.done"]
            assert again[-2]["outcomes"] == outcomes
            assert again[-1]["cached"] == 1
        finally:
            service.close()

    def test_campaign_rejects_checkpoint_free_variants(self):
        from repro.serve.service import SimulationService

        service = SimulationService()
        try:
            events = self._events(
                service, {"op": "campaign", "app": "fft",
                          "variant": "cpinf_parity"})
            assert events[-1]["name"] == "svc.error"
            assert "checkpointing variant" in events[-1]["error"]
        finally:
            service.close()
