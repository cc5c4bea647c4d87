"""Forked scenarios share one decoded warm image, read-only.

A campaign context unpickles each warm image once and restores every
forked scenario from that decoded state.  That is sound only while
``Machine.restore`` copies the image's containers and never aliases
them; these tests pin the contract and the bit-exactness of recovery
from a shared image.  That the context does not outlive a serial
campaign is pinned by ``tests/test_executor.py``.
"""

from __future__ import annotations

import pickle

from repro.harness.campaign import (
    _decoded_image,
    _fault_and_recover,
    _scenario_machine,
    campaign_scenarios,
    run_campaign,
    warm_machine,
)
from repro.harness.observe import Observe
from repro.harness.runner import tiny_revive_overrides
from repro.machine.config import MachineConfig

RUN_KWARGS = dict(scale=0.05, n_procs=4, interval_ns=50_000,
                  machine_config=MachineConfig.tiny(4),
                  **tiny_revive_overrides(4))


def forked_context(run_kwargs, warm_checkpoints, digest=False):
    machine = warm_machine("fft", "cp_parity", run_kwargs,
                           warm_checkpoints, observe=Observe(digest=digest))
    image = pickle.dumps(machine.snapshot(),
                         protocol=pickle.HIGHEST_PROTOCOL)
    return {"app": "fft", "variant": "cp_parity", "run_kwargs": run_kwargs,
            "warm_checkpoints": warm_checkpoints, "images": {None: image},
            "observe": Observe(digest=digest)}


def test_shared_decoded_image_stays_read_only():
    ctx = forked_context(RUN_KWARGS, 2, digest=True)
    image = ctx["images"][None]
    state = _decoded_image(ctx, None)
    assert _decoded_image(ctx, None) is state      # unpickled once
    scenarios = [{"hybrid_fraction": None, "lost_node": 1,
                  "detect_fraction": 0.8},
                 {"hybrid_fraction": None, "lost_node": None,
                  "detect_fraction": 0.3}]
    machines = [_scenario_machine(ctx, scenario) for scenario in scenarios]
    for machine, scenario in zip(machines, scenarios):
        _fault_and_recover(machine, scenario, 2, RUN_KWARGS["interval_ns"])
        machine.record_digest()
        machine.run(until=machine.simulator.now + 20_000)
    assert machines[0].snapshot() != machines[1].snapshot()
    assert ctx["decoded"] == {None: pickle.loads(image)}


def test_deferred_directory_rows_read_from_shared_image():
    """Directory rows are built from the shared image on first use:
    a machine that reads them after another has run and mutated its
    own directories still sees the image's rows, and neither writes
    back into the image."""
    ctx = forked_context(RUN_KWARGS, 2)
    scenario = {"hybrid_fraction": None, "lost_node": None,
                "detect_fraction": 0.5}
    runner, reader = (_scenario_machine(ctx, scenario) for _ in range(2))
    runner.run(until=runner.simulator.now + 20_000)
    state = _decoded_image(ctx, None)
    for node, node_state in zip(reader.nodes, state["nodes"]):
        assert node.directory.snapshot() == node_state["directory"]
    assert [node.directory.snapshot() for node in runner.nodes] != \
        [node_state["directory"] for node_state in state["nodes"]]
    assert ctx["decoded"] == {None: pickle.loads(ctx["images"][None])}


def test_forked_recovery_is_bit_exact_on_the_benchmark_grid():
    """fft cp_parity on a tiny 4-node machine warmed to six commits,
    lost node and transient fault: every scenario restored from the one
    shared image rolls memory back bit-for-bit with parity intact."""
    warm = 6
    run_kwargs = dict(RUN_KWARGS, parity_group_size=3,
                      log_bytes_per_node=64 * 1024, debug_snapshots=True)
    ctx = forked_context(run_kwargs, warm)
    for scenario in campaign_scenarios(lost_nodes=(None, 2),
                                       detect_fractions=(0.2, 0.5, 0.8)):
        machine = _scenario_machine(ctx, scenario)
        _detect, result = _fault_and_recover(machine, scenario, warm,
                                             run_kwargs["interval_ns"])
        assert result.target_epoch == warm - 1
        assert result.entries_undone > 0
        assert machine.verify_against_snapshot(result.target_epoch) == []
        assert machine.revive.parity.check_all_parity() == []
    assert list(ctx["decoded"]) == [None]


def test_forked_digests_equal_cold_digests():
    """Two hybrid fractions, two scenarios sharing each image: any
    aliasing of the decoded state, or a stale image kept across the
    switch of fraction, would show up as a divergent outcome or digest
    window."""
    grid = dict(warm_checkpoints=2, lost_nodes=(1, None),
                detect_fractions=(0.5,), hybrid_fractions=(0.0, 0.25),
                serial=True, observe=Observe(digest=True))
    forked = run_campaign("fft", "cp_parity", **RUN_KWARGS, **grid)
    cold = run_campaign("fft", "cp_parity", cold=True, **RUN_KWARGS, **grid)
    assert len(forked.outcomes) == 4
    assert forked.outcomes == cold.outcomes
    assert forked.digests == cold.digests


def test_one_decoded_image_per_context():
    ctx = {"images": {None: pickle.dumps({"a": [1]}),
                      0.25: pickle.dumps({"b": [2]})}}
    first = _decoded_image(ctx, None)
    assert _decoded_image(ctx, None) is first
    assert _decoded_image(ctx, 0.25) == {"b": [2]}
    assert list(ctx["decoded"]) == [0.25]
    assert _decoded_image(ctx, None) == {"a": [1]}
