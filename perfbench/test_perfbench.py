"""Self-tests of the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import layers  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402
import suite  # noqa: E402
import tracing  # noqa: E402
from repro.harness import runner  # noqa: E402
from repro.machine.config import MachineConfig  # noqa: E402
from repro.workloads.registry import get_workload  # noqa: E402


def _result(**overrides) -> runner.RunResult:
    fields = dict(app="fft", variant="baseline", execution_time_ns=1000,
                  total_refs=50, l2_miss_rate=0.1,
                  network_traffic={"RD/RDX": 64, "PAR": 0},
                  memory_traffic={"LOG": 32, "PAR": 8}, checkpoints=2,
                  max_log_bytes=96, instructions=100.0,
                  counters={"txn.read_miss": 3, "txn.upgrade": 1})
    fields.update(overrides)
    return runner.RunResult(**fields)


class TestFingerprint:
    def test_equal_results_equal_fingerprints(self):
        assert (suite.result_fingerprint(_result())
                == suite.result_fingerprint(_result()))

    def test_key_order_does_not_matter(self):
        reordered = _result(counters={"txn.upgrade": 1, "txn.read_miss": 3})
        assert (suite.result_fingerprint(reordered)
                == suite.result_fingerprint(_result()))

    @pytest.mark.parametrize("field, value", [
        ("execution_time_ns", 1001), ("total_refs", 51),
        ("counters", {"txn.read_miss": 4, "txn.upgrade": 1}),
        ("network_traffic", {"RD/RDX": 64, "PAR": 1}),
        ("memory_traffic", {"LOG": 32, "PAR": 9}),
        ("checkpoints", 3), ("max_log_bytes", 97)])
    def test_every_statistic_counts(self, field, value):
        assert (suite.result_fingerprint(_result(**{field: value}))
                != suite.result_fingerprint(_result()))

    def test_host_side_fields_do_not_count(self):
        assert (suite.result_fingerprint(_result(profile={"wall": 1.0}))
                == suite.result_fingerprint(_result()))

    def test_outcome_order_counts(self):
        first, second = {"lost_node": 1}, {"lost_node": None}
        assert (suite.outcomes_fingerprint([first, second])
                != suite.outcomes_fingerprint([second, first]))

    def test_recorded_fingerprints_cover_every_input(self):
        recorded = suite.recorded_fingerprints()
        assert set(recorded) == set(suite.WORKLOAD_NAMES)
        for name, fingerprints in recorded.items():
            assert (len(fingerprints)
                    == suite.make_workload(name).n_inputs), name


def _spans(rows):
    """Build columns from ``(parent, start, end)`` rows."""
    parent, start, end = (np.array(col) for col in zip(*rows))
    return parent.astype(np.int32), start.astype(float), end.astype(float)


class TestSelfTimes:
    # op [0, 10] -> a [1, 4] -> a1 [2, 3]
    #            -> b [5, 9] -> b1 [5, 6], b2 [6.5, 9]
    ROWS = [(-1, 0.0, 10.0), (0, 1.0, 4.0), (1, 2.0, 3.0),
            (0, 5.0, 9.0), (3, 5.0, 6.0), (3, 6.5, 9.0)]

    def test_duration_minus_children(self):
        own = tracing.self_times(*_spans(self.ROWS))
        np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 0.5, 1.0, 2.5])

    def test_self_times_sum_to_the_root(self):
        own = tracing.self_times(*_spans(self.ROWS))
        assert own.sum() == pytest.approx(10.0)

    def test_leaf_self_time_is_its_duration(self):
        own = tracing.self_times(*_spans([(-1, 2.0, 7.5)]))
        np.testing.assert_allclose(own, [5.5])

    def test_layer_sums_per_op(self):
        recorder = tracing.SpanRecorder()
        names = [recorder.name_id(name) for name in
                 ("op", "Processor.__call__", "ProtocolEngine.read")]
        layer_of = {"Processor.__call__": "cpu",
                    "ProtocolEngine.read": "coherence"}
        # Two ops with the same shape: op -> cpu -> coherence.
        for op_id in range(2):
            base = len(recorder)
            for name, parent, start, end in [(0, -1, 0.0, 4.0),
                                             (1, 0, 1.0, 3.0),
                                             (2, 1, 1.5, 2.0)]:
                recorder.name.append(names[name])
                recorder.parent.append(-1 if parent < 0 else base + parent)
                recorder.op.append(op_id)
                recorder.start.append(start + 10 * op_id)
                recorder.end.append(end + 10 * op_id)
        per_op = tracing.layer_self_times(recorder, layer_of)
        for op_id in range(2):
            layers = per_op[op_id]
            assert layers[tracing.ROOT] == pytest.approx(2.0)
            assert layers["cpu"] == pytest.approx(1.5)
            assert layers["coherence"] == pytest.approx(0.5)
            assert sum(layers.values()) == pytest.approx(4.0)
        assert tracing.root_durations(recorder) == {0: 4.0, 1: 4.0}


class TestSeedDraw:
    def test_same_seed_same_grid(self):
        assert suite.draw_grid(7) == suite.draw_grid(7)

    def test_seeds_draw_different_grids(self):
        grids = {suite.draw_grid(seed) for seed in range(20)}
        assert len(grids) > 10

    @pytest.mark.parametrize("seed", [0, 1, 2, suite.HELD_OUT_SEED])
    def test_grid_shape(self, seed):
        lost_nodes, fractions, oracle = suite.draw_grid(seed)
        assert lost_nodes[0] is None and lost_nodes[1] in (1, 2, 3)
        assert sum(fractions) == pytest.approx(1.5)
        assert all(0.0 < fraction < 1.0 for fraction in fractions)
        assert len(set(oracle)) == 2
        assert all(0 <= index < 6 for index in oracle)

    def test_same_seed_same_inputs(self):
        assert suite.draw_input_seeds(7) == suite.draw_input_seeds(7)
        assert suite.draw_input_seeds(7) != suite.draw_input_seeds(8)
        assert (len(set(suite.draw_input_seeds(7)))
                == suite.SIMULATION_INPUTS)

    def test_simulation_seed_reaches_the_spec(self, tmp_path):
        hits = suite.make_workload("hits")
        hits.prepare(5, str(tmp_path))
        expected = get_workload("water-sp", scale=0.1).spec
        assert ([workload.spec.seed for workload in hits.inputs]
                == suite.draw_input_seeds(5))
        for workload in hits.inputs:
            assert workload.spec == replace(expected,
                                            seed=workload.spec.seed)


def _tiny_run():
    machine = runner.build_machine("cp_parity",
                                   machine_config=MachineConfig.tiny(4),
                                   interval_ns=50_000, parity_group_size=3,
                                   log_bytes_per_node=64 * 1024)
    machine.attach_workload(get_workload("fft", scale=0.02, n_procs=4))
    machine.run()
    return suite.result_fingerprint(
        runner.collect_result(machine, "fft", "cp_parity"))


class TestInstrumentation:
    def test_traced_run_matches_untraced_and_reconciles(self):
        untraced = _tiny_run()
        recorder = tracing.SpanRecorder()
        instrumentation = tracing.Instrumentation(recorder)
        root = recorder.name_id("op")
        recorder.op_id = 0
        instrumentation.install()
        try:
            idx = recorder.open(root)
            traced = _tiny_run()
            recorder.close(idx)
        finally:
            instrumentation.uninstall()
        assert traced == untraced
        per_op = tracing.layer_self_times(recorder,
                                          instrumentation.layer_of)
        wall = tracing.root_durations(recorder)[0]
        assert sum(per_op[0].values()) == pytest.approx(wall, abs=1e-9)
        for layer in ("sim", "cpu", "coherence", "network", "core.revive",
                      "machine.build", "workloads"):
            assert per_op[0][layer] > 0, layer

    def test_uninstall_restores_every_original(self):
        import importlib

        originals = []
        for module_name, owner, attr, _layer in tracing.WRAPPED:
            module = importlib.import_module(module_name)
            target = getattr(module, owner) if owner else module
            originals.append((target, attr, target.__dict__[attr]))
        instrumentation = tracing.Instrumentation(tracing.SpanRecorder())
        instrumentation.install()
        instrumentation.uninstall()
        for target, attr, original in originals:
            assert target.__dict__[attr] is original


class TestProbe:
    def test_op_ids_count_failed_ops(self):
        probe = layers.Probe()
        with pytest.raises(RuntimeError):
            with probe.op():
                raise RuntimeError("op failed")
        with probe.op():
            pass
        assert sorted(tracing.root_durations(probe.recorder)) == [0, 1]

    def test_time_outside_every_wrapper_fails_the_check(self):
        probe = layers.Probe()
        with probe.op():
            _tiny_run()
        assert probe.reconcile() == []
        with probe.op():
            _tiny_run()
            time.sleep(0.2)
        problems = probe.reconcile()
        assert len(problems) == 1
        assert problems[0].startswith("traced op 1:")
        assert "outside every wrapped call" in problems[0]

