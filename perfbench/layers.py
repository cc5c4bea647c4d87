"""Per-layer metrics of the traced run.

:class:`Probe` owns the span recorder and the wrappers of
``tracing.py``, opens one root span per traced op, and tallies the work
each layer did during it: call counts from the spans, simulated counts
from the machines the op built.  :meth:`Probe.metrics` turns these into
the ``per_layer`` metrics of ``BENCHMARK.json``, each a mean per traced
op.  :meth:`Probe.reconcile` checks every op's attribution: its layer
self times must sum to its wall time, and the share of that time no
wrapped call covers (the ``bench`` layer) must stay small, so a call
that escapes its wrapper shows as a failed check.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from typing import Dict, List

import numpy as np
import tracing
from repro.harness import campaign, runner
from repro.machine.system import Machine

#: Coherence transaction counters reported per op.
TXN_KINDS = ("read_miss", "write_miss", "upgrade", "writeback",
             "invalidation")

#: Memory traffic categories reported per op (``/`` is not allowed in
#: a metric name, so ``RD/RDX`` is reported as ``RD-RDX``).
TRAFFIC_KINDS = ("RD/RDX", "ExeWB", "CkpWB", "LOG", "PAR")

#: Largest difference allowed between an op's summed self times and its
#: root span (float rounding over many spans).
RECONCILE_TOLERANCE_S = 1e-6

#: Largest share of an op's wall time allowed outside every wrapped
#: call.  Measured: 0.01-0.11% (result collection and fingerprinting).
MAX_UNCOVERED_SHARE = 0.01


def _run_totals(machine: Machine) -> np.ndarray:
    logs = machine.revive.logs.values() if machine.revive else ()
    return np.array([machine.simulator.activations,
                     machine.total_mem_refs(),
                     sum(log.appends for log in logs)], dtype=np.int64)


class Tally:
    """Simulated work done during one traced op."""

    def __init__(self) -> None:
        self.machines: List[Machine] = []
        #: activations, references and log appends inside Machine.run.
        self.run_work = np.zeros(3, dtype=np.int64)
        self._open: List[np.ndarray] = []
        self.counts: Dict[str, float] = {}

    # -- hooks --------------------------------------------------------------

    def built(self, machine, *args) -> None:
        self.machines.append(machine)

    def run_started(self, machine, *args) -> None:
        self._open.append(_run_totals(machine))

    def run_ended(self, _final, machine, *args) -> None:
        self.run_work += _run_totals(machine) - self._open.pop()

    def warmup_started(self, machine) -> None:
        self._open.append(_run_totals(machine))

    def warmup_ended(self, _none, machine) -> None:
        # The warm-up reset zeroes the per-processor reference counts;
        # credit the references it erased back to the op.
        self.run_work += self._open.pop() - _run_totals(machine)

    # -- end of op ------------------------------------------------------------

    def finish(self) -> None:
        """Read the simulated counts off the op's machines, then drop them."""
        counts: Dict[str, float] = dict.fromkeys(
            [f"txn.{kind}" for kind in TXN_KINDS]
            + [f"traffic.{kind}" for kind in TRAFFIC_KINDS]
            + ["l1_hits", "l1_misses", "l2_hits", "l2_misses",
               "dirty_lines", "max_log_bytes"], 0)
        for machine in self.machines:
            counters = machine.stats.snapshot()
            for kind in TXN_KINDS:
                counts[f"txn.{kind}"] += counters.get(f"txn.{kind}", 0)
            counts["dirty_lines"] += counters.get(
                "ckpt.dirty_lines_flushed", 0)
            traffic = machine.stats.memory_traffic.as_dict()
            for kind in TRAFFIC_KINDS:
                counts[f"traffic.{kind}"] += traffic.get(kind, 0)
            for node in machine.nodes:
                for level in ("l1", "l2"):
                    cache = getattr(node.hierarchy, level)
                    counts[f"{level}_hits"] += cache.hits
                    counts[f"{level}_misses"] += cache.misses
            if machine.revive is not None:
                counts["max_log_bytes"] = max(counts["max_log_bytes"],
                                              machine.revive.max_log_bytes())
        self.counts = counts
        self.machines = []


class Probe:
    """Traced ops: spans per layer plus the work counts beside them."""

    def __init__(self) -> None:
        self.recorder = tracing.SpanRecorder()
        self.instrumentation = tracing.Instrumentation(self.recorder)
        self._root = self.recorder.name_id("op")
        self.tallies: List[Tally] = []
        self._tally = Tally()
        hook = self.instrumentation.add_hook
        relay = self._relay
        for module in (runner, campaign):
            hook(module, "build_machine", after=relay("built"))
        hook(Machine, "run", before=relay("run_started"),
             after=relay("run_ended"))
        hook(Machine, "note_warmup_done", before=relay("warmup_started"),
             after=relay("warmup_ended"))

    def _relay(self, method: str):
        def call(*args):
            getattr(self._tally, method)(*args)
        return call

    @contextmanager
    def op(self):
        """Trace one op as root span ``op``; ops are numbered in order,
        failed ones included."""
        self._tally = Tally()
        self.recorder.op_id = len(self.tallies)
        self.instrumentation.install()
        idx = self.recorder.open(self._root)
        try:
            yield
        finally:
            self.recorder.close(idx)
            self.instrumentation.uninstall()
            self.recorder.op_id = -1
            self._tally.finish()
            self.tallies.append(self._tally)

    def op_seconds(self) -> List[float]:
        return list(tracing.root_durations(self.recorder).values())

    def _self_times(self) -> Dict[int, Dict[str, float]]:
        return tracing.layer_self_times(self.recorder,
                                        self.instrumentation.layer_of)

    def reconcile(self) -> List[str]:
        """Problems with an op's attribution: self times that do not sum
        to its wall time, or too much of it outside every wrapped call."""
        walls = tracing.root_durations(self.recorder)
        problems = []
        for op_id, layers in self._self_times().items():
            gap = sum(layers.values()) - walls[op_id]
            if abs(gap) > RECONCILE_TOLERANCE_S:
                problems.append(f"traced op {op_id}: layer self times "
                                f"miss its wall time by {gap:.3g} s")
            uncovered = layers[tracing.ROOT] / walls[op_id]
            if uncovered > MAX_UNCOVERED_SHARE:
                problems.append(f"traced op {op_id}: {uncovered:.2%} of its "
                                f"wall time is outside every wrapped call")
        return problems

    def _calls(self) -> Dict[str, float]:
        """Mean calls per traced op, by layer-qualified call kind."""
        cols = self.recorder.columns()
        per_name = np.bincount(cols["name"][cols["op"] >= 0],
                               minlength=len(self.recorder.names))
        by_name = dict(zip(self.recorder.names, per_name.tolist()))
        n_ops = len(self.tallies)

        def mean(*names):
            return sum(by_name.get(name, 0) for name in names) / n_ops

        return {
            "cpu": mean("Processor.__call__"),
            "coherence": mean("ProtocolEngine.read", "ProtocolEngine.write",
                              "ProtocolEngine.writeback"),
            "network": mean("Network.send"),
            "core.revive": mean("ReViveController.on_store_intent",
                                "ReViveController.on_memory_write"),
            "core.checkpoint": mean("CheckpointCoordinator.run_checkpoint"),
            "core.recovery": mean("RecoveryManager.recover"),
            "machine.restore": mean("Machine.restore"),
            "harness.store": mean("ResultStore.get"),
            "workloads": mean("SyntheticWorkload.stream_for"),
        }

    def mean_self_s(self) -> Dict[str, float]:
        per_op = self._self_times()
        total = tracing.sum_layers(per_op.values())
        return {layer: seconds / len(per_op)
                for layer, seconds in total.items()}

    def share_table(self) -> List[str]:
        shares = tracing.shares(self.mean_self_s())
        ranked = sorted(shares.items(), key=lambda item: -item[1])
        return [f"self-time share {layer:<18} {share:7.2%}"
                for layer, share in ranked]

    def metrics(self, outcomes, untraced_op_s: float,
                traced_op_s: float) -> Dict[str, Dict]:
        """The per-layer metrics; the op times give the tracing overhead.

        ``outcomes`` are the successful traced ops.  What a campaign
        returns (its scenarios' recovery counts, the store hits of its
        warm images) is read from them.
        """
        n_ops = len(self.tallies)
        self_s = self.mean_self_s()
        calls = self._calls()

        def mean(values) -> float:
            return sum(values) / n_ops

        counts = {key: mean(t.counts[key] for t in self.tallies)
                  for key in self.tallies[0].counts}
        activations, refs, appends = (
            sum(t.run_work for t in self.tallies) / n_ops).tolist()
        results = [outcome.result for outcome in outcomes]

        def per_outcome(value) -> float:
            return statistics.mean(value(result) for result in results)

        def scenario_sum(key: str):
            return lambda result: sum(
                scenario[key] for scenario in getattr(result, "outcomes", ()))

        store_hits = per_outcome(lambda result: sum(
            image["cached"] for image in getattr(result, "images", ())))
        image_bytes = per_outcome(
            lambda result: getattr(result, "image_bytes", 0))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def miss_ratio(level: str) -> float:
            return ratio(counts[f"{level}_misses"],
                         counts[f"{level}_hits"] + counts[f"{level}_misses"])

        values = {
            ("bench.self_s", "s"): self_s[tracing.ROOT],
            ("sim.self_s", "s"): self_s["sim"],
            ("sim.activations", "count"): activations,
            ("sim.host_us_per_activation", "us"):
                ratio(self_s["sim"], activations) * 1e6,
            ("cpu.self_s", "s"): self_s["cpu"],
            ("cpu.calls", "count"): calls["cpu"],
            ("cpu.fallout_ratio", "ratio"): ratio(calls["coherence"], refs),
            ("cache.l1_miss_ratio", "ratio"): miss_ratio("l1"),
            ("cache.l2_miss_ratio", "ratio"): miss_ratio("l2"),
            ("workloads.self_s", "s"): self_s["workloads"],
            ("workloads.chunks", "count"): calls["workloads"],
            ("coherence.self_s", "s"): self_s["coherence"],
            ("coherence.calls", "count"): calls["coherence"],
            ("coherence.us_per_call", "us"):
                ratio(self_s["coherence"], calls["coherence"]) * 1e6,
            ("network.self_s", "s"): self_s["network"],
            ("network.sends", "count"): calls["network"],
            ("network.us_per_send", "us"):
                ratio(self_s["network"], calls["network"]) * 1e6,
            ("core.revive.self_s", "s"): self_s["core.revive"],
            ("core.revive.calls", "count"): calls["core.revive"],
            ("core.revive.log_append_ratio", "ratio"):
                ratio(appends, calls["core.revive"]),
            ("core.log.max_bytes", "bytes"): counts["max_log_bytes"],
            ("core.checkpoint.self_s", "s"): self_s["core.checkpoint"],
            ("core.checkpoint.calls", "count"): calls["core.checkpoint"],
            ("core.checkpoint.dirty_lines", "count"): counts["dirty_lines"],
            ("core.recovery.self_s", "s"): self_s["core.recovery"],
            ("core.recovery.calls", "count"): calls["core.recovery"],
            ("core.recovery.entries_undone", "count"):
                per_outcome(scenario_sum("entries_undone")),
            ("core.recovery.log_lines_rebuilt", "count"):
                per_outcome(scenario_sum("log_lines_rebuilt")),
            ("machine.build.self_s", "s"): self_s["machine.build"],
            ("machine.restore.self_s", "s"): self_s["machine.restore"],
            ("machine.restore.calls", "count"): calls["machine.restore"],
            ("machine.image_bytes", "bytes"): image_bytes,
            ("harness.campaign.self_s", "s"): self_s["harness.campaign"],
            ("harness.store.self_s", "s"): self_s["harness.store"],
            ("harness.store.lookups", "count"): calls["harness.store"],
            ("harness.store.hit_ratio", "ratio"):
                ratio(store_hits, calls["harness.store"]),
            ("trace.overhead_pct", "%"):
                (traced_op_s / untraced_op_s - 1.0) * 100.0,
        }
        for kind in TXN_KINDS:
            values[(f"coherence.txn.{kind}", "count")] = counts[f"txn.{kind}"]
        for kind in TRAFFIC_KINDS:
            name = f"memory.traffic.{kind.replace('/', '-')}"
            values[(name, "bytes")] = counts[f"traffic.{kind}"]
        return {name: {"value": value, "unit": unit}
                for (name, unit), value in values.items()}
