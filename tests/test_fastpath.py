"""Columnar tier vs reference loop: behavioural equivalence.

``Processor._run_batch`` hands each activation to the columnar batch
engine (``repro.cpu.columnar``); the original layered loop is kept as
``_run_batch_reference`` and selected by clearing a processor's
``columnar`` flag.  These tests run the same workload through both and
require *bit-identical* machines afterwards: times, reference counts,
every cache counter, memory contents, logs and checkpoint history.
Any divergence is a columnar-engine bug by definition.
"""

import pytest

from conftest import ToyWorkload, build_tiny_machine

from repro.cpu.processor import Processor
from repro.machine.config import MachineConfig
from repro.machine.system import Machine


def _run(columnar: bool, revive: bool = True, rounds: int = 4,
         **revive_overrides):
    machine = build_tiny_machine(revive=revive, **revive_overrides)
    machine.attach_workload(ToyWorkload(rounds=rounds))
    for proc in machine.processors:
        proc.columnar = columnar
    machine.run()
    return machine


def _fingerprint(machine):
    """Everything observable that the two paths must agree on."""
    fp = {
        "times": [p.time for p in machine.processors],
        "finish": [p.finish_time for p in machine.processors],
        "refs": [p.mem_refs for p in machine.processors],
        "activations": machine.simulator.activations,
        "now": machine.simulator.now,
        "store_counter": machine._store_counter,
        "memory": [dict(n.memory._lines) for n in machine.nodes],
        "l1": [(n.hierarchy.l1.hits, n.hierarchy.l1.misses)
               for n in machine.nodes],
        "l2": [(n.hierarchy.l2.hits, n.hierarchy.l2.misses)
               for n in machine.nodes],
        "silent": [n.hierarchy.silent_upgrades for n in machine.nodes],
        "l2_lines": [sorted((line.addr, line.state, line.value)
                            for line in n.hierarchy.l2.resident_lines())
                     for n in machine.nodes],
    }
    if machine.revive is not None:
        fp["log_bytes"] = {n: log.bytes_used
                           for n, log in machine.revive.logs.items()}
        fp["checkpoints"] = machine.checkpointing.checkpoints_committed
        fp["commit_times"] = list(machine.checkpointing.commit_times)
    return fp


class TestEquivalence:
    @pytest.mark.parametrize("revive", [False, True])
    def test_bit_identical_machines(self, revive):
        fast = _run(True, revive=revive)
        slow = _run(False, revive=revive)
        assert all(p.columnar for p in fast.processors)
        assert not any(p.columnar for p in slow.processors)
        assert _fingerprint(fast) == _fingerprint(slow)

    def test_bit_identical_under_mirroring(self):
        fast = _run(True, parity_group_size=1)
        slow = _run(False, parity_group_size=1)
        assert _fingerprint(fast) == _fingerprint(slow)

    def test_snapshots_identical(self):
        fast = _run(True)
        slow = _run(False)
        assert fast.snapshots.keys() == slow.snapshots.keys()
        assert fast.snapshots == slow.snapshots


class TestFallback:
    """The columnar engine binds on every validated geometry."""

    def test_fastpath_binding_is_lazy_and_cached(self):
        # Every validated geometry (MachineConfig rejects
        # non-power-of-two line sizes) inlines the columnar set
        # indexing, so no preset demotes a processor to another tier.
        for preset in (MachineConfig.tiny, MachineConfig.bench,
                       MachineConfig):
            config = preset()
            machine = Machine(config)
            machine.attach_workload(ToyWorkload(
                n_procs=config.n_nodes, rounds=1, refs_per_round=200))
            assert all(p._columnar_fn is None
                       for p in machine.processors)
            machine.run()
            assert all(p.columnar and p._columnar_fn is not None
                       for p in machine.processors), preset.__name__

    def test_processor_slots(self):
        machine = build_tiny_machine()
        machine.attach_workload(ToyWorkload(rounds=1))
        proc = machine.processors[0]
        assert isinstance(proc, Processor)
        with pytest.raises(AttributeError):
            proc.no_such_attribute = 1
