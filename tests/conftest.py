"""Shared test fixtures: small machines and a deterministic toy workload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ReViveConfig
from repro.machine.config import MachineConfig
from repro.machine.system import Machine
from repro.obs.profiling import Profiler
from repro.obs.tracer import RingBufferSink, Tracer
from repro.sim.engine import Simulator


class ToyWorkload:
    """Small deterministic workload for integration tests.

    Each processor mixes private accesses with a shared region, in
    ``rounds`` barrier-delimited phases, with a warmup/first-touch
    phase like the real generators.
    """

    instructions_per_ref = 2.0

    def __init__(self, n_procs: int = 4, rounds: int = 3,
                 refs_per_round: int = 2000, write_fraction: float = 0.3,
                 private_lines: int = 512, shared_lines: int = 256,
                 seed: int = 0) -> None:
        self.n_procs = n_procs
        self.rounds = rounds
        self.refs_per_round = refs_per_round
        self.write_fraction = write_fraction
        self.private_lines = private_lines
        self.shared_lines = shared_lines
        self.seed = seed

    def stream_for(self, proc_id: int):
        rng = np.random.default_rng((self.seed, proc_id))
        # First touch: own private region + own shared shard.
        shard = self.shared_lines // self.n_procs
        private_base = (proc_id + 1) << 24
        shared_base = 1 << 32
        touch = np.concatenate([
            private_base + np.arange(self.private_lines) * 64,
            shared_base + (proc_id * shard + np.arange(shard)) * 64,
        ])
        yield ("ops", np.ones(len(touch), dtype=np.int64), touch,
               np.ones(len(touch), dtype=bool))
        yield ("barrier",)
        yield ("warmup_done",)
        for _round in range(self.rounds):
            n = self.refs_per_round
            addrs = private_base + rng.integers(
                0, self.private_lines, n) * 64
            shared_mask = rng.random(n) < 0.25
            addrs[shared_mask] = shared_base + rng.integers(
                0, self.shared_lines, int(shared_mask.sum())) * 64
            writes = rng.random(n) < self.write_fraction
            gaps = rng.integers(1, 4, n)
            yield ("ops", gaps, addrs, writes)
            yield ("barrier",)


def tiny_revive_config(**overrides) -> ReViveConfig:
    defaults = dict(parity_group_size=3, checkpoint_interval_ns=50_000,
                    log_bytes_per_node=64 * 1024, debug_snapshots=True)
    defaults.update(overrides)
    return ReViveConfig(**defaults)


def build_tiny_machine(n_nodes: int = 4, revive: bool = True,
                       **revive_overrides) -> Machine:
    config = MachineConfig.tiny(n_nodes)
    revive_config = tiny_revive_config(**revive_overrides) if revive else None
    return Machine(config, revive_config)


@pytest.fixture
def tiny_machine() -> Machine:
    return build_tiny_machine()


@pytest.fixture
def baseline_machine() -> Machine:
    return build_tiny_machine(revive=False)


@pytest.fixture
def toy_workload() -> ToyWorkload:
    return ToyWorkload()


def run_toy(machine: Machine, workload: ToyWorkload = None,
            until: int = None) -> Machine:
    machine.attach_workload(workload or ToyWorkload())
    machine.run(until=until)
    return machine


#: Engine observation modes: which of ``host_prof`` / ``digest_hook``
#: a simulator carries.  Observation must never change the run.
OBSERVATION_MODES = ("none", "host_prof", "digest_hook", "both")


def _observed_simulator(mode: str):
    """A fresh traced ``(simulator, profiler, digest calls)`` in ``mode``."""
    sim = Simulator()
    sim.tracer = Tracer(RingBufferSink(), categories={"sim"})
    prof = digests = None
    if mode in ("host_prof", "both"):
        prof = sim.host_prof = Profiler()
    if mode in ("digest_hook", "both"):
        digests = []
        sim.digest_hook = lambda: digests.append(sim.now)
    return sim, prof, digests


def run_in_observation_modes(scenario) -> None:
    """Run ``scenario(sim)`` on a fresh simulator in every mode.

    Every observed run's ``(now, activations, sim.* events)`` must
    equal the unobserved run's; the digest hook must fire once per
    activation; the profiler's attributed activations must sum to
    ``activations``, with every attributed actor labelled.
    """
    records = {}
    for mode in OBSERVATION_MODES:
        sim, prof, digests = _observed_simulator(mode)
        scenario(sim)
        if prof is not None:
            assert sum(cell[1] for cell in prof.actors.values()) \
                == sim.activations, mode
            assert set(prof.actor_meta) == set(prof.actors), mode
        if digests is not None:
            assert len(digests) == sim.activations, mode
        records[mode] = (sim.now, sim.activations,
                         sim.tracer.sink.events())
        assert records[mode] == records["none"], mode
