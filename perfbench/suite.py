"""The benchmark's four workloads, their seeded inputs and output checks.

Each workload is an object with the same four steps:

* ``prepare(seed, scratch)`` makes the inputs from the seed and does the
  set-up a user of the simulator pays once (for ``recovery``: building
  the warm image and publishing it to a result store under ``scratch``).
  The runner repeats it to time set-up, so it must be idempotent.
* ``verify_setup()`` computes what the checks compare with (the cold
  replays of ``recovery``).  It runs once, after the first set-up, and
  is not part of set-up time.
* ``run_op(index)`` is one timed operation on input ``index`` of the
  workload's ``inputs``; it returns an :class:`Outcome` whose
  fingerprint must be equal for every op on that input.
* ``check(outcome)`` runs the expensive correctness checks (machine
  invariants, parity scan, cold-replay oracle) outside the timed region.

Why these four (host self-time shares measured by the traced run):

* ``hits``     -- water-sp baseline: the columnar L1/L2 hit path (cpu)
  dominates; the bypass case for protocol and ReVive changes.
* ``misses``   -- ocean baseline: compulsory and capacity misses make the
  directory protocol (coherence) dominate; no ReVive work at all.
* ``revive``   -- fft cp_parity at a 25 us interval: logged writes and
  parity updates (core.revive) dominate; where cp_parity loses refs/s.
* ``recovery`` -- a forked fault campaign (core.recovery dominates); the
  only workload that drives harness.campaign and harness.store, and the
  bypass case for every simulation-layer change.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import shutil
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness import campaign, runner
from repro.harness.store import SNAPSHOT_ARTIFACT, ResultStore
from repro.machine.config import MachineConfig
from repro.machine.system import Machine
from repro.workloads.registry import get_workload
from repro.workloads.synthetic import SyntheticWorkload

#: Seed used when none is given; its fingerprints are recorded in
#: ``fingerprints.json``.
DEFAULT_SEED = 1

#: Seed kept out of all tuning, for confirming a later claim.
HELD_OUT_SEED = 20021

FINGERPRINTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "fingerprints.json")


def result_fingerprint(result: runner.RunResult) -> str:
    """sha256 over every simulated statistic of one run."""
    return _sha256({
        "execution_time_ns": result.execution_time_ns,
        "total_refs": result.total_refs,
        "counters": result.counters,
        "network_traffic": result.network_traffic,
        "memory_traffic": result.memory_traffic,
        "checkpoints": result.checkpoints,
        "max_log_bytes": result.max_log_bytes,
    })


def outcomes_fingerprint(outcomes: Sequence[Dict]) -> str:
    """sha256 over a campaign's scenario outcomes, in scenario order."""
    return _sha256(list(outcomes))


def _sha256(value) -> str:
    data = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def recorded_fingerprints() -> Dict[str, List[str]]:
    """The fingerprints of :data:`DEFAULT_SEED`'s inputs, by workload."""
    with open(FINGERPRINTS_FILE, "r", encoding="utf-8") as handle:
        recorded = json.load(handle)
    if recorded.get("seed") != DEFAULT_SEED:
        raise ValueError(f"{FINGERPRINTS_FILE} records seed "
                         f"{recorded.get('seed')}, not {DEFAULT_SEED}")
    return recorded["workloads"]


@dataclass
class Outcome:
    """What one op produced."""

    fingerprint: str
    #: Simulated references the op delivers: ``RunResult.total_refs``
    #: for a simulation; for a campaign, the references of the warm
    #: image each forked scenario resumes from, times the scenarios.
    #: (The exhibit's detection windows lie inside the warm-up, so a
    #: forked scenario simulates no references of its own.)
    refs: int
    #: Scenarios completed: 1 per simulation, the grid size per campaign.
    scenarios: int
    machine: Optional[Machine] = None
    result: object = None


#: Inputs a simulation workload draws from its seed.  Ops rotate over
#: them, so a run measures the mean over several inputs: the simulated
#: work of one fft draw differs from another's by up to 27% (execution
#: time, and with it one checkpoint more or less).
SIMULATION_INPUTS = 4


class Simulation:
    """One whole simulation per op: build, attach, run, collect."""

    n_inputs = SIMULATION_INPUTS

    def __init__(self, name: str, app: str, variant: str, scale: float,
                 interval_ns: int = runner.DEFAULT_INTERVAL_NS,
                 check_parity: bool = False) -> None:
        self.name = name
        self.app = app
        self.variant = variant
        self.scale = scale
        self.interval_ns = interval_ns
        self.check_parity = check_parity
        self.inputs: List[SyntheticWorkload] = []

    def prepare(self, seed: int, scratch: str) -> None:
        spec = get_workload(self.app, scale=self.scale).spec
        self.inputs = [SyntheticWorkload(replace(spec, seed=input_seed))
                       for input_seed in draw_input_seeds(seed)]

    def verify_setup(self) -> None:
        pass

    def run_op(self, index: int) -> Outcome:
        """Simulate input ``index`` of :attr:`inputs`."""
        machine = runner.build_machine(
            self.variant, machine_config=MachineConfig.bench(),
            interval_ns=self.interval_ns)
        machine.attach_workload(self.inputs[index])
        machine.run()
        result = runner.collect_result(machine, self.app, self.variant)
        return Outcome(result_fingerprint(result), result.total_refs, 1,
                       machine, result)

    def check(self, outcome: Outcome) -> List[str]:
        problems = list(outcome.machine.check_invariants())
        if self.check_parity:
            broken = outcome.machine.revive.parity.check_all_parity()
            problems += [f"parity stripe {stripe} broken"
                         for stripe in broken]
        return problems


#: The ``harness/perf.py`` campaign exhibit: fft cp_parity on a tiny
#: 4-node machine, warmed to six committed checkpoints.
CAMPAIGN_KWARGS = dict(scale=0.05, n_procs=4, interval_ns=50_000,
                       warm_checkpoints=6, serial=True,
                       parity_group_size=3, log_bytes_per_node=64 * 1024)


def draw_grid(seed: int) -> Tuple[Tuple[Optional[int], ...],
                                  Tuple[float, ...],
                                  Tuple[int, ...]]:
    """The seed's fault-grid slice and its cold-replay oracle subset.

    The slice is one lost node plus the memory-intact transient fault,
    times three detection fractions ``f, 0.5, 1 - f``.  Every detection
    time lies inside the horizon the warm image already simulated, so
    no scenario simulates anything: each restores the image and
    recovers.  The fractions always sum to 1.5 intervals, so the total
    rollback distance of a seed's grid is the same for every seed.
    Returns ``(lost_nodes, detect_fractions, oracle_indices)``, the
    indices being positions in the campaign's scenario order.
    """
    rng = random.Random(seed)
    lost = rng.choice((1, 2, 3))
    low = round(rng.uniform(0.1, 0.4), 3)
    fractions = (low, 0.5, round(1.0 - low, 3))
    oracle = tuple(sorted(rng.sample(range(2 * len(fractions)), 2)))
    return (None, lost), fractions, oracle


def draw_input_seeds(seed: int) -> List[int]:
    """The spec seeds of a simulation workload's inputs."""
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in range(SIMULATION_INPUTS)]


class Recovery:
    """One forked fault campaign per op, served from a warm image.

    There is one input: every seed's grid restores the same image six
    times and rolls back the same total distance (:func:`draw_grid`).
    """

    name = "recovery"
    n_inputs = 1
    app = "fft"
    variant = "cp_parity"

    def __init__(self) -> None:
        self.store: Optional[str] = None
        self.lost_nodes: Tuple[Optional[int], ...] = ()
        self.fractions: Tuple[float, ...] = ()
        self.oracle_indices: Tuple[int, ...] = ()
        self.oracle: Dict[int, Dict] = {}
        self.image_key = ""
        self.image_refs = 0

    def _campaign(self, **kwargs) -> campaign.CampaignResult:
        return campaign.run_campaign(
            self.app, self.variant, machine_config=MachineConfig.tiny(4),
            **CAMPAIGN_KWARGS, **kwargs)

    def prepare(self, seed: int, scratch: str) -> None:
        self.lost_nodes, self.fractions, self.oracle_indices = \
            draw_grid(seed)
        self.store = os.path.join(scratch, "store")
        shutil.rmtree(self.store, ignore_errors=True)
        # An empty grid builds the warm image and publishes it only.
        published = self._campaign(lost_nodes=(), cache_dir=self.store)
        if published.images[0]["cached"]:
            raise RuntimeError("fresh store served a cached image")
        self.image_key = published.images[0]["key"]

    def verify_setup(self) -> None:
        """Read the image's reference count and replay the oracle
        subset cold."""
        entry = ResultStore(self.store).get(self.image_key)
        image = pickle.loads(entry.read_artifact(SNAPSHOT_ARTIFACT))
        self.image_refs = sum(proc["mem_refs"]
                              for proc in image["processors"])
        scenarios = campaign.campaign_scenarios(self.lost_nodes,
                                                self.fractions)
        for index in self.oracle_indices:
            scenario = scenarios[index]
            cold = self._campaign(lost_nodes=(scenario["lost_node"],),
                                  detect_fractions=(
                                      scenario["detect_fraction"],),
                                  cold=True)
            self.oracle[index] = cold.outcomes[0]

    def run_op(self, index: int) -> Outcome:
        result = self._campaign(lost_nodes=self.lost_nodes,
                                detect_fractions=self.fractions,
                                cache_dir=self.store)
        return Outcome(outcomes_fingerprint(result.outcomes),
                       self.image_refs * len(result.outcomes),
                       len(result.outcomes), None, result)

    def check(self, outcome: Outcome) -> List[str]:
        result = outcome.result
        problems = []
        if not all(image["cached"] for image in result.images):
            problems.append("warm image not served from the store")
        for index, cold in self.oracle.items():
            if result.outcomes[index] != cold:
                problems.append(f"scenario {index} differs from its "
                                f"cold replay")
        return problems


#: Constructor arguments of each simulation workload.
SIMULATIONS: Dict[str, Dict] = {
    "hits": dict(app="water-sp", variant="baseline", scale=0.1),
    "misses": dict(app="ocean", variant="baseline", scale=0.05),
    "revive": dict(app="fft", variant="cp_parity", scale=0.05,
                   interval_ns=25_000, check_parity=True),
}

WORKLOAD_NAMES = tuple(SIMULATIONS) + ("recovery",)


def make_workload(name: str):
    """A fresh instance of the named workload."""
    if name == "recovery":
        return Recovery()
    return Simulation(name, **SIMULATIONS[name])
