"""Single-simulation driver used by every benchmark and example.

The paper evaluates five system configurations (Section 6.1):

====================  =====================================================
``baseline``          no recovery support at all
``cp_parity``         ReVive, 7+1 parity, periodic checkpoints (Cp10ms)
``cpinf_parity``      ReVive, 7+1 parity, no periodic checkpoints (CpInf)
``cp_mirroring``      ReVive, mirroring, periodic checkpoints (Cp10msM)
``cpinf_mirroring``   ReVive, mirroring, no periodic checkpoints (CpInfM)
====================  =====================================================

The bench preset checkpoints every ``DEFAULT_INTERVAL_NS`` (the third
step of the scaling chain documented in DESIGN.md §2: the paper maps
100 ms on real 2 MB caches to 10 ms on its simulated 128 KB caches; we
map a further cache shrink onto a proportionally shorter interval).

Observability (docs/OBSERVABILITY.md for the schema): every entry
point takes one :class:`~repro.harness.observe.Observe` argument,
``observe=``, and :class:`~repro.harness.observe.Instruments` builds
the run's instruments from it.

* ``run_app(..., observe=Observe(trace=, trace_categories=, ledger=,
  profile=, digest=))`` writes the JSONL event trace (``sim.*``,
  ``coh.*``, ``log.*``, ``ckpt.*``, ``recovery.*``, ...), observes the
  run with the standard monitor suite and writes its ledger, fills
  ``RunResult.profile`` with the host-time report, and records the
  determinism chain into ``RunResult.digest``.  It closes the tracer
  and writes the ledger before it returns.
* ``build_machine(..., tracer=, profiler=)`` is the machine layer
  beneath: it threads a :class:`~repro.obs.tracer.Tracer` and/or
  :class:`~repro.obs.profiling.Profiler` into the assembled machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.config import ReViveConfig
from repro.harness.observe import Instruments, Observe
from repro.machine.config import MachineConfig
from repro.machine.system import Machine
from repro.obs.profiling import Profiler
from repro.obs.tracer import Tracer
from repro.workloads.registry import get_workload

#: Checkpoint interval of the bench preset (simulated ns).
DEFAULT_INTERVAL_NS = 250_000

#: Log region used by the bench harness.  Sized so that even Radix —
#: whose first-touch initialisation logs its entire 1 MB key array —
#: fits with margin, including the CpInf variants that never reclaim.
BENCH_LOG_BYTES = 2 * 1024 * 1024

VARIANTS = ("baseline", "cp_parity", "cpinf_parity", "cp_mirroring",
            "cpinf_mirroring")

#: Paper-facing labels (Figure 8's bar names).
VARIANT_LABELS = {
    "baseline": "Base",
    "cp_parity": "Cp10ms",
    "cpinf_parity": "CpInf",
    "cp_mirroring": "Cp10msM",
    "cpinf_mirroring": "CpInfM",
}


@dataclass
class RunResult:
    """Everything the figures need from one simulation."""

    app: str
    variant: str
    execution_time_ns: int
    total_refs: int
    l2_miss_rate: float
    network_traffic: Dict[str, int]
    memory_traffic: Dict[str, int]
    checkpoints: int
    max_log_bytes: int
    instructions: float
    counters: Dict[str, int] = field(default_factory=dict)
    #: Wall-clock profile when the run was profiled, else None — the
    #: :func:`repro.obs.telemetry.profile_snapshot` shape:
    #: ``{"schema", "components": [[name, self_s, cum_s, calls], ...],
    #:    "actors", "fallout", "events", "events_per_sec",
    #:    "total_wall_seconds"}``.
    profile: Optional[Dict] = None
    #: Determinism-observatory digest chain when the run was digested
    #: (``run_app(observe=Observe(digest=True))``), else None — the
    #: :meth:`repro.obs.digest.DigestChain.to_jsonable` shape:
    #: ``{"schema", "windows": [{"window", "epoch", "ts", "prev",
    #:    "components", "machine"}, ...]}``.  Unlike ``profile`` it is
    #: a pure function of deterministic simulation state, never of the
    #: host.
    digest: Optional[Dict] = None

    def overhead_vs(self, baseline: "RunResult") -> float:
        """Fractional slowdown relative to a baseline run."""
        if baseline.execution_time_ns <= 0:
            raise ValueError("baseline has no execution time")
        return (self.execution_time_ns / baseline.execution_time_ns) - 1.0


def tiny_revive_overrides(nodes: Optional[int],
                          variant: str = "cp_parity") -> Dict:
    """ReVive overrides of ``variant`` scaled down for a
    ``MachineConfig.tiny`` machine.

    A tiny machine has fewer nodes than the paper's 7+1 parity group
    and far less memory pressure than the bench preset assumes, so a
    parity variant's group shrinks to fit and the per-node log shrinks
    with it (64 KB).  A mirroring variant keeps its group of 1; its
    mirror takes half of each node's memory, so its log halves too
    (32 KB), or the smallest workloads would not fit.  Shared by the
    CLI (``--nodes``) and the simulation service so both produce the
    *same* run kwargs — and therefore the same config digests and cache
    keys — for the same request.  ``nodes=None`` (full bench machine)
    means no overrides.
    """
    if nodes is None:
        return {}
    if variant.endswith("mirroring"):
        return {"parity_group_size": 1, "log_bytes_per_node": 32 * 1024}
    return {"parity_group_size": min(7, nodes - 1),
            "log_bytes_per_node": 64 * 1024}


def revive_config_for(variant: str,
                      interval_ns: int = DEFAULT_INTERVAL_NS,
                      **overrides) -> Optional[ReViveConfig]:
    """The ReVive configuration of a named variant (None for baseline)."""
    if variant == "baseline":
        return None
    group = 1 if variant.endswith("mirroring") else 7
    interval = None if variant.startswith("cpinf") else interval_ns
    kwargs = dict(parity_group_size=group, checkpoint_interval_ns=interval,
                  log_bytes_per_node=BENCH_LOG_BYTES)
    kwargs.update(overrides)
    return ReViveConfig(**kwargs)


def build_machine(variant: str = "cp_parity",
                  machine_config: Optional[MachineConfig] = None,
                  interval_ns: int = DEFAULT_INTERVAL_NS,
                  tracer: Optional[Tracer] = None,
                  profiler: Optional[Profiler] = None,
                  **revive_overrides) -> Machine:
    """Assemble a machine for one of the five evaluated variants.

    ``tracer`` installs a trace sink into every instrumented component
    (the machine emits ``ckpt.*``/``recovery.*``, its simulator
    ``sim.*``, directories ``coh.*``, and logs ``log.*`` events);
    ``profiler`` enables wall-clock profiling of the run loop.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; "
                         f"choose from {VARIANTS}")
    config = machine_config or MachineConfig.bench()
    return Machine(config,
                   revive_config_for(variant, interval_ns,
                                     **revive_overrides),
                   tracer=tracer, profiler=profiler)


def run_app(app: str, variant: str = "baseline",
            machine_config: Optional[MachineConfig] = None,
            scale: float = 1.0, n_procs: int = 16,
            interval_ns: int = DEFAULT_INTERVAL_NS,
            until: Optional[int] = None,
            observe: Observe = Observe(),
            **revive_overrides) -> RunResult:
    """Run one application analog on one machine variant to completion.

    ``observe`` says how the run is observed (see the module docstring
    and docs/OBSERVABILITY.md); the trace and ledger are complete when
    this returns.  With ``observe.digest`` the determinism-observatory
    chain — window 0 (the initial state) plus one window per checkpoint
    boundary — lands in ``RunResult.digest``; like profiles, digests
    are observations and never perturb the simulation.
    """
    run_kwargs = dict(scale=scale, n_procs=n_procs, interval_ns=interval_ns,
                      machine_config=machine_config, **revive_overrides)
    instruments = Instruments(observe, app, variant, run_kwargs)
    machine = build_machine(variant, machine_config, interval_ns,
                            tracer=instruments.tracer,
                            profiler=instruments.profiler,
                            **revive_overrides)
    machine.attach_workload(get_workload(app, scale=scale, n_procs=n_procs))
    machine.install_digests(instruments.digests)
    machine.record_digest(ts=0)
    machine.run(until=until)
    result = collect_result(machine, app, variant)
    instruments.close(result)
    return result


def collect_result(machine: Machine, app: str, variant: str) -> RunResult:
    """Extract a :class:`RunResult` from a finished (or paused) machine."""
    hits = misses = 0
    for node in machine.nodes:
        hits += node.hierarchy.l2.hits
        misses += node.hierarchy.l2.misses
    lookups = hits + misses
    refs = machine.total_mem_refs()
    ipr = machine.workload.instructions_per_ref if machine.workload else 0.0
    return RunResult(
        app=app,
        variant=variant,
        execution_time_ns=machine.steady_execution_time,
        total_refs=refs,
        l2_miss_rate=(misses / lookups) if lookups else 0.0,
        network_traffic=machine.stats.network_traffic.as_dict(),
        memory_traffic=machine.stats.memory_traffic.as_dict(),
        checkpoints=(machine.checkpointing.checkpoints_committed
                     if machine.checkpointing else 0),
        max_log_bytes=(machine.revive.max_log_bytes()
                       if machine.revive else 0),
        instructions=refs * ipr,
        counters=machine.stats.snapshot(),
        profile=profile_summary(machine.profiler),
        digest=(machine.digests.chain.to_jsonable()
                if machine.digests is not None else None),
    )


def profile_summary(profiler: Optional[Profiler]) -> Optional[Dict]:
    """The ``RunResult.profile`` dict for a profiler (None when off).

    The shape is :func:`repro.obs.telemetry.profile_snapshot` —
    components with self/cumulative seconds, per-actor host-time
    attribution, and per-node tier fallout (docs/OBSERVABILITY.md).
    """
    if profiler is None:
        return None
    from repro.obs.telemetry import profile_snapshot

    return profile_snapshot(profiler)
