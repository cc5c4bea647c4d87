"""ReVive: rollback recovery for shared-memory multiprocessors.

A Python reproduction of Prvulovic, Zhang & Torrellas, "ReVive:
Cost-Effective Architectural Support for Rollback Recovery in
Shared-Memory Multiprocessors" (ISCA 2002).

Public API tour
---------------

Build and run a machine::

    from repro import MachineConfig, ReViveConfig, Machine, get_workload

    machine = Machine(MachineConfig.bench(),
                      ReViveConfig(checkpoint_interval_ns=250_000))
    machine.attach_workload(get_workload("ocean"))
    machine.run()

Or use the harness, which knows the paper's five configurations::

    from repro import run_app
    base = run_app("ocean", "baseline")
    cp = run_app("ocean", "cp_parity")
    print(cp.overhead_vs(base))

Inject a fault and recover::

    from repro import NodeLossFault, RecoveryManager
    NodeLossFault(3).apply(machine)
    result = RecoveryManager(machine).recover(
        detect_time=machine.simulator.now)

Observe a run (docs/OBSERVABILITY.md) — every harness entry point
(``run_app``, ``warm_machine``, ``run_sweep``, ``run_campaign``) takes
one ``observe=`` argument::

    from repro import Observe, run_app
    result = run_app("ocean", "cp_parity",
                     observe=Observe(trace="trace.jsonl",
                                     ledger="run.ledger.json",
                                     profile=True, digest=True))

A bare machine takes its tracer and profiler directly:
``Machine(config, revive_config, tracer=, profiler=)``.

Subpackages: ``repro.sim`` (event kernel), ``repro.machine``,
``repro.cpu``, ``repro.cache``, ``repro.coherence``, ``repro.memory``,
``repro.network`` (the substrates), ``repro.core`` (the ReVive
mechanisms), ``repro.workloads`` (Splash-2 analogs), ``repro.obs``
(tracing, metrics, profiling), and ``repro.harness`` (experiment
drivers for every table and figure).
"""

from repro.machine.config import MachineConfig

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "MachineConfig",
    "ReViveConfig",
    "Machine",
    "NodeLossFault",
    "TransientSystemFault",
    "RecoveryManager",
    "RecoveryResult",
    "get_workload",
    "APP_NAMES",
    "run_app",
    "Observe",
    "build_machine",
    "Tracer",
    "MetricsRegistry",
    "Profiler",
    "trace_enabled",
]

_LAZY = {
    "ReViveConfig": ("repro.core.config", "ReViveConfig"),
    "Machine": ("repro.machine.system", "Machine"),
    "NodeLossFault": ("repro.core.faults", "NodeLossFault"),
    "TransientSystemFault": ("repro.core.faults", "TransientSystemFault"),
    "RecoveryManager": ("repro.core.recovery", "RecoveryManager"),
    "RecoveryResult": ("repro.core.recovery", "RecoveryResult"),
    "get_workload": ("repro.workloads.registry", "get_workload"),
    "APP_NAMES": ("repro.workloads.registry", "APP_NAMES"),
    "run_app": ("repro.harness.runner", "run_app"),
    "Observe": ("repro.harness.observe", "Observe"),
    "build_machine": ("repro.harness.runner", "build_machine"),
    "Tracer": ("repro.obs.tracer", "Tracer"),
    "MetricsRegistry": ("repro.obs.metrics", "MetricsRegistry"),
    "Profiler": ("repro.obs.profiling", "Profiler"),
    "trace_enabled": ("repro.obs.tracer", "trace_enabled"),
}


def __getattr__(name):
    """Lazy exports: keep ``import repro`` light and cycle-free."""
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
