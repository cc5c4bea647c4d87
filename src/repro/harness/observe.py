"""How a run is observed, and the one place that builds its instruments.

The digest chains and bit-identity oracles only hold if observing a
run never changes it.  So observation reaches ``run_app``,
``warm_machine``, ``run_sweep``, ``run_campaign`` and the simulation
service as one frozen :class:`Observe` value, kept beside a run's
kwargs, where cache keys and config digests cannot see it.
:class:`Instruments` builds a run's tracer, monitor suite, profiler
and digest recorder from it (importing each lazily) and closes them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Observe:
    """How a run is observed — never part of what it computes.

    ``trace`` is the JSONL trace path of one run (or of a campaign's
    ``snap.*`` events), filtered to ``trace_categories``; sweeps and
    the service read it as a directory (:meth:`cell`).  ``ledger``
    adds the standard monitors and their manifest; ``profile`` a
    host-time profiler; ``digest`` the determinism chain.
    """

    trace: Optional[str] = None
    trace_categories: Optional[Sequence[str]] = None
    ledger: Optional[str] = None
    profile: bool = False
    digest: bool = False

    def __post_init__(self) -> None:
        if self.trace_categories is not None:
            object.__setattr__(self, "trace_categories",
                               tuple(self.trace_categories))

    def cell(self, app: str, variant: str) -> "Observe":
        """One cell's ``Observe`` when ``trace`` is a directory: it
        writes ``<app>__<variant>.jsonl`` and ``.ledger.json`` there."""
        if self.trace is None:
            return Observe(profile=self.profile, digest=self.digest)
        base = os.path.join(self.trace, f"{app}__{variant}")
        return replace(self, trace=base + ".jsonl",
                       ledger=base + ".ledger.json")


class Instruments:
    """A run's tracer, monitor suite, profiler and digest recorder,
    built from ``observe`` for ``app`` on ``variant`` with ``run_app``
    kwargs ``run_kwargs`` (which size the monitors and go into the
    ledger); None where an instrument is off.  The monitors sit
    between the tracer and the trace file and see what the file gets.
    """

    def __init__(self, observe: Observe, app: str = "", variant: str = "",
                 run_kwargs: Optional[Dict] = None) -> None:
        self.observe = observe
        self.app = app
        self.variant = variant
        self.run_kwargs = dict(run_kwargs or {})
        self.tracer = self.suite = self.profiler = self.digests = None
        sink = None
        if observe.trace is not None:
            from repro.obs.tracer import JsonlFileSink

            sink = JsonlFileSink(observe.trace)
        if observe.ledger is not None:
            from repro.obs.monitor import MonitorSuite

            sink = self.suite = MonitorSuite(
                run_monitors(variant, self.run_kwargs), sink=sink)
        if sink is not None:
            from repro.obs.tracer import Tracer

            self.tracer = Tracer(sink, categories=observe.trace_categories)
        if observe.profile:
            from repro.obs.profiling import Profiler

            self.profiler = Profiler()
        if observe.digest:
            from repro.obs.digest import DigestRecorder

            self.digests = DigestRecorder(self.tracer)

    def close(self, result=None,
              run_args: Optional[Dict] = None) -> Optional[Dict]:
        """Close the tracer and write the ledger; returns its manifest
        (None without a ledger).  ``result`` is the run's ``RunResult``
        (None for a recovery); ``run_args`` replaces the kwargs the
        ledger records (a recovery adds its fault site)."""
        if self.tracer is not None:
            self.tracer.close()
        if self.observe.ledger is None:
            return None
        from repro.obs.monitor import RunLedger
        from repro.workloads.splash2 import SPLASH2_SPECS

        spec = SPLASH2_SPECS.get(self.app)
        ledger = RunLedger(self.app, self.variant,
                           run_args=(self.run_kwargs if run_args is None
                                     else run_args),
                           seed=spec.seed if spec is not None else None)
        manifest = ledger.finalize(result=result, monitors=self.suite,
                                   tracer=self.tracer)
        ledger.write(self.observe.ledger)
        return manifest


def run_monitors(variant: str, run_kwargs: Dict) -> List:
    """The standard monitor set for one run of ``variant``; the log
    monitor's capacity is ``log_bytes_per_node`` (none for the
    baseline, which keeps no log)."""
    from repro.harness.runner import BENCH_LOG_BYTES
    from repro.obs.monitor import default_monitors

    capacity = None
    if variant != "baseline":
        capacity = run_kwargs.get("log_bytes_per_node", BENCH_LOG_BYTES)
    return default_monitors(interval_ns=run_kwargs.get("interval_ns"),
                            log_capacity_bytes=capacity)
