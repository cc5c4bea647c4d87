"""Fork-based fault campaigns: warm once, fork the fault grid.

The Figure 12 recovery study re-simulates the same warm-up — boot,
warm-up phase, ``warm_checkpoints`` committed checkpoints — for every
fault scenario, even though the scenarios only diverge *after* the
fault is injected.  :func:`run_campaign` removes the repetition:

1. **Warm once.**  One machine runs to ``warm_checkpoints`` commits
   (the fig12 horizon-stepping loop).
2. **Capture.**  ``machine.snapshot()`` (see docs/SNAPSHOTS.md) is
   pickled into a *warm image* and stored as a content-addressed
   artifact in the :class:`~repro.harness.store.ResultStore` under
   :func:`~repro.harness.store.snapshot_key` — a later campaign over
   the same configuration skips the warm-up entirely.
3. **Fork.**  Every scenario of the fault grid — ``lost_node`` ×
   ``detect_fraction`` (× ``hybrid_fraction``, which changes machine
   geometry and therefore gets its own warm image) — restores the
   image into a fresh machine, runs only the detection window, injects
   its fault, and recovers.  Scenarios fan out through the job
   executor (:mod:`repro.harness.executor`), like sweep cells; the
   warm images reach the workers as the pool's job context.

Because snapshot/restore is bit-identical to uninterrupted execution
(``tests/test_snapshot_oracle.py``), the forked outcomes are exactly
the outcomes of cold per-scenario replays — ``cold=True`` runs the
grid that way for cross-checking and for the
``CAMPAIGN_MIN_SPEEDUP`` perf gate (``harness/perf.py``).

Campaign progress is observable: pass ``tracer=`` and the runner emits
``snap.capture`` (image built), ``snap.restore`` (image served from
the store), and ``snap.fork`` (grid dispatched) events — ``svc``-style
envelope with ``ts`` 0, catalogued in ``repro.obs.lint``.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.faults import NodeLossFault, TransientSystemFault
from repro.core.recovery import RecoveryManager
from repro.harness.runner import DEFAULT_INTERVAL_NS, build_machine
from repro.obs.tracer import Tracer
from repro.workloads.registry import get_workload

#: Detection latencies of the default grid, as fractions of the
#: checkpoint interval.  0.8 is the paper's worst case (Section 6.3);
#: the smaller fractions reproduce its detection-latency sensitivity
#: discussion.
DEFAULT_DETECT_FRACTIONS = (0.2, 0.5, 0.8)

#: Fault sites of the default grid: one lost node, plus ``None`` for
#: the memory-intact transient fault (Phases 2/4 skipped).
DEFAULT_LOST_NODES: Tuple[Optional[int], ...] = (None, 1)


def campaign_scenarios(
        lost_nodes: Sequence[Optional[int]] = DEFAULT_LOST_NODES,
        detect_fractions: Sequence[float] = DEFAULT_DETECT_FRACTIONS,
        hybrid_fractions: Sequence[Optional[float]] = (None,),
) -> List[Dict]:
    """The deterministic scenario list: hybrid-major, then lost node,
    then detection fraction.  The list order is the canonical outcome
    order, independent of worker scheduling."""
    scenarios = []
    for hybrid in hybrid_fractions:
        for lost in lost_nodes:
            for fraction in detect_fractions:
                scenarios.append({"hybrid_fraction": hybrid,
                                  "lost_node": lost,
                                  "detect_fraction": fraction})
    return scenarios


class WarmupTooShort(RuntimeError):
    """The workload finished before the warm-up's target commit."""


def _new_machine(app: str, variant: str, run_kwargs: Dict, digest: bool):
    """A fresh machine of the job with its workload attached, and with
    a digest recorder installed when ``digest`` is set."""
    kwargs = dict(run_kwargs)
    interval_ns = kwargs.pop("interval_ns", DEFAULT_INTERVAL_NS)
    scale = kwargs.pop("scale", 1.0)
    n_procs = kwargs.pop("n_procs", 16)
    machine_config = kwargs.pop("machine_config", None)
    machine = build_machine(variant, machine_config, interval_ns, **kwargs)
    machine.attach_workload(get_workload(app, scale=scale, n_procs=n_procs))
    if digest:
        from repro.obs.digest import DigestRecorder

        machine.install_digests(DigestRecorder())
    return machine


def warm_machine(app: str, variant: str, run_kwargs: Dict,
                 warm_checkpoints: int, digest: bool = False):
    """Build and run one machine to ``warm_checkpoints`` commits.

    The fig12 warm-up loop: step the horizon one interval at a time so
    the run pauses as soon as the target commit lands.  Raises when
    the workload finishes first — the campaign needs a live machine.
    ``digest=True`` installs a determinism-observatory recorder before
    the first event, so the warm-up's digest chain (window 0 plus one
    window per commit) rides inside the captured image and forked
    scenarios resume it (docs/OBSERVABILITY.md).
    """
    machine = _new_machine(app, variant, run_kwargs, digest)
    if machine.checkpointing is None:
        raise ValueError(f"variant {variant!r} takes no checkpoints; "
                         f"campaigns need a checkpointing variant")
    if digest:
        machine.record_digest(ts=0)
    interval_ns = run_kwargs.get("interval_ns", DEFAULT_INTERVAL_NS)
    horizon = (warm_checkpoints + 1) * interval_ns
    while machine.checkpointing.checkpoints_committed < warm_checkpoints:
        if machine.all_finished:
            raise WarmupTooShort(
                f"{app}: fewer than {warm_checkpoints} checkpoints in the "
                f"whole run; shorten the interval or scale up the run")
        machine.run(until=horizon)
        horizon += interval_ns
    return machine


# ---------------------------------------------------------------------------
# Scenario jobs
# ---------------------------------------------------------------------------

def _decoded_image(ctx: Dict, hybrid: Optional[float]) -> Dict:
    """The warm image of one hybrid fraction, unpickled once per context.

    Every forked scenario of the context restores from the same decoded
    state.  That is sound only because ``Machine.restore`` copies the
    image's containers and never aliases them (docs/SNAPSHOTS.md):
    the state stays read-only however the scenarios diverge.  Only the
    latest fraction's state is kept, so at most one decoded image is
    alive per context; scenarios are hybrid-major, so a serial
    campaign still decodes each image once.
    """
    decoded = ctx.setdefault("decoded", {})
    state = decoded.get(hybrid)
    if state is None:
        decoded.clear()
        state = decoded[hybrid] = pickle.loads(ctx["images"][hybrid])
    return state


def _scenario_machine(ctx: Dict, scenario: Dict):
    """A machine at the warm point, ready for the scenario's fault.

    Cold mode (no image) re-runs the warm-up; forked mode builds a
    fresh machine and restores the context's decoded warm image.
    """
    app, variant = ctx["app"], ctx["variant"]
    kwargs = _hybrid_kwargs(ctx["run_kwargs"], scenario)
    digest = bool(ctx.get("digest"))
    if ctx["images"][scenario["hybrid_fraction"]] is None:
        return warm_machine(app, variant, kwargs, ctx["warm_checkpoints"],
                            digest=digest)
    # The digest recorder goes in before restore, so the warm-up chain
    # carried inside the image resumes (machine/snapshot.py).
    machine = _new_machine(app, variant, kwargs, digest)
    machine.restore(_decoded_image(ctx, scenario["hybrid_fraction"]))
    return machine


def _fault_and_recover(machine, scenario: Dict, warm_checkpoints: int,
                       interval_ns: int):
    """Run to the scenario's detection time, inject, and recover.

    Returns ``(detect_time, RecoveryResult)``; the target is the
    second-newest warm checkpoint, the paper's worst case.
    """
    detect_time = (machine.checkpointing.commit_times[warm_checkpoints]
                   + int(scenario["detect_fraction"] * interval_ns))
    machine.run(until=detect_time)
    lost_node = scenario["lost_node"]
    if lost_node is not None:
        NodeLossFault(lost_node).apply(machine)
    else:
        TransientSystemFault().apply(machine)
    result = RecoveryManager(machine).recover(
        detect_time=detect_time, lost_node=lost_node,
        target_epoch=warm_checkpoints - 1)
    return detect_time, result


def _run_scenario(scenario: Dict, ctx: Dict
                  ) -> Tuple[Dict, Optional[Dict], Optional[Dict]]:
    """Job body: one fault scenario; module-level so it pickles.

    Forked mode restores the warm image into a fresh machine (the
    image is unpickled once per worker context); cold mode re-runs
    the warm-up from scratch.  Either way the machine
    then runs to its detection time, takes the fault, and recovers —
    the outcomes are identical (the snapshot oracle guarantees it),
    only the wall-clock differs.

    ``ctx`` is the campaign's job context: the pool worker's own copy,
    or the campaign's dict itself on the serial path.  Returns
    ``(outcome, profile, digest)``.  The host-time
    profile (or None when profiling is off) rides *next to* the
    outcome, never inside it: outcomes must stay equal between cold
    and forked runs, and wall-clock attribution obviously is not.
    Profiling starts after the warm-up / restore, so cold and forked
    scenarios profile the same work (detection window + recovery).

    The digest chain (or None when digesting is off) also rides next
    to the outcome — but unlike the profile it *is* deterministic:
    forked scenarios resume the chain carried inside the warm image,
    cold scenarios recompute it from scratch, and the two must be
    identical window for window.  ``run_campaign(digest=True)``
    reconciles exactly that.
    """
    app, variant = ctx["app"], ctx["variant"]
    machine = _scenario_machine(ctx, scenario)

    profiler = None
    if ctx.get("profile"):
        from repro.obs.profiling import Profiler

        profiler = Profiler()
        machine.install_profiler(profiler)

    interval_ns = ctx["run_kwargs"].get("interval_ns", DEFAULT_INTERVAL_NS)
    detect_time, result = _fault_and_recover(
        machine, scenario, ctx["warm_checkpoints"], interval_ns)
    outcome = dict(scenario)
    outcome.update(
        app=app, variant=variant, interval_ns=interval_ns,
        detect_time=detect_time, target_epoch=result.target_epoch,
        lost_work_ns=result.lost_work_ns,
        unavailable_ns=result.unavailable_ns,
        revive_recovery_ns=result.revive_recovery_ns,
        entries_undone=result.entries_undone,
        log_lines_rebuilt=result.log_lines_rebuilt,
        resume_time=result.resume_time,
        breakdown=result.breakdown(),
    )
    snapshot = None
    if profiler is not None:
        from repro.obs.telemetry import profile_snapshot

        snapshot = profile_snapshot(profiler)
    chain = None
    if ctx.get("digest") and machine.digests is not None:
        # One closing on-demand window fingerprints the recovered
        # state, so the chain covers the scenario end-to-end: warm-up
        # windows + the post-recovery state.
        machine.record_digest()
        chain = machine.digests.chain.to_jsonable()
    return outcome, snapshot, chain


def _hybrid_kwargs(run_kwargs: Dict, scenario: Dict) -> Dict:
    """The job kwargs of a scenario, with its hybrid override folded in."""
    hybrid = scenario["hybrid_fraction"]
    if hybrid is None:
        return run_kwargs
    kwargs = dict(run_kwargs)
    kwargs["mirrored_fraction"] = hybrid
    return kwargs


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

@dataclass
class CampaignResult:
    """One campaign's outcomes plus how they were obtained."""

    app: str
    variant: str
    warm_checkpoints: int
    interval_ns: int
    #: One outcome dict per scenario, in :func:`campaign_scenarios`
    #: order (never completion order).
    outcomes: List[Dict]
    #: Per warm image: ``{"hybrid_fraction", "key", "bytes", "cached"}``
    #: (``cached`` means served from the result store, warm-up skipped).
    images: List[Dict] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1
    parallel: bool = False
    #: True when the grid re-ran warm-ups instead of forking.
    cold: bool = False
    #: Merged host-time profile across scenarios (``profile=True``),
    #: or None.  Kept beside the outcomes, never inside them: the
    #: cold-vs-forked equality contract covers outcomes only.
    profile: Optional[Dict] = None
    #: Per-scenario determinism digest chains (``digest=True``), in
    #: scenario order, or None.  Deterministic — forked chains resume
    #: the warm image's windows, cold chains recompute them, and the
    #: two are identical (``tests/test_digest.py`` pins it).
    digests: Optional[List[Dict]] = None

    @property
    def image_bytes(self) -> int:
        """Total size of the warm images backing this campaign."""
        return sum(image["bytes"] for image in self.images)

    def to_jsonable(self) -> Dict:
        """A JSON-ready dict of the whole campaign (stable ordering)."""
        return {
            "app": self.app, "variant": self.variant,
            "warm_checkpoints": self.warm_checkpoints,
            "interval_ns": self.interval_ns,
            "cold": self.cold, "workers": self.workers,
            "parallel": self.parallel,
            "wall_seconds": self.wall_seconds,
            "images": self.images,
            "outcomes": self.outcomes,
            "profile": self.profile,
            "digests": self.digests,
        }


def _emit(tracer: Optional[Tracer], name: str, **fields) -> None:
    """snap.* events ride the svc convention: outside simulated time."""
    if tracer is not None and tracer.enabled:
        tracer.emit(0, "snap", name, **fields)


def _warm_image(app: str, variant: str, run_kwargs: Dict,
                warm_checkpoints: int, cache,
                tracer: Optional[Tracer],
                hybrid: Optional[float],
                digest: bool = False) -> Tuple[bytes, Dict]:
    """The pickled warm image of one configuration, store-backed.

    A store hit skips the warm-up and emits ``snap.restore``; a miss
    warms a machine, captures it, stores the image (when a store is
    in use), and emits ``snap.capture``.  A digesting campaign needs
    the warm-up chain *inside* the image; a hit stored by an
    undigested campaign lacks it, so the image is re-warmed (and the
    entry upgraded) rather than served.
    """
    from repro.harness import store as result_store

    key = result_store.snapshot_key(app, variant, run_kwargs,
                                    warm_checkpoints)
    if cache is not None:
        entry = cache.get(key)
        if (entry is not None and entry.kind == result_store.KIND_SNAPSHOT
                and entry.has_artifact(result_store.SNAPSHOT_ARTIFACT)):
            start = time.perf_counter()
            image = entry.read_artifact(result_store.SNAPSHOT_ARTIFACT)
            if digest and pickle.loads(image).get("digest") is None:
                image = None  # undigested image: re-warm and upgrade
            if image is not None:
                _emit(tracer, "snap.restore", key=key, bytes=len(image),
                      dur_ms=int((time.perf_counter() - start) * 1000))
                return image, {"hybrid_fraction": hybrid, "key": key,
                               "bytes": len(image), "cached": True}
    start = time.perf_counter()
    machine = warm_machine(app, variant, run_kwargs, warm_checkpoints,
                           digest=digest)
    image = pickle.dumps(machine.snapshot(),
                         protocol=pickle.HIGHEST_PROTOCOL)
    _emit(tracer, "snap.capture", key=key, bytes=len(image),
          epoch=warm_checkpoints,
          dur_ms=int((time.perf_counter() - start) * 1000))
    if cache is not None:
        cache.put(key, result_store.KIND_SNAPSHOT,
                  {"app": app, "variant": variant,
                   "warm_checkpoints": warm_checkpoints,
                   "commit_times": list(
                       machine.checkpointing.commit_times),
                   "image_bytes": len(image)},
                  artifacts={result_store.SNAPSHOT_ARTIFACT: image})
    return image, {"hybrid_fraction": hybrid, "key": key,
                   "bytes": len(image), "cached": False}


def run_campaign(app: str = "fft", variant: str = "cp_parity",
                 *, warm_checkpoints: int = 2,
                 lost_nodes: Sequence[Optional[int]] = DEFAULT_LOST_NODES,
                 detect_fractions: Sequence[float] = DEFAULT_DETECT_FRACTIONS,
                 hybrid_fractions: Optional[Sequence[float]] = None,
                 scale: float = 1.0, n_procs: int = 16,
                 interval_ns: int = DEFAULT_INTERVAL_NS,
                 machine_config=None,
                 cache_dir: Optional[str] = None,
                 cache_max_bytes: Optional[int] = None,
                 workers: Optional[int] = None, serial: bool = False,
                 cold: bool = False,
                 tracer: Optional[Tracer] = None,
                 profile: bool = False,
                 digest: bool = False,
                 **revive_overrides) -> CampaignResult:
    """Run a fault campaign: one warm-up, many forked recoveries.

    The grid is ``lost_nodes`` × ``detect_fractions``; passing
    ``hybrid_fractions`` adds an outer axis where each fraction is a
    ``mirrored_fraction`` override — different machine geometry, so
    each fraction warms (or fetches) its own image.  ``cache_dir``
    persists warm images in a :class:`~repro.harness.store.ResultStore`
    so repeated campaigns over the same configuration skip straight to
    the fork.  ``cold=True`` re-simulates the warm-up inside every
    scenario instead — same outcomes by the snapshot oracle, used as
    the baseline of the ``CAMPAIGN_MIN_SPEEDUP`` perf gate.

    ``tracer`` observes the campaign itself (``snap.*`` events); it is
    *not* threaded into the simulated machines, so warm images and
    scenario outcomes stay byte-identical traced or not.

    ``profile=True`` installs a host-time profiler in every scenario
    machine (after warm-up / restore, so cold and forked profile the
    same work) and merges the per-scenario snapshots into
    ``result.profile`` in scenario order.  Outcomes are unaffected —
    wall-clock attribution never enters an outcome dict.

    ``digest=True`` records the determinism-observatory chain in every
    scenario: forked scenarios resume the chain carried inside the warm
    image, cold scenarios recompute it from scratch, and both close
    with one on-demand window fingerprinting the recovered state.  The
    per-scenario chains land in ``result.digests`` in scenario order —
    forked and cold campaigns over the same grid must produce
    identical lists (the snapshot oracle, made checkable).
    """
    # Imported here, not at the top: the pool machinery takes ~20 ms to
    # import, and most importers of this module never run a campaign.
    from repro.harness.executor import check_pool_args, run_jobs

    check_pool_args(workers)
    if warm_checkpoints < 1:
        raise ValueError("warm_checkpoints must be >= 1")
    run_kwargs = dict(scale=scale, n_procs=n_procs,
                      interval_ns=interval_ns,
                      machine_config=machine_config)
    run_kwargs.update(revive_overrides)
    hybrids: List[Optional[float]] = (list(hybrid_fractions)
                                      if hybrid_fractions else [None])
    scenarios = campaign_scenarios(lost_nodes, detect_fractions, hybrids)

    cache = None
    if cache_dir is not None:
        from repro.harness.store import ResultStore

        cache = ResultStore(cache_dir, max_bytes=cache_max_bytes)

    start = time.perf_counter()
    images: Dict[Optional[float], Optional[bytes]] = {}
    image_meta: List[Dict] = []
    if not cold:
        for hybrid in hybrids:
            kwargs = _hybrid_kwargs(run_kwargs,
                                    {"hybrid_fraction": hybrid})
            image, meta = _warm_image(app, variant, kwargs,
                                      warm_checkpoints, cache, tracer,
                                      hybrid, digest=digest)
            images[hybrid] = image
            image_meta.append(meta)
        fork_key = image_meta[0]["key"] if image_meta else ""
        _emit(tracer, "snap.fork", key=fork_key,
              scenarios=len(scenarios))
    else:
        images = {hybrid: None for hybrid in hybrids}

    ctx = {"app": app, "variant": variant, "run_kwargs": run_kwargs,
           "warm_checkpoints": warm_checkpoints, "images": images,
           "profile": profile, "digest": digest}
    ran, n_workers, ran_parallel = run_jobs(
        _run_scenario, scenarios, workers=workers, serial=serial,
        context=ctx)
    outcomes = [outcome for outcome, _snap, _chain in ran]
    merged_profile = None
    if profile:
        from repro.obs.telemetry import merge_profiles

        # Scenario order, never completion order — the merged profile
        # must be deterministic for a given campaign grid.
        merged_profile = merge_profiles(
            snap for _outcome, snap, _chain in ran)
    # Scenario order for the same reason: forked and cold campaigns
    # over the same grid must produce comparable digest lists.
    merged_digests = ([chain for _outcome, _snap, chain in ran]
                      if digest else None)
    return CampaignResult(app=app, variant=variant,
                          warm_checkpoints=warm_checkpoints,
                          interval_ns=interval_ns, outcomes=outcomes,
                          images=image_meta,
                          wall_seconds=time.perf_counter() - start,
                          workers=n_workers, parallel=ran_parallel,
                          cold=cold, profile=merged_profile,
                          digests=merged_digests)
