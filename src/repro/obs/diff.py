"""Cross-run divergence diagnosis: the engine behind ``repro diff``.

``repro run --digest PATH`` writes a *run digest file* — the run's
spec (enough to rebuild it) plus its determinism digest chain
(:mod:`repro.obs.digest`).  Given two such files, this module answers
"where did these runs stop being the same run?" at three granularities:

1. **Window** — :func:`diff_run_digests` compares the two chains and
   names the first checkpoint window whose machine digest differs.
2. **Component** — the same comparison names the first divergent
   component inside that window (caches, memory, directory, ...).
3. **Event** — :func:`bisect_divergence` re-simulates run A up to the
   last-agreeing window's commit (the chains agree there, so the state
   is shared by construction), captures that state as a fork image via
   the campaign snapshot machinery, replays *both* specs from the
   image with per-activation digesting (the engine's ``digest_hook``,
   called after every actor call), and reports the first event after
   which the two machine digests disagree — with the store-counter
   range the event spans, so an injected perturbation
   (``REPRO_PERTURB_STORE``) is pinned to the exact event that
   consumed it.

The file format is versioned (:data:`RUN_DIGEST_SCHEMA`) and the spec
deliberately mirrors the CLI surface (app, variant, scale, nodes,
interval_us, perturb_store) rather than raw machine kwargs, so a file
written on one checkout replays on another as long as the CLI
contract holds.  Not re-exported from :mod:`repro.obs` — the replay
side imports the harness, and the package init must stay import-cycle
free; import :mod:`repro.obs.diff` directly.
"""

from __future__ import annotations

import json
import pickle
from typing import Dict, List, Optional, Tuple

from repro.obs.digest import DigestChain, digest_value, first_divergence

#: Schema version of the ``repro run --digest`` side-channel file.
RUN_DIGEST_SCHEMA = 1


def write_run_digest(path: str, spec: Dict,
                     chain: Optional[Dict]) -> None:
    """Write one run's digest side channel (spec + chain) as JSON."""
    if chain is None:
        raise ValueError("run has no digest chain; run with digesting on")
    doc = {"schema": RUN_DIGEST_SCHEMA, "spec": spec, "chain": chain}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_run_digest(path: str) -> Dict:
    """Read and validate a ``repro run --digest`` side-channel file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != RUN_DIGEST_SCHEMA:
        raise ValueError(f"{path}: unsupported run-digest schema "
                         f"{doc.get('schema')!r} "
                         f"(expected {RUN_DIGEST_SCHEMA})")
    for field in ("spec", "chain"):
        if not isinstance(doc.get(field), dict):
            raise ValueError(f"{path}: missing {field!r}")
    return doc


def diff_run_digests(doc_a: Dict, doc_b: Dict) -> Optional[Dict]:
    """First window-level divergence of two run digest files (or None).

    The shape is :func:`repro.obs.digest.first_divergence`:
    ``{"window", "epoch", "component", "a", "b"}``; ``component`` is
    None when one chain is a strict prefix of the other.
    """
    return first_divergence(DigestChain.from_jsonable(doc_a["chain"]).windows,
                            DigestChain.from_jsonable(doc_b["chain"]).windows)


class _StopReplay(Exception):
    """Raised by the digest hook to end a replay early."""


def _machine_from_spec(spec: Dict):
    """Rebuild a run's machine + workload from its digest-file spec.

    The spec's ``perturb_store`` is applied to the fresh machine, so a
    replay reproduces the original run's injected flip even when the
    ``REPRO_PERTURB_STORE`` environment of the original invocation is
    long gone.
    """
    from repro.harness.runner import build_machine, tiny_revive_overrides
    from repro.machine.config import MachineConfig
    from repro.workloads.registry import get_workload

    nodes = spec.get("nodes")
    machine_config = MachineConfig.tiny(nodes) if nodes else None
    overrides = (tiny_revive_overrides(nodes, spec["variant"])
                 if spec["variant"] != "baseline" else {})
    machine = build_machine(spec["variant"], machine_config,
                            int(spec["interval_us"] * 1000), **overrides)
    machine.attach_workload(get_workload(spec["app"],
                                         scale=spec["scale"],
                                         n_procs=nodes or 16))
    machine.perturb_store = spec.get("perturb_store") or None
    return machine


def _replay_events(spec: Dict, image: Optional[bytes],
                   until: Optional[int],
                   reference: Optional[List[Dict]] = None,
                   limit: Optional[int] = None) -> Tuple:
    """Replay one spec from the fork image with per-event digesting.

    Every activation appends ``{"event", "now", "store", "machine",
    "components"}``.  ``reference`` stops the replay at the first
    record whose machine digest disagrees with the same-index
    reference record (run B never replays past its divergence);
    ``limit`` stops after exactly that many events (frontier capture).
    Returns ``(records, machine)``.
    """
    from repro.machine.digest import digest_components

    machine = _machine_from_spec(spec)
    if image is not None:
        machine.restore(pickle.loads(image))
    sim = machine.simulator
    records: List[Dict] = []

    def hook() -> None:
        components = digest_components(machine)
        records.append({"event": len(records), "now": sim.now,
                        "store": machine._store_counter,
                        "machine": digest_value(components),
                        "components": components})
        if limit is not None and len(records) >= limit:
            raise _StopReplay
        if reference is not None:
            index = len(records) - 1
            if (index >= len(reference)
                    or records[index]["machine"]
                    != reference[index]["machine"]):
                raise _StopReplay

    sim.digest_hook = hook
    try:
        machine.run(until=until)
    except _StopReplay:
        pass
    finally:
        sim.digest_hook = None
    return records, machine


def bisect_divergence(doc_a: Dict, doc_b: Dict, divergence: Dict,
                      image_path: Optional[str] = None) -> Dict:
    """Drive the window-level divergence down to the first event.

    ``divergence`` is :func:`diff_run_digests`'s report.  Returns it
    extended with ``event`` (``{"index", "now", "component",
    "store_range", "a", "b"}`` or None when the event could not be
    localised — the accompanying ``note`` says why) and ``image`` (the
    path of the captured frontier image, when requested).  The
    frontier image is run A's state after the last *agreeing* event,
    restorable with :func:`repro.machine.snapshot.restore_machine` for
    offline inspection.
    """
    report = dict(divergence, event=None, image=None)
    window = divergence["window"]
    windows_a = doc_a["chain"]["windows"]
    windows_b = doc_b["chain"]["windows"]
    if window == 0:
        report["note"] = ("the initial states (window 0) already "
                          "differ: the runs were configured "
                          "differently, nothing to replay")
        return report

    # Fork point: re-simulate run A to the last-agreeing window's
    # commit.  The chains agree through window-1, so by determinism
    # this state is shared by both runs.
    ts_ok = windows_a[window - 1]["ts"]
    warm = _machine_from_spec(doc_a["spec"])
    if ts_ok > 0:
        warm.run(until=ts_ok)
    image = pickle.dumps(warm.snapshot(),
                         protocol=pickle.HIGHEST_PROTOCOL)
    fork_store = warm._store_counter

    # Replay horizon: the divergent window's commit time (whichever
    # chain reaches that window; on a prefix divergence only one does).
    ts_div = None
    for windows in (windows_a, windows_b):
        if window < len(windows):
            ts_div = max(ts_div or 0, windows[window]["ts"])

    records_a, _machine = _replay_events(doc_a["spec"], image, ts_div)
    records_b, _machine = _replay_events(doc_b["spec"], image, ts_div,
                                         reference=records_a)

    first = None
    for index, record in enumerate(records_b):
        if (index >= len(records_a)
                or record["machine"] != records_a[index]["machine"]):
            first = index
            break
    if first is None and len(records_b) < len(records_a):
        first = len(records_b)  # B retired early: scheduling divergence
    if first is None:
        report["note"] = ("no divergent event inside the replayed "
                          "window; the divergence predates the fork "
                          "point (same-timestamp events after the "
                          "last agreeing commit)")
        return report

    rec_a = records_a[first] if first < len(records_a) else None
    rec_b = records_b[first] if first < len(records_b) else None
    comps_a = rec_a["components"] if rec_a else {}
    comps_b = rec_b["components"] if rec_b else {}
    component = None
    for name in sorted(set(comps_a) | set(comps_b)):
        if comps_a.get(name) != comps_b.get(name):
            component = name
            break
    present = rec_a or rec_b
    store_before = (records_a[first - 1]["store"] if first
                    else fork_store)
    report["event"] = {
        "index": first,
        "now": present["now"],
        "component": component,
        # Stores consumed by the divergent event: (before, after].  An
        # injected REPRO_PERTURB_STORE counter lands in this range.
        "store_range": [store_before, present["store"]],
        "a": rec_a["machine"] if rec_a else None,
        "b": rec_b["machine"] if rec_b else None,
    }

    if image_path is not None:
        if first == 0:
            frontier = image  # the fork image *is* the frontier
        else:
            _records, machine = _replay_events(doc_a["spec"], image,
                                               ts_div, limit=first)
            frontier = pickle.dumps(machine.snapshot(),
                                    protocol=pickle.HIGHEST_PROTOCOL)
        with open(image_path, "wb") as fh:
            fh.write(frontier)
        report["image"] = image_path
    return report
