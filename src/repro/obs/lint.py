"""Schema validation for JSONL traces (``repro trace-lint``).

The trace schema is a versioned interface (``docs/OBSERVABILITY.md``):
every event carries the five-key envelope, categories come from
:data:`~repro.obs.tracer.CATEGORIES`, names are prefixed by their
category, and each known event name carries a documented field set.
:func:`lint_events` checks all of that over any event stream — a file
this package wrote, or one produced by a foreign tool claiming the
same schema — and returns human-readable problem strings (empty means
clean).  ``tools/smoke.py`` lints every smoke-test trace with it.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Tuple

from repro.obs.analysis import read_trace
from repro.obs.digest import window_digest
from repro.obs.spans import SEGMENTS, SPAN_CLASSES
from repro.obs.tracer import CATEGORIES, SCHEMA_VERSION

#: The envelope every event must carry (tracer.py's contract).
ENVELOPE_KEYS = ("v", "seq", "ts", "cat", "name")

#: Required event-specific fields per known event name (schema v2).
#: Fields may be *added* within a version, so extra keys never fail
#: lint; missing required keys do.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "sim.run_begin": ("until", "pending"),
    "sim.hook_fire": (),
    "sim.actor_retire": ("actor",),
    "sim.run_end": ("activations",),
    "sim.warmup_done": (),
    "coh.transition": ("node", "line", "state", "owner", "sharers"),
    "coh.clear": ("node", "entries"),
    "mem.batch": ("node", "refs", "l1_hits", "l1_misses",
                  "l2_hits", "l2_misses", "remote"),
    "log.append": ("node", "slot", "epoch", "line", "commit",
                   "bytes_used"),
    "log.reclaim": ("node", "slots", "oldest_epoch", "bytes_used"),
    "ckpt.begin": ("epoch",),
    "ckpt.flush_done": ("dirty_lines",),
    "ckpt.barrier1": (),
    "ckpt.commit": ("epoch", "dur_ns"),
    "recovery.begin": ("lost_node",),
    "recovery.phase_begin": ("phase",),
    "recovery.phase_end": ("phase", "dur_ns"),
    "recovery.end": ("target_epoch", "lost_work_ns", "entries_undone",
                     "resume_time"),
    "span.begin": ("txn", "class", "node"),
    "span.end": ("txn", "class", "node", "dur_ns", "segs"),
    # Serving-layer events (docs/SERVING.md).  They happen outside
    # simulated time, so their ``ts`` is 0 by convention.
    "svc.accepted": ("op", "key"),
    "svc.cache_hit": ("key",),
    "svc.cache_miss": ("key",),
    "svc.cache_store": ("key", "bytes"),
    "svc.cache_evict": ("key", "bytes"),
    "svc.cache_corrupt": ("key", "reason"),
    "svc.coalesced": ("key",),
    "svc.scheduled": ("key",),
    "svc.verdicts": ("key", "verdicts"),
    "svc.latency": ("key", "classes"),
    "svc.result": ("key", "cached"),
    "svc.report": ("key", "rows"),
    "svc.done": ("key", "jobs", "cached"),
    "svc.campaign": ("key", "outcomes"),
    "svc.error": ("error",),
    # Snapshot/fork events emitted by the campaign layer
    # (docs/SNAPSHOTS.md).  Like ``svc.*`` they happen outside simulated
    # time, so their ``ts`` is 0 by convention.
    "snap.capture": ("key", "bytes", "epoch", "dur_ms"),
    "snap.restore": ("key", "bytes", "dur_ms"),
    "snap.fork": ("key", "scenarios"),
    # Host-time attribution snapshots (docs/OBSERVABILITY.md,
    # ``repro profile``).  Host-side: ``ts`` 0 by convention.
    "prof.run": ("wall_seconds", "activations"),
    "prof.actor": ("actor", "node", "kind", "seconds", "activations"),
    "prof.component": ("component", "self_seconds", "cum_seconds",
                       "calls"),
    "prof.tier": ("node", "fallout_seconds", "fallout_calls",
                  "batch_seconds"),
    # Live service telemetry (docs/SERVING.md, ``repro stats``).
    # Host-side: ``ts`` 0 by convention.
    "stats.heartbeat": ("beat", "inflight", "queue_depth",
                        "workers_busy", "workers"),
    "stats.snapshot": ("beat", "metrics"),
    # Per-request service-phase timing (host milliseconds).
    "svc.timing": ("key", "phases"),
    # Determinism observatory (docs/OBSERVABILITY.md): one digest
    # window per checkpoint boundary, ``ts`` = the commit time of the
    # window it fingerprints.
    "digest.window": ("window", "epoch", "machine", "prev", "components"),
}


def _lint_span(event: Dict, where: str, open_spans: Dict,
               problems: List[str]) -> None:
    """Stateful span checks: pairing, class identity, segment closure."""
    txn, cls = event.get("txn"), event.get("class")
    if cls is not None and cls not in SPAN_CLASSES:
        problems.append(
            f"{where}: unknown span class {cls!r} "
            f"(known: {', '.join(SPAN_CLASSES)})")
    if not isinstance(txn, int):
        problems.append(f"{where}: span txn {txn!r} is not an integer")
        return
    if event["name"] == "span.begin":
        if txn in open_spans:
            problems.append(f"{where}: span.begin for already-open txn {txn}")
        open_spans[txn] = event
        return
    begin = open_spans.pop(txn, None)
    if begin is None:
        problems.append(
            f"{where}: span.end for txn {txn} without a span.begin")
        return
    if cls != begin.get("class"):
        problems.append(
            f"{where}: span.end class {cls!r} does not match "
            f"span.begin class {begin.get('class')!r} (txn {txn})")
    dur, segs = event.get("dur_ns"), event.get("segs")
    if not isinstance(dur, int) or dur < 0:
        problems.append(
            f"{where}: span dur_ns {dur!r} is not a non-negative integer")
        return
    if isinstance(begin.get("ts"), int) and event["ts"] - begin["ts"] != dur:
        problems.append(
            f"{where}: span dur_ns {dur} != end ts - begin ts "
            f"({event['ts']} - {begin['ts']}) for txn {txn}")
    if not isinstance(segs, list):
        problems.append(f"{where}: span segs {segs!r} is not a list")
        return
    total = 0
    for seg in segs:
        if (not isinstance(seg, (list, tuple)) or len(seg) != 2
                or not isinstance(seg[1], int) or seg[1] < 0):
            problems.append(
                f"{where}: malformed segment {seg!r} (want [kind, dur_ns])")
            return
        kind, seg_dur = seg
        if kind not in SEGMENTS:
            problems.append(
                f"{where}: unknown segment kind {kind!r} "
                f"(known: {', '.join(SEGMENTS)})")
        total += seg_dur
    if total != dur:
        problems.append(
            f"{where}: segments sum to {total} but span dur_ns is {dur} "
            f"(txn {txn})")


def _lint_prof(event: Dict, where: str, prof_block: Dict,
               problems: List[str]) -> None:
    """Stateful ``prof.*`` checks: attribution must sum to the run.

    Per-actor host seconds are a part of the run's wall clock,
    so within one ``prof.run`` block the ``prof.actor`` seconds must
    not exceed the run's ``wall_seconds`` (small float tolerance).
    The check closes at the next ``prof.run`` or at end-of-stream
    (:func:`_finish_prof`).
    """
    name = event["name"]
    if name == "prof.run":
        _finish_prof(where, prof_block, problems)
        wall = event.get("wall_seconds")
        if not isinstance(wall, (int, float)) or wall < 0:
            problems.append(
                f"{where}: prof.run wall_seconds {wall!r} is not a "
                f"non-negative number")
            return
        prof_block["run"] = (where, float(wall))
        prof_block["actor_seconds"] = 0.0
    elif name == "prof.actor":
        seconds = event.get("seconds")
        if not isinstance(seconds, (int, float)) or seconds < 0:
            problems.append(
                f"{where}: prof.actor seconds {seconds!r} is not a "
                f"non-negative number")
            return
        if prof_block.get("run") is None:
            problems.append(
                f"{where}: prof.actor without a preceding prof.run")
            return
        prof_block["actor_seconds"] += float(seconds)


def _finish_prof(where: str, prof_block: Dict,
                 problems: List[str]) -> None:
    """Close an open ``prof.run`` block: actor seconds ≤ run seconds."""
    run = prof_block.get("run")
    if run is None:
        return
    run_where, wall = run
    attributed = prof_block.get("actor_seconds", 0.0)
    if attributed > wall * (1 + 1e-6) + 1e-6:
        problems.append(
            f"{where}: prof.actor seconds sum to {attributed:.6f} but "
            f"prof.run ({run_where}) reports wall_seconds {wall:.6f} — "
            f"attribution exceeds the run it claims to partition")
    prof_block["run"] = None
    prof_block["actor_seconds"] = 0.0


def _lint_digest(event: Dict, where: str, digest_block: Dict,
                 problems: List[str]) -> None:
    """Stateful ``digest.*`` checks (determinism observatory).

    Chain linkage: each window's ``prev`` must equal the previous
    window's machine digest, and the window's own ``machine`` digest
    must recompute from ``(prev, components)`` — the window fold is a
    pure function (:func:`repro.obs.digest.window_digest`), so lint
    verifies the chain offline without any machine state.  Window
    indices must increase by exactly one.
    """
    window, machine = event.get("window"), event.get("machine")
    prev, components = event.get("prev"), event.get("components")
    digest_block["seen"] = True
    if not isinstance(window, int):
        problems.append(
            f"{where}: digest window {window!r} is not an integer")
        return
    last_window = digest_block.get("window")
    if last_window is not None and window != last_window + 1:
        problems.append(
            f"{where}: digest window {window} does not follow "
            f"window {last_window}")
    digest_block["window"] = window
    tip = digest_block.get("tip")
    if tip is not None and prev != tip:
        problems.append(
            f"{where}: digest window {window} prev {prev!r} does not "
            f"equal the previous window's machine digest {tip!r} — "
            f"the chain is broken")
    if (not isinstance(components, dict) or not components
            or not all(isinstance(k, str) and isinstance(v, str)
                       for k, v in components.items())):
        problems.append(
            f"{where}: digest components must be a non-empty "
            f"name->hexdigest object")
        return
    recomputed = window_digest(prev, components)
    if recomputed != machine:
        problems.append(
            f"{where}: digest window {window} machine digest "
            f"{machine!r} does not recompute from its prev and "
            f"components ({recomputed!r})")
    digest_block["tip"] = machine
    pending = digest_block.get("pending")
    if pending is not None and event.get("epoch") == pending[0]:
        digest_block["pending"] = None


def _note_commit(event: Dict, where: str, digest_block: Dict,
                 problems: List[str]) -> None:
    """Track ``ckpt.commit`` for the digest-at-every-boundary check.

    Only enforced once the stream has shown any ``digest.window`` (a
    digesting run records window 0 before its first commit); undigested
    runs carry no obligation.
    """
    if not digest_block.get("seen"):
        return
    _finish_digest(where, digest_block, problems)
    digest_block["pending"] = (event.get("epoch"), where)


def _finish_digest(where: str, digest_block: Dict,
                   problems: List[str]) -> None:
    """Flag a checkpoint boundary that was never digested."""
    pending = digest_block.get("pending")
    if pending is None:
        return
    epoch, commit_where = pending
    problems.append(
        f"{where}: ckpt.commit epoch {epoch} ({commit_where}) has no "
        f"digest.window for that epoch — digesting runs must "
        f"fingerprint every checkpoint boundary")
    digest_block["pending"] = None


def lint_events(events: Iterable[Dict],
                source: str = "<trace>") -> List[str]:
    """Validate an event stream; returns problem strings (empty = ok).

    Checks, per event: the envelope keys exist; ``v`` equals
    :data:`SCHEMA_VERSION`; ``seq`` is a strictly increasing integer;
    ``ts`` is a non-negative integer; ``cat`` is a known category;
    ``name`` is namespaced under its category; and known names carry
    their required fields (:data:`EVENT_FIELDS`).  Unknown names in a
    known category are flagged too — they usually mean a version skew
    between writer and reader.

    ``span`` events additionally get stateful checks: every
    ``span.end`` must match an open ``span.begin`` with the same
    ``txn`` and class, its ``dur_ns`` must equal the timestamp
    difference, its segment kinds must be known, and the segment
    durations must sum exactly to ``dur_ns`` (the closure invariant).
    Spans still open at end-of-stream are flagged.

    Telemetry gets the same treatment: ``stats.heartbeat`` ``beat``
    numbers must be strictly increasing integers, and within one
    ``prof.run`` block the ``prof.actor`` seconds must not exceed the
    run's ``wall_seconds`` (attribution-sums-to-run).

    ``digest`` events get the determinism-observatory checks
    (:func:`_lint_digest`): chain linkage (each window's ``prev``
    equals the previous machine digest, and the machine digest
    recomputes from the window's fields) and, once any digest has been
    seen, digest-at-every-checkpoint-boundary (every ``ckpt.commit``
    must be followed by a ``digest.window`` for its epoch before the
    next commit or end-of-stream).
    """
    problems: List[str] = []
    last_seq = None
    open_spans: Dict = {}
    last_beat = None
    prof_block: Dict = {"run": None, "actor_seconds": 0.0}
    digest_block: Dict = {"tip": None, "window": None, "seen": False,
                          "pending": None}
    for position, event in enumerate(events):
        where = f"{source}:{position}"
        if not isinstance(event, dict):
            problems.append(f"{where}: event is not a JSON object")
            continue
        missing = [key for key in ENVELOPE_KEYS if key not in event]
        if missing:
            problems.append(
                f"{where}: missing envelope keys {missing}")
            continue
        if event["v"] != SCHEMA_VERSION:
            problems.append(
                f"{where}: schema version {event['v']!r} "
                f"(expected {SCHEMA_VERSION})")
        seq = event["seq"]
        if not isinstance(seq, int):
            problems.append(f"{where}: seq {seq!r} is not an integer")
        elif last_seq is not None and seq <= last_seq:
            problems.append(
                f"{where}: seq {seq} does not increase (previous "
                f"{last_seq})")
        else:
            last_seq = seq
        ts = event["ts"]
        if not isinstance(ts, int) or ts < 0:
            problems.append(
                f"{where}: ts {ts!r} is not a non-negative integer")
        cat, name = event["cat"], event["name"]
        if cat not in CATEGORIES:
            problems.append(
                f"{where}: unknown category {cat!r} "
                f"(known: {', '.join(CATEGORIES)})")
            continue
        if not isinstance(name, str) or not name.startswith(cat + "."):
            problems.append(
                f"{where}: name {name!r} is not namespaced under "
                f"category {cat!r}")
            continue
        required = EVENT_FIELDS.get(name)
        if required is None:
            problems.append(f"{where}: unknown event name {name!r}")
            continue
        absent = [fieldname for fieldname in required
                  if fieldname not in event]
        if absent:
            problems.append(
                f"{where}: {name} missing required fields {absent}")
            continue
        if cat == "span":
            _lint_span(event, where, open_spans, problems)
        elif cat == "prof":
            _lint_prof(event, where, prof_block, problems)
        elif cat == "digest":
            _lint_digest(event, where, digest_block, problems)
        elif name == "ckpt.commit":
            _note_commit(event, where, digest_block, problems)
        elif name == "stats.heartbeat":
            beat = event["beat"]
            if not isinstance(beat, int):
                problems.append(
                    f"{where}: heartbeat beat {beat!r} is not an integer")
            elif last_beat is not None and beat <= last_beat:
                problems.append(
                    f"{where}: heartbeat beat {beat} does not increase "
                    f"(previous {last_beat})")
            else:
                last_beat = beat
    for txn in sorted(open_spans):
        problems.append(
            f"{source}: span.begin for txn {txn} has no matching span.end")
    _finish_prof(f"{source}:<end>", prof_block, problems)
    _finish_digest(f"{source}:<end>", digest_block, problems)
    return problems


def lint_file(path: str) -> List[str]:
    """Lint one JSONL trace file (following rotated segments)."""
    if not os.path.exists(path):
        return [f"{path}: no such trace"]
    try:
        events = read_trace(path)
    except json.JSONDecodeError as exc:
        return [f"{path}: not valid JSONL ({exc})"]
    if not events:
        return [f"{path}: trace is empty"]
    return lint_events(events, source=os.path.basename(path))
