"""Span tracing for the benchmark's per-layer run.

The benchmark does not instrument the simulator from the inside.  It
wraps, from its own files, the public entry points of each layer of
``repro`` (:data:`WRAPPED`), and records one span per call: name, start,
end, parent span and op id.  Spans stay in memory as flat columns and
are written out once, when the run ends (:meth:`SpanRecorder.save`).

A layer's self time is its spans' durations minus the part covered by
their child spans (:func:`self_times`).  Because every span has exactly
one parent and children nest inside it, the self times of one op's
spans sum to that op's root span.  That sum holds by construction; the
runner also checks it, which catches spans filed under the wrong op.

Wrappers go on the classes, not on instances, and must be installed
before a machine is built: the columnar tier binds
``machine.protocol.read``/``write`` when it first runs, so a patch made
after that would be missed.  ``build_machine`` is patched in both
modules the workloads reach it through, since ``harness.campaign``
imported it by name.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

#: Layer of the op's own root span: what the benchmark itself does
#: between calls into the program (result collection and the like).
ROOT = "bench"

#: (module, owner, attribute, layer) of every wrapped call.  ``owner``
#: is a class name, or None for a module-level function.
WRAPPED: Tuple[Tuple[str, object, str, str], ...] = (
    ("repro.machine.system", "Machine", "run", "sim"),
    ("repro.cpu.processor", "Processor", "__call__", "cpu"),
    ("repro.coherence.protocol", "ProtocolEngine", "read", "coherence"),
    ("repro.coherence.protocol", "ProtocolEngine", "write", "coherence"),
    ("repro.coherence.protocol", "ProtocolEngine", "writeback",
     "coherence"),
    ("repro.core.controller", "ReViveController", "on_store_intent",
     "core.revive"),
    ("repro.core.controller", "ReViveController", "on_memory_write",
     "core.revive"),
    ("repro.core.checkpoint", "CheckpointCoordinator", "run_checkpoint",
     "core.checkpoint"),
    ("repro.core.recovery", "RecoveryManager", "recover", "core.recovery"),
    ("repro.network.network", "Network", "send", "network"),
    ("repro.machine.system", "Machine", "restore", "machine.restore"),
    ("repro.machine.system", "Machine", "attach_workload", "machine.build"),
    ("repro.harness.runner", None, "build_machine", "machine.build"),
    ("repro.harness.campaign", None, "build_machine", "machine.build"),
    ("repro.harness.store", "ResultStore", "get", "harness.store"),
    ("repro.harness.store", "ResultStore", "put", "harness.store"),
    ("repro.harness.campaign", None, "run_campaign", "harness.campaign"),
    ("repro.workloads.base", "Workload", "replay_stream", "workloads"),
)

#: Every layer a span can belong to, root first.
LAYERS: Tuple[str, ...] = (ROOT,) + tuple(dict.fromkeys(
    layer for *_, layer in WRAPPED))


class SpanRecorder:
    """In-memory span columns plus the open-span stack."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1

    def name_id(self, name: str) -> int:
        """The integer id of a span name, assigning one if new."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        """Open a span under the innermost open one; returns its index."""
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        """Close the innermost open span, which must be ``idx``."""
        self.end[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("span closed out of order")

    def __len__(self) -> int:
        return len(self.start)

    def columns(self) -> Dict[str, np.ndarray]:
        """The spans as numpy columns (name ids index :attr:`names`)."""
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: str) -> None:
        """Write every span to ``path`` as an ``.npz`` of columns."""
        np.savez(path, names=np.array(self.names), **self.columns())


def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    ``parent`` holds each span's parent index, -1 for a root.  Children
    of one span never overlap (calls are nested, single-threaded), so
    the time they cover is the sum of their durations.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


def layer_self_times(recorder: SpanRecorder, layer_of: Dict[str, str],
                     ) -> Dict[int, Dict[str, float]]:
    """Self seconds per op id and layer, over every recorded span."""
    cols = recorder.columns()
    own = self_times(cols["parent"], cols["start"], cols["end"])
    layer_ids = np.array([LAYERS.index(layer_of.get(name, ROOT))
                          for name in recorder.names], dtype=np.int64)
    span_layer = layer_ids[cols["name"]]
    per_op: Dict[int, Dict[str, float]] = {}
    for op_id in np.unique(cols["op"]):
        mask = cols["op"] == op_id
        sums = np.bincount(span_layer[mask], weights=own[mask],
                           minlength=len(LAYERS))
        per_op[int(op_id)] = dict(zip(LAYERS, sums.tolist()))
    return per_op


def root_durations(recorder: SpanRecorder) -> Dict[int, float]:
    """Wall seconds of each op's root span, by op id."""
    cols = recorder.columns()
    roots = np.flatnonzero(cols["parent"] < 0)
    return {int(cols["op"][i]): float(cols["end"][i] - cols["start"][i])
            for i in roots}


def _span_wrapper(recorder: SpanRecorder, name: str,
                  fn: Callable) -> Callable:
    nid = recorder.name_id(name)
    open_span, close_span = recorder.open, recorder.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = open_span(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            close_span(idx)

    return traced


def traced_stream(recorder: SpanRecorder, nid: int, stream):
    """Re-yield ``stream``, timing each ``next`` as its own span."""
    open_span, close_span = recorder.open, recorder.close
    while True:
        idx = open_span(nid)
        try:
            chunk = next(stream)
        except StopIteration:
            return
        finally:
            close_span(idx)
        yield chunk


class Instrumentation:
    """Installs and removes the span wrappers on ``repro``'s layers.

    :meth:`add_hook` adds a plain (untimed) wrapper that runs a callback
    before or after a call; ``layers.Probe`` counts work with them
    (the machines an op builds, the references their runs make).  Hooks
    wrap whatever the attribute holds at install time, so they sit
    outside the span wrappers and their small cost lands in the
    caller's self time.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        import importlib

        from repro.workloads.synthetic import SyntheticWorkload

        self.recorder = recorder
        self.layer_of: Dict[str, str] = {}
        self._spans: List[Tuple[object, str, Callable]] = []
        for module_name, owner, attr, layer in WRAPPED:
            module = importlib.import_module(module_name)
            target = getattr(module, owner) if owner else module
            name = f"{owner}.{attr}" if owner else attr
            self.layer_of[name] = layer
            self._spans.append((target, attr, _span_wrapper(
                recorder, name, getattr(target, attr))))
        name = "SyntheticWorkload.stream_for"
        self.layer_of[name] = "workloads"
        self._stream_nid = recorder.name_id(name)
        self._spans.append((SyntheticWorkload, "stream_for", _stream_wrapper(
            recorder, self._stream_nid, SyntheticWorkload.stream_for)))
        self._hooks: List[Tuple[object, str, Callable, Callable]] = []
        self._saved: List[Tuple[object, str, object]] = []

    def add_hook(self, target, attr: str, before: Callable = None,
                 after: Callable = None) -> None:
        """Call ``before(*args)`` / ``after(result, *args)`` around
        ``target.attr`` while installed."""
        self._hooks.append((target, attr, before, after))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        for target, attr, wrapped in self._spans:
            self._saved.append((target, attr, target.__dict__[attr]))
            setattr(target, attr, wrapped)
        for target, attr, before, after in self._hooks:
            self._saved.append((target, attr, target.__dict__[attr]))
            setattr(target, attr,
                    _hook_wrapper(getattr(target, attr), before, after))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()


def _stream_wrapper(recorder: SpanRecorder, nid: int,
                    fn: Callable) -> Callable:
    @functools.wraps(fn)
    def stream_for(workload, proc_id):
        return traced_stream(recorder, nid, fn(workload, proc_id))

    return stream_for


def _hook_wrapper(fn: Callable, before: Callable,
                  after: Callable) -> Callable:
    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        if before is not None:
            before(*args)
        result = fn(*args, **kwargs)
        if after is not None:
            after(result, *args)
        return result

    return hooked


def shares(layer_seconds: Dict[str, float]) -> Dict[str, float]:
    """Each layer's fraction of the summed self time."""
    total = sum(layer_seconds.values())
    return {layer: (seconds / total if total else 0.0)
            for layer, seconds in layer_seconds.items()}


def sum_layers(per_op: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Layer-wise sum of several ops' self times."""
    total = dict.fromkeys(LAYERS, 0.0)
    for op in per_op:
        for layer, seconds in op.items():
            total[layer] += seconds
    return total
