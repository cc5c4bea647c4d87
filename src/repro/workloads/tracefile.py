"""Reference-trace recording and replay.

Any workload's per-processor chunk streams can be serialised to a
compact ``.npz`` trace file and replayed later — useful for archiving
the exact streams behind a published measurement, for diffing two
generator versions, or for driving the simulator with traces produced
outside this package (each processor's events are three parallel arrays
plus a control channel for barriers and the warmup marker).

File format (numpy ``.npz``): for each processor ``p`` and chunk index
``i``, arrays ``p{p}_c{i}_gaps``, ``p{p}_c{i}_addrs``,
``p{p}_c{i}_writes``; control chunks are zero-length arrays whose
``kind`` entry in the JSON header distinguishes barriers and markers.
A ``header`` array holds the JSON metadata (name, n_procs, chunk
kinds).

Replayed chunks satisfy the columnar contract (repro.workloads.base):
the arrays handed out by :class:`TraceWorkload` are the loaded ``.npz``
columns themselves, never copied or mutated, with dtypes normalized at
record time (int64 gaps/addresses, bool writes).  A recorded trace is
therefore a valid input to every execution tier, and a record -> replay
round-trip is bit-identical to the live run under the reference loop
and the columnar batch engine alike
(tests/test_columnar.py::TestTracefileRoundtrip).
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List

import numpy as np

from repro.workloads.base import Workload, WorkloadChunk


def record_trace(workload: Workload, path: str) -> Dict[str, int]:
    """Serialise every processor's stream of ``workload`` to ``path``.

    Returns summary statistics (processors, total references).
    """
    arrays: Dict[str, np.ndarray] = {}
    kinds: List[List[str]] = []
    total_refs = 0
    for proc in range(workload.n_procs):
        chunk_kinds: List[str] = []
        for index, chunk in enumerate(workload.stream_for(proc)):
            tag = chunk[0]
            chunk_kinds.append(tag)
            if tag == "ops":
                _tag, gaps, addrs, writes = chunk
                prefix = f"p{proc}_c{index}"
                arrays[f"{prefix}_gaps"] = np.asarray(gaps, dtype=np.int64)
                arrays[f"{prefix}_addrs"] = np.asarray(addrs,
                                                       dtype=np.int64)
                arrays[f"{prefix}_writes"] = np.asarray(writes, dtype=bool)
                total_refs += len(arrays[f"{prefix}_addrs"])
        kinds.append(chunk_kinds)
    header = {
        "name": workload.name,
        "n_procs": workload.n_procs,
        "instructions_per_ref": workload.instructions_per_ref,
        "kinds": kinds,
    }
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8).copy()
    np.savez_compressed(path, **arrays)
    return {"n_procs": workload.n_procs, "total_refs": total_refs}


class TraceWorkload(Workload):
    """A workload replayed from a trace file written by `record_trace`."""

    def __init__(self, path: str) -> None:
        self._data = np.load(path)
        header = json.loads(bytes(self._data["header"]).decode("utf-8"))
        self.name = header["name"]
        self.n_procs = int(header["n_procs"])
        self.instructions_per_ref = float(header["instructions_per_ref"])
        self._kinds: List[List[str]] = header["kinds"]

    def stream_for(self, proc_id: int) -> Iterator[WorkloadChunk]:
        """The chunk stream executed by processor ``proc_id``."""
        if not 0 <= proc_id < self.n_procs:
            raise ValueError(f"no processor {proc_id} in this trace")
        return self._replay(proc_id)

    def _replay(self, proc_id: int) -> Iterator[WorkloadChunk]:
        for index, kind in enumerate(self._kinds[proc_id]):
            if kind == "ops":
                prefix = f"p{proc_id}_c{index}"
                yield ("ops",
                       self._data[f"{prefix}_gaps"],
                       self._data[f"{prefix}_addrs"],
                       self._data[f"{prefix}_writes"])
            else:
                yield (kind,)

    def total_refs_hint(self) -> int:
        """Approximate total references (for progress display)."""
        return sum(int(self._data[k].shape[0])
                   for k in self._data.files if k.endswith("_addrs"))
