"""Parameterized synthetic workload generator.

A :class:`SyntheticSpec` describes a program as the composition of four
reference populations, issued over a number of barrier-delimited phases:

* a **hot** private working set (fits in cache — register/stack/local
  state re-use);
* a **streamed** private region, much larger than the L2, accessed
  randomly, stridedly, or zipf-skewed — the capacity-miss driver that
  positions an application's L2 miss rate;
* a **shared** region divided into per-processor shards, accessed
  according to one of five sharing styles (uniform, nearest-neighbour
  stencil, all-to-all transpose, migratory objects, producer-consumer);
* occasional **hot shared** lines (locks, reduction scalars).

ReVive's overheads are functions of the reference stream's statistics —
write-back rate, first-write rate, dirty-cache population, sharing —
so matching those statistics to a Splash-2 application's (Table 4)
reproduces its overhead profile without executing the original binary.
See DESIGN.md §3 for the substitution argument.

Generated chunks satisfy the columnar contract (repro.workloads.base):
each ``("ops", ...)`` chunk is materialized as fresh int64/bool numpy
arrays that the generator never touches again, so the columnar batch
engine may cache derived columns against chunk identity.  Generation
is pure in (spec, proc_id) — each stream seeds its own PRNG from those
alone — which is what makes ``replay_stream`` and tier-switching
snapshot restores exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Tuple

import numpy as np

from repro.workloads import patterns
from repro.workloads.base import (
    SHARED_BASE,
    Workload,
    WorkloadChunk,
    private_base,
)

LINE = patterns.LINE
_CHUNK = 8192

SHARING_STYLES = ("uniform", "neighbor", "transpose", "migratory",
                  "producer")
STREAM_MODES = ("random", "stride", "zipf")


@dataclass(frozen=True)
class SyntheticSpec:
    """Full description of one synthetic workload."""

    name: str
    n_procs: int = 16
    refs_per_proc: int = 100_000
    phases: int = 4

    # private populations
    hot_lines: int = 64                # per-proc hot set (lines)
    stream_lines: int = 0              # per-proc big region (lines); 0 = off
    stream_mode: str = "random"
    stream_fraction: float = 0.0       # share of refs into the big region

    # shared populations
    shared_lines: int = 4096           # total shared region (lines)
    shared_fraction: float = 0.2
    sharing: str = "uniform"
    hot_shared_lines: int = 8
    hot_shared_fraction: float = 0.01
    hot_shared_write_fraction: float = 0.05

    # write mix and timing
    write_fraction: float = 0.3
    shared_write_fraction: float = 0.3
    gap_ns: int = 1
    burst_every: int = 0               # 0 = no compute bursts
    burst_ns: int = 200

    instructions_per_ref: float = 2.0
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.sharing not in SHARING_STYLES:
            raise ValueError(f"unknown sharing style {self.sharing!r}")
        if self.stream_mode not in STREAM_MODES:
            raise ValueError(f"unknown stream mode {self.stream_mode!r}")
        fractions = (self.stream_fraction, self.shared_fraction,
                     self.hot_shared_fraction)
        if any(not 0.0 <= f <= 1.0 for f in fractions) \
                or sum(fractions) > 1.0:
            raise ValueError("population fractions must sum to <= 1")
        if self.phases < 1 or self.refs_per_proc < self.phases:
            raise ValueError("need at least one reference per phase")
        if self.n_procs < 1:
            raise ValueError("n_procs must be positive")

    def scaled(self, factor: float) -> "SyntheticSpec":
        """Same behaviour, ``factor``-times the references (run length)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(self,
                       refs_per_proc=max(self.phases,
                                         int(self.refs_per_proc * factor)))


class SyntheticWorkload(Workload):
    """Executable workload built from a :class:`SyntheticSpec`."""

    def __init__(self, spec: SyntheticSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.n_procs = spec.n_procs
        self.instructions_per_ref = spec.instructions_per_ref

    def total_refs_hint(self) -> int:
        """Approximate total references (for progress display)."""
        return self.spec.refs_per_proc * self.spec.n_procs

    # -- stream construction ----------------------------------------------

    def stream_for(self, proc_id: int) -> Iterator[WorkloadChunk]:
        """The chunk stream executed by processor ``proc_id``."""
        if not 0 <= proc_id < self.n_procs:
            raise ValueError(f"no processor {proc_id} in this workload")
        return self._generate(proc_id)

    def _generate(self, proc_id: int) -> Iterator[WorkloadChunk]:
        spec = self.spec
        rng = np.random.default_rng((spec.seed, proc_id))

        # First-touch phase: walk the private regions and the processor's
        # own shared shard once, with writes, so pages home locally.
        # The warmup marker after the barrier resets rate statistics so
        # measurements reflect steady state, not compulsory misses.
        yield from self._emit(rng, *self._first_touch(proc_id))
        yield ("barrier",)
        yield ("warmup_done",)

        per_phase = spec.refs_per_proc // spec.phases
        stream_cursor = 0
        for phase in range(spec.phases):
            addrs, writes = self._phase_population(rng, proc_id, phase,
                                                   per_phase, stream_cursor)
            stream_cursor += int(len(addrs) * spec.stream_fraction)
            yield from self._emit(rng, addrs, writes)
            yield ("barrier",)

    # -- populations ----------------------------------------------------------

    def _first_touch(self, proc_id: int) -> Tuple[np.ndarray, np.ndarray]:
        spec = self.spec
        pieces = [patterns.strided_sweep(private_base(proc_id),
                                         spec.hot_lines, spec.hot_lines)]
        if spec.stream_lines:
            pieces.append(patterns.strided_sweep(
                self._stream_base(proc_id), spec.stream_lines,
                spec.stream_lines))
        shard_lines, shard_base = self._shard(proc_id)
        if shard_lines:
            pieces.append(patterns.strided_sweep(shard_base, shard_lines,
                                                 shard_lines))
        addrs = np.concatenate(pieces)
        writes = np.ones(len(addrs), dtype=bool)
        if spec.sharing == "uniform" and spec.shared_lines:
            # Read-shared data (scene, mesh, task structures) is walked
            # once by everyone during initialisation, so steady-state
            # measurements see re-use rather than cold misses.
            warm = patterns.strided_sweep(
                SHARED_BASE + spec.hot_shared_lines * LINE,
                spec.shared_lines, spec.shared_lines)
            addrs = np.concatenate([addrs, warm])
            writes = np.concatenate([writes,
                                     np.zeros(len(warm), dtype=bool)])
        return addrs, writes

    def _phase_population(self, rng: np.random.Generator, proc_id: int,
                          phase: int, count: int,
                          stream_cursor: int) -> Tuple[np.ndarray, np.ndarray]:
        spec = self.spec
        n_stream = int(count * spec.stream_fraction)
        n_shared = int(count * spec.shared_fraction)
        n_hot_shared = int(count * spec.hot_shared_fraction)
        n_hot = max(0, count - n_stream - n_shared - n_hot_shared)

        addr_parts: List[np.ndarray] = []
        write_parts: List[np.ndarray] = []

        if n_hot:
            addr_parts.append(patterns.zipf_lines(
                rng, private_base(proc_id), spec.hot_lines, n_hot))
            write_parts.append(patterns.write_mask(rng, n_hot,
                                                   spec.write_fraction))
        if n_stream:
            addr_parts.append(self._stream_addresses(
                rng, proc_id, n_stream, stream_cursor))
            write_parts.append(patterns.write_mask(rng, n_stream,
                                                   spec.write_fraction))
        if n_shared:
            shared_addrs, shared_writes = self._shared_addresses(
                rng, proc_id, phase, n_shared)
            addr_parts.append(shared_addrs)
            write_parts.append(shared_writes)
        if n_hot_shared:
            addr_parts.append(patterns.hot_lines(
                rng, SHARED_BASE, spec.hot_shared_lines, n_hot_shared))
            write_parts.append(patterns.write_mask(
                rng, n_hot_shared, spec.hot_shared_write_fraction))

        addrs = np.concatenate(addr_parts)
        writes = np.concatenate(write_parts)
        order = rng.permutation(len(addrs))
        return addrs[order], writes[order]

    def _stream_base(self, proc_id: int) -> int:
        # The streamed region sits above the hot set in the private segment.
        return private_base(proc_id) + self.spec.hot_lines * LINE

    def _stream_addresses(self, rng: np.random.Generator, proc_id: int,
                          count: int, cursor: int) -> np.ndarray:
        spec = self.spec
        base = self._stream_base(proc_id)
        if spec.stream_mode == "stride":
            return patterns.strided_sweep(base, spec.stream_lines, count,
                                          start_line=cursor)
        if spec.stream_mode == "zipf":
            return patterns.zipf_lines(rng, base, spec.stream_lines, count)
        return patterns.random_lines(rng, base, spec.stream_lines, count)

    # -- sharing styles -------------------------------------------------------

    def _shard(self, proc_id: int) -> Tuple[int, int]:
        """(lines, base address) of this processor's shared shard."""
        spec = self.spec
        shard_lines = spec.shared_lines // spec.n_procs
        # Shards start above the hot shared lines.
        base = SHARED_BASE + (spec.hot_shared_lines
                              + proc_id * shard_lines) * LINE
        return shard_lines, base

    def _shared_addresses(self, rng: np.random.Generator, proc_id: int,
                          phase: int,
                          count: int) -> Tuple[np.ndarray, np.ndarray]:
        spec = self.spec
        style = spec.sharing
        n = spec.n_procs
        shard_lines, _ = self._shard(proc_id)
        if shard_lines == 0 or style == "uniform":
            addrs = patterns.random_lines(
                rng, SHARED_BASE + spec.hot_shared_lines * LINE,
                max(1, spec.shared_lines), count)
            return addrs, patterns.write_mask(rng, count,
                                              spec.shared_write_fraction)

        if style == "neighbor":
            # Stencil: mostly own shard, plus the boundary lines of the
            # two neighbouring shards (Ocean's nearest-neighbour rows).
            n_own = int(count * 0.85)
            own = patterns.random_lines(rng, self._shard(proc_id)[1],
                                        shard_lines, n_own)
            borders = []
            for neighbor in ((proc_id - 1) % n, (proc_id + 1) % n):
                _lines, base = self._shard(neighbor)
                borders.append(patterns.random_lines(
                    rng, base, max(1, shard_lines // 8),
                    (count - n_own) // 2))
            addrs = np.concatenate([own] + borders)
            writes = np.concatenate([
                patterns.write_mask(rng, len(own),
                                    spec.shared_write_fraction),
                np.zeros(len(addrs) - len(own), dtype=bool),  # reads only
            ])
            return addrs, writes

        if style == "transpose":
            # All-to-all: read the shard phase-steps away, write your own
            # (FFT / Radix permutation phases).
            src = (proc_id + phase + 1) % n
            half = count // 2
            reads = patterns.strided_sweep(self._shard(src)[1], shard_lines,
                                           half)
            own_writes = patterns.strided_sweep(self._shard(proc_id)[1],
                                                shard_lines, count - half)
            addrs = np.concatenate([reads, own_writes])
            writes = np.concatenate([np.zeros(half, dtype=bool),
                                     np.ones(count - half, dtype=bool)])
            return addrs, writes

        if style == "migratory":
            # Objects move between processors phase to phase and are
            # read-modified-written by their current holder.
            holder_shard = (proc_id + phase) % n
            addrs = patterns.random_lines(rng, self._shard(holder_shard)[1],
                                          shard_lines, count)
            return addrs, patterns.write_mask(rng, count, 0.5)

        assert style == "producer"
        if phase % 2 == 0:
            addrs = patterns.strided_sweep(self._shard(proc_id)[1],
                                           shard_lines, count)
            return addrs, np.ones(count, dtype=bool)
        upstream = (proc_id - 1) % n
        addrs = patterns.strided_sweep(self._shard(upstream)[1], shard_lines,
                                       count)
        return addrs, np.zeros(count, dtype=bool)

    # -- chunk emission -------------------------------------------------------

    def _emit(self, rng: np.random.Generator, addrs: np.ndarray,
              writes: np.ndarray) -> Iterator[WorkloadChunk]:
        spec = self.spec
        for start in range(0, len(addrs), _CHUNK):
            stop = min(start + _CHUNK, len(addrs))
            n = stop - start
            if spec.burst_every:
                gaps = patterns.bursty_gaps(rng, n, spec.gap_ns,
                                            spec.burst_every, spec.burst_ns)
            else:
                gaps = patterns.constant_gaps(n, spec.gap_ns)
            yield ("ops", gaps, addrs[start:stop], writes[start:stop])
