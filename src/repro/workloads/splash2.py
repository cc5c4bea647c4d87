"""Synthetic analogs of the twelve Splash-2 applications (Table 4).

*Paper used:* the Splash-2 binaries, executed by an execution-driven
simulator.  *We build:* one :class:`~repro.workloads.synthetic.SyntheticSpec`
per application, shaped after the application's published behaviour
(working sets, sharing style, read/write mix — Woo et al., ISCA '95, and
the paper's own Table 4) and calibrated so the analog's L2 miss rate on
the bench-preset machine lands near the paper's measured value.

The spec constants below are the result of that calibration (see
``tests/test_workload_calibration.py``, which pins the achieved rates).
Reference lengths are proportional to Table 4's instruction counts so
the relative run lengths match the paper's.

Key shapes preserved:

* **FFT, Ocean, Radix** are the three applications whose important
  working sets overflow the L2 — they must show the high miss rates
  (1.8-2.5%), the heavy write-back traffic, and (for FFT/Ocean) the
  nearly-all-dirty caches at checkpoint time that give them the paper's
  worst ReVive overheads.
* **Water-N2 / Water-Sp** are compute-bound with tiny working sets —
  the near-zero overhead end of Figure 8.
* The rest sit in between, with sharing styles matching their
  algorithms (migratory for FMM's cell interactions, producer-consumer
  for LU/Cholesky pipelines, task-queue-style uniform sharing for
  Radiosity/Raytrace).

All twelve analogs inherit the synthetic generator's columnar
contract, and all twelve are pinned bit-identical across the two
execution tiers (reference loop / columnar batch engine) by the tier
oracle in ``tests/test_columnar.py`` — the analog set doubles as the
equivalence corpus because it spans the hit-rate spectrum the columnar
engine's miss-fallout segmentation must handle (water-nsq's ~0% misses
through ocean's ~2%).
"""

from __future__ import annotations

from typing import Dict

from repro.workloads.synthetic import SyntheticSpec

#: Paper's Table 4, for reporting paper-vs-measured: total instructions
#: (millions) and global L2 miss rate (percent).
PAPER_TABLE4: Dict[str, Dict[str, float]] = {
    "barnes":    {"instructions_M": 1230, "l2_miss_pct": 0.05,
                  "problem": "16K particles"},
    "cholesky":  {"instructions_M": 1224, "l2_miss_pct": 0.26,
                  "problem": "tk29.O"},
    "fft":       {"instructions_M": 468,  "l2_miss_pct": 1.78,
                  "problem": "1M points"},
    "fmm":       {"instructions_M": 1002, "l2_miss_pct": 0.24,
                  "problem": "16K particles"},
    "lu":        {"instructions_M": 336,  "l2_miss_pct": 0.07,
                  "problem": "512x512 matrix, 16x16 block"},
    "ocean":     {"instructions_M": 270,  "l2_miss_pct": 2.02,
                  "problem": "258x258 grid"},
    "radiosity": {"instructions_M": 744,  "l2_miss_pct": 0.15,
                  "problem": "-test"},
    "radix":     {"instructions_M": 186,  "l2_miss_pct": 2.51,
                  "problem": "4M keys, radix 1024"},
    "raytrace":  {"instructions_M": 612,  "l2_miss_pct": 0.26,
                  "problem": "car"},
    "volrend":   {"instructions_M": 984,  "l2_miss_pct": 0.29,
                  "problem": "head"},
    "water-n2":  {"instructions_M": 1074, "l2_miss_pct": 0.02,
                  "problem": "1000 molecules"},
    "water-sp":  {"instructions_M": 870,  "l2_miss_pct": 0.02,
                  "problem": "1728 molecules"},
}


def _refs(instructions_m: float) -> int:
    """Per-processor reference count proportional to Table 4's length."""
    return int(60_000 + instructions_m * 45)


#: Calibrated specs (bench-preset machine: 4KB L1 / 32KB L2).
SPLASH2_SPECS: Dict[str, SyntheticSpec] = {
    "barnes": SyntheticSpec(
        name="barnes", refs_per_proc=_refs(1230), phases=6,
        hot_lines=192, stream_lines=0, stream_fraction=0.0,
        shared_lines=96, shared_fraction=0.02, sharing="uniform",
        hot_shared_fraction=0.001, hot_shared_write_fraction=0.01,
        write_fraction=0.25, shared_write_fraction=0.002, seed=101),
    "cholesky": SyntheticSpec(
        name="cholesky", refs_per_proc=_refs(1224), phases=6,
        hot_lines=128, stream_lines=4096, stream_mode="random",
        stream_fraction=0.0015,
        shared_lines=256, shared_fraction=0.05, sharing="producer",
        hot_shared_fraction=0.001, hot_shared_write_fraction=0.02,
        write_fraction=0.3, seed=102),
    "fft": SyntheticSpec(
        name="fft", refs_per_proc=_refs(468), phases=6,
        hot_lines=128, stream_lines=0, stream_fraction=0.0,
        shared_lines=4096, shared_fraction=0.026, sharing="transpose",
        hot_shared_fraction=0.001, hot_shared_write_fraction=0.02,
        write_fraction=0.45, seed=103),
    "fmm": SyntheticSpec(
        name="fmm", refs_per_proc=_refs(1002), phases=6,
        hot_lines=224, stream_lines=0, stream_fraction=0.0,
        shared_lines=512, shared_fraction=0.04, sharing="migratory",
        hot_shared_fraction=0.001, hot_shared_write_fraction=0.02,
        write_fraction=0.25, seed=104),
    "lu": SyntheticSpec(
        name="lu", refs_per_proc=_refs(336), phases=6,
        hot_lines=160, stream_lines=0, stream_fraction=0.0,
        shared_lines=64, shared_fraction=0.03, sharing="producer",
        hot_shared_fraction=0.001, hot_shared_write_fraction=0.01,
        write_fraction=0.35, seed=105),
    "ocean": SyntheticSpec(
        name="ocean", refs_per_proc=_refs(270), phases=6,
        hot_lines=128, stream_lines=2048, stream_mode="random",
        stream_fraction=0.008,
        shared_lines=12288, shared_fraction=0.018, sharing="neighbor",
        hot_shared_fraction=0.001, hot_shared_write_fraction=0.02,
        write_fraction=0.4, shared_write_fraction=0.35, seed=106),
    "radiosity": SyntheticSpec(
        name="radiosity", refs_per_proc=_refs(744), phases=6,
        hot_lines=160, stream_lines=2048, stream_mode="random",
        stream_fraction=0.0008,
        shared_lines=128, shared_fraction=0.03, sharing="uniform",
        hot_shared_fraction=0.001, hot_shared_write_fraction=0.02,
        write_fraction=0.2, shared_write_fraction=0.002, seed=107),
    "radix": SyntheticSpec(
        name="radix", refs_per_proc=_refs(186), phases=6,
        hot_lines=96, stream_lines=8192, stream_mode="random",
        stream_fraction=0.018,
        shared_lines=2048, shared_fraction=0.012, sharing="transpose",
        hot_shared_fraction=0.001, hot_shared_write_fraction=0.02,
        write_fraction=0.8, seed=108),
    "raytrace": SyntheticSpec(
        name="raytrace", refs_per_proc=_refs(612), phases=6,
        hot_lines=160, stream_lines=2048, stream_mode="random",
        stream_fraction=0.0015,
        shared_lines=128, shared_fraction=0.03, sharing="uniform",
        hot_shared_fraction=0.001, hot_shared_write_fraction=0.01,
        write_fraction=0.08, shared_write_fraction=0.002, seed=109),
    "volrend": SyntheticSpec(
        name="volrend", refs_per_proc=_refs(984), phases=6,
        hot_lines=160, stream_lines=2048, stream_mode="random",
        stream_fraction=0.002,
        shared_lines=128, shared_fraction=0.03, sharing="uniform",
        hot_shared_fraction=0.001, hot_shared_write_fraction=0.01,
        write_fraction=0.1, shared_write_fraction=0.002, seed=110),
    "water-n2": SyntheticSpec(
        name="water-n2", refs_per_proc=_refs(1074), phases=6,
        hot_lines=160, stream_lines=0, stream_fraction=0.0,
        shared_lines=64, shared_fraction=0.01, sharing="migratory",
        hot_shared_fraction=0.0005, hot_shared_write_fraction=0.01,
        write_fraction=0.3, burst_every=48, burst_ns=150, seed=111),
    "water-sp": SyntheticSpec(
        name="water-sp", refs_per_proc=_refs(870), phases=6,
        hot_lines=160, stream_lines=0, stream_fraction=0.0,
        shared_lines=64, shared_fraction=0.01, sharing="neighbor",
        hot_shared_fraction=0.0005, hot_shared_write_fraction=0.01,
        write_fraction=0.3, shared_write_fraction=0.05,
        burst_every=48, burst_ns=150, seed=112),
}
