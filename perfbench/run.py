"""Benchmark of the ReVive simulator: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hits --seed 1 --seconds 20 --trace 0

Workloads (see ``suite.py`` for why each was chosen): ``hits``,
``misses``, ``revive``, ``recovery``.  Everything runs serially in this
one process: set-up, an untimed op that is checked in full, then timed
ops back to back until ``--seconds`` have passed, then a full check of
the last op.  Ops rotate over the inputs the workload draws from the
seed.  Every op's output fingerprint must equal that of the first op on
the same input, and for the default seed also the recorded one.

``--trace 0`` prints the end-to-end metrics, all measured untraced:

* ``setup_s`` -- the median of :data:`SETUP_SAMPLES` set-ups spread
  over the run, each a fresh interpreter importing the simulator plus
  the workload's own set-up (seeded inputs; for ``recovery`` also the
  warm image build and store publish);
* ``refs_per_s`` / ``scenarios_per_s`` -- simulated references and
  completed scenarios per host second: the work of one op on each input
  over the sum of the inputs' mean op times.  Per-op work is fixed by
  the input, so the two are the same timing in two units and move
  together;
* ``peak_rss_mb`` -- the process's peak resident set.

``--trace 1`` alternates untraced and traced ops (``tracing.py``) and
prints the per-layer metrics instead; the spans are written to
``.perfbench/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")

#: Set-up samples per run: one before the first op, one after each op
#: that crosses a quarter of the run, and one after the last op.  Their
#: median is ``setup_s``; spreading them over the run keeps one slow or
#: fast stretch of the host from deciding it.
SETUP_SAMPLES = 5

#: What a fresh process imports before it can run a workload.
IMPORT_PROBE = (f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; "
                f"import layers, suite")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def describe(label: str, values) -> str:
    return (f"{label}: mean {statistics.mean(values):.6f} s  "
            f"median {statistics.median(values):.6f} s  "
            f"p90 {quantile(values, 0.9):.6f} s  n {len(values)}  "
            f"samples {' '.join(f'{v:.6f}' for v in values)}")


class Run:
    """One benchmark run: set-up, reference op, timed ops, checks.

    Ops rotate over the workload's inputs.  The first op on an input is
    its reference: every later op on that input must reproduce its
    fingerprint, and with the default seed it must equal the recorded
    one.
    """

    def __init__(self, workload, seed: int, seconds: float, scratch: str,
                 recorded: list = None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        #: Recorded fingerprints of the inputs, or None.
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0
        #: Reference outcome of each input that has had an op.
        self.references = {}

    @staticmethod
    def fail(message: str) -> None:
        print(f"FAILED: {message}", file=sys.stderr)

    def setup(self) -> float:
        """Set up once: a fresh process's imports, then the workload's
        own set-up.  Returns the seconds both took."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True)
        self.workload.prepare(self.seed, self.scratch)
        return time.perf_counter() - start

    def op(self, index: int, check: bool = False):
        """Run one op on input ``index``; returns its outcome, or None
        when it failed."""
        self.attempted += 1
        try:
            outcome = self.workload.run_op(index)
        except Exception:  # an op that raises is a failed op
            self.failed += 1
            self.fail(f"op {self.attempted} raised\n"
                      f"{traceback.format_exc()}")
            return None
        problems = self.workload.check(outcome) if check else []
        reference = self.references.get(index)
        if reference is None:
            # Keep what later ops are compared with, not the machine.
            self.references[index] = dataclasses.replace(
                outcome, machine=None, result=None)
            recorded = self.recorded[index] if self.recorded else None
            if recorded not in (None, outcome.fingerprint):
                problems.append(f"fingerprint {outcome.fingerprint} of "
                                f"input {index} is not the recorded "
                                f"{recorded}")
        elif outcome.fingerprint != reference.fingerprint:
            problems.append(f"fingerprint {outcome.fingerprint} differs "
                            f"from input {index}'s reference op")
        if problems:
            self.failed += 1
            for problem in problems:
                self.fail(f"op {self.attempted}: {problem}")
            return None
        return outcome

    def timed_ops(self, run_one, minimum: int, between=None):
        """Call ``run_one(i)`` until ``seconds`` pass, at least
        ``minimum`` times.

        ``between(elapsed)`` runs after each op; its own time does not
        count towards ``seconds``.  The garbage of earlier ops is
        collected before each op, so an op pays for the collections its
        own allocations trigger and not for its predecessors'.
        """
        started = time.perf_counter()
        paused = 0.0
        index = 0
        last = None
        while (index < minimum
               or time.perf_counter() - started - paused < self.seconds):
            gc.collect()
            last = run_one(index) or last
            index += 1
            if between is not None:
                pause = time.perf_counter()
                between(pause - started - paused)
                paused += time.perf_counter() - pause
        return last

    def check_last(self, outcome) -> None:
        """Fully check the last successful op, outside the timed region."""
        problems = [] if outcome is None else self.workload.check(outcome)
        if problems:
            self.failed += 1
        for problem in problems:
            self.fail(f"last op: {problem}")

    def result(self, metrics) -> dict:
        return {"correct": self.failed == 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def untimed_reference(run: Run) -> None:
    """Warm up on input 0 and check it in full; exit if it fails."""
    if run.op(0, check=True) is None:
        raise SystemExit("reference op failed; nothing to measure")


def measure(run: Run) -> dict:
    """The end-to-end metrics, tracing off."""
    setups = [run.setup()]
    run.workload.verify_setup()
    untimed_reference(run)
    marks = [run.seconds * (i + 1) / (SETUP_SAMPLES - 1)
             for i in range(SETUP_SAMPLES - 2)]
    n_inputs = run.workload.n_inputs
    times = {index: [] for index in range(n_inputs)}

    def one(op_index):
        index = op_index % n_inputs
        start = time.perf_counter()
        outcome = run.op(index)
        if outcome is not None:
            times[index].append(time.perf_counter() - start)
        return outcome

    def between(elapsed):
        if marks and elapsed >= marks[0]:
            marks.pop(0)
            setups.append(run.setup())

    run.check_last(run.timed_ops(one, max(3, n_inputs), between))
    setups.append(run.setup())
    measured = [index for index in times if times[index]]
    if not measured:
        raise SystemExit("no op succeeded")
    print(describe("setup", setups))
    print(describe("op", [t for index in measured for t in times[index]]))
    # Work over time, each input weighted equally: the work of one op on
    # every input, over the mean op time of each.
    op_s = sum(statistics.mean(times[index]) for index in measured)
    refs = sum(run.references[index].refs for index in measured)
    scenarios = sum(run.references[index].scenarios for index in measured)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "refs_per_s": {"value": refs / op_s, "unit": "1/s"},
        "scenarios_per_s": {"value": scenarios / op_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def trace(run: Run, span_path: str) -> dict:
    """The per-layer metrics: traced ops alternating with untraced ones."""
    import layers

    run.workload.prepare(run.seed, run.scratch)
    run.workload.verify_setup()
    untimed_reference(run)
    probe = layers.Probe()
    untraced, traced_ops = [], []

    def one(op_index):
        # Each input gets an untraced op, then a traced one.
        index = (op_index // 2) % run.workload.n_inputs
        if op_index % 2 == 0:
            start = time.perf_counter()
            outcome = run.op(index)
            if outcome is not None:
                untraced.append(time.perf_counter() - start)
            return outcome
        with probe.op():
            outcome = run.op(index)
        if outcome is not None:
            traced_ops.append(dataclasses.replace(outcome, machine=None))
        return outcome

    run.check_last(run.timed_ops(one, 2 * run.workload.n_inputs))
    probe.recorder.save(span_path)
    for problem in probe.reconcile():
        run.failed += 1
        run.fail(problem)
    if not untraced or not traced_ops:
        raise SystemExit("no traced or untraced op succeeded")
    print(describe("untraced op", untraced))
    print(describe("traced op", probe.op_seconds()))
    metrics = probe.metrics(traced_ops, statistics.mean(untraced),
                            statistics.mean(probe.op_seconds()))
    for line in probe.share_table():
        print(line)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import suite

    if args.workload not in suite.WORKLOAD_NAMES:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(suite.WORKLOAD_NAMES)}", file=sys.stderr)
        return 2
    seed = suite.DEFAULT_SEED if args.seed is None else args.seed
    out_dir = os.path.join(os.getcwd(), ".perfbench")
    scratch = os.path.join(out_dir, f"scratch-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        recorded = (suite.recorded_fingerprints()[args.workload]
                    if seed == suite.DEFAULT_SEED else None)
        run = Run(suite.make_workload(args.workload), seed, args.seconds,
                  scratch, recorded)
        if args.trace:
            span_path = os.path.join(
                out_dir, f"spans-{args.workload}-seed{seed}.npz")
            metrics = trace(run, span_path)
        else:
            metrics = measure(run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(run.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
