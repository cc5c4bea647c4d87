"""Determinism observatory tests (docs/OBSERVABILITY.md).

The digest chain is only useful if two properties hold: *invariance*
(anything the repo promises is bit-identical — execution tiers, sweep
workers, snapshot restores — must produce byte-equal chains) and
*sensitivity* (an actual divergence must change the chain, and the
diff machinery must localize it to the right window, component, and
event).  These tests pin both, plus the canonical encoding the hashes
are built from — silently changing the encoding would invalidate every
stored side-channel file.
"""

from __future__ import annotations

import pytest

from repro.harness.observe import Observe
from repro.harness.runner import build_machine, tiny_revive_overrides
from repro.machine.config import MachineConfig
from repro.obs.digest import (DIGEST_SCHEMA, GENESIS, DigestChain,
                              DigestRecorder, canonical_bytes,
                              component_digest, digest_value,
                              first_divergence, merge_sweep_digests,
                              packed_ints_digest, window_digest)
from repro.workloads.registry import get_workload

INTERVAL_NS = 50_000
SCALE = 0.05
NODES = 4

#: The perturbed store counter used throughout: early enough that the
#: flip lands inside the first checkpoint interval.
PERTURB = 100


def build(app="lu", variant="cp_parity", perturb=None):
    machine = build_machine(variant, MachineConfig.tiny(NODES),
                            INTERVAL_NS, **tiny_revive_overrides(NODES))
    machine.attach_workload(get_workload(app, scale=SCALE,
                                         n_procs=NODES))
    if perturb is not None:
        # Must land before the first run: the compiled fast paths
        # hoist the perturbation at bind time.
        machine.perturb_store = perturb
    return machine


def run_digested(app="lu", variant="cp_parity", perturb=None,
                 tier=None) -> DigestChain:
    """One digested run; returns its chain."""
    machine = build(app, variant, perturb)
    if tier is not None:
        for proc in machine.processors:
            proc.columnar = tier == "columnar"
    machine.install_digests(DigestRecorder(None))
    machine.record_digest(0)
    machine.run()
    return machine.digests.chain


class TestCanonicalEncoding:
    def test_sorted_keys_no_whitespace(self):
        assert canonical_bytes({"b": 1, "a": [2, None]}) \
            == b'{"a":[2,null],"b":1}'

    def test_integer_keys_become_decimal_strings(self):
        assert canonical_bytes({10: "x", 2: "y"}) == b'{"2":"y","10":"x"}'

    def test_sets_are_sorted_into_lists(self):
        assert digest_value({"s": {3, 1, 2}}) == digest_value({"s": [1, 2, 3]})

    def test_unencodable_values_raise(self):
        with pytest.raises(TypeError, match="cannot canonicalize"):
            canonical_bytes({"x": object()})

    def test_packed_ints_shape_independent(self):
        # Same integer sequence, any iterable shape: dict views, the
        # restore-rebuilt list, a generator — one digest.
        buckets = {100: 7, 101: 3, 102: 9}
        assert packed_ints_digest(buckets.values()) \
            == packed_ints_digest(list(buckets.values())) \
            == packed_ints_digest(v for v in (7, 3, 9))

    def test_packed_ints_order_sensitive(self):
        assert packed_ints_digest([1, 2]) != packed_ints_digest([2, 1])

    def test_component_digest_prefers_digest_state_hook(self):
        class Hooked:
            def snapshot(self):  # pragma: no cover - must not be called
                raise AssertionError("hook should win")

            def digest_state(self):
                return {"x": 1}

        class Plain:
            def snapshot(self):
                return {"x": 1}

        assert component_digest(Hooked()) == component_digest(Plain()) \
            == digest_value({"x": 1})


class TestDigestChain:
    def test_empty_chain_tip_is_genesis(self):
        assert DigestChain().tip == GENESIS

    def test_append_links_windows(self):
        chain = DigestChain()
        first = chain.append({"engine": "a" * 64}, epoch=0, ts=0)
        second = chain.append({"engine": "b" * 64}, epoch=1, ts=50)
        assert first["prev"] == GENESIS
        assert second["prev"] == first["machine"]
        assert second["window"] == 1
        assert second["machine"] == window_digest(first["machine"],
                                                  {"engine": "b" * 64})
        assert chain.tip == second["machine"]
        assert len(chain) == 2

    def test_jsonable_round_trip(self):
        chain = DigestChain()
        chain.append({"engine": "a" * 64}, epoch=0, ts=0)
        doc = chain.to_jsonable()
        assert doc["schema"] == DIGEST_SCHEMA
        assert DigestChain.from_jsonable(doc) == chain

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            DigestChain.from_jsonable({"schema": 999, "windows": []})

    def two_chains(self):
        a, b = DigestChain(), DigestChain()
        for chain in (a, b):
            chain.append({"engine": "a" * 64, "node0.memory": "b" * 64},
                         epoch=0, ts=0)
        return a, b

    def test_first_divergence_none_for_equal_chains(self):
        a, b = self.two_chains()
        assert first_divergence(a.windows, b.windows) is None

    def test_first_divergence_names_window_and_component(self):
        a, b = self.two_chains()
        a.append({"engine": "c" * 64, "node0.memory": "d" * 64},
                 epoch=1, ts=50)
        b.append({"engine": "c" * 64, "node0.memory": "e" * 64},
                 epoch=1, ts=50)
        div = first_divergence(a.windows, b.windows)
        assert div["window"] == 1 and div["epoch"] == 1
        assert div["component"] == "node0.memory"
        assert div["a"] == "d" * 64 and div["b"] == "e" * 64

    def test_prefix_divergence_has_no_component(self):
        a, b = self.two_chains()
        b.append({"engine": "c" * 64}, epoch=1, ts=50)
        div = first_divergence(a.windows, b.windows)
        assert div["window"] == 1 and div["component"] is None
        assert div["a"] is None and div["b"] is not None

    def test_merge_sweep_digests_shape(self):
        a, _ = self.two_chains()
        doc = merge_sweep_digests(["lu__cp_parity"], [a.to_jsonable()])
        assert doc == {"schema": DIGEST_SCHEMA,
                       "jobs": [{"label": "lu__cp_parity",
                                 "digest": a.to_jsonable()}]}


class TestRunInvariance:
    """Equal runs must produce byte-equal chains — the repo's
    bit-identical determinism invariant, made checkable."""

    def test_identical_runs_identical_chains(self):
        first, second = run_digested(), run_digested()
        assert len(first) >= 2, "run too short to exercise the chain"
        assert first == second

    def test_chain_is_identical_across_tiers(self):
        reference = run_digested(tier="reference")
        columnar = run_digested(tier="columnar")
        assert len(reference) >= 2
        assert reference == columnar

    def test_serial_and_parallel_sweeps_merge_identically(self):
        from repro.harness.parallel import run_sweep

        kwargs = dict(scale=SCALE, n_procs=NODES,
                      interval_ns=INTERVAL_NS,
                      machine_config=MachineConfig.tiny(NODES),
                      observe=Observe(digest=True),
                      **tiny_revive_overrides(NODES))
        serial = run_sweep(["lu", "fft"], ["cp_parity"], serial=True,
                           **kwargs)
        parallel = run_sweep(["lu", "fft"], ["cp_parity"], workers=2,
                             **kwargs)
        assert serial.digest is not None
        assert serial.digest == parallel.digest
        for job in serial.digest["jobs"]:
            assert len(job["digest"]["windows"]) >= 2, job["label"]

    def test_undigested_run_matches_digested_run(self):
        # Digesting is an observation: it must not perturb the
        # simulation it fingerprints.
        digested = build()
        digested.install_digests(DigestRecorder(None))
        digested.record_digest(0)
        digested.run()
        plain = build()
        plain.run()
        assert plain.simulator.now == digested.simulator.now
        assert plain.total_mem_refs() == digested.total_mem_refs()
        assert [dict(node.memory.lines()) for node in plain.nodes] \
            == [dict(node.memory.lines()) for node in digested.nodes]


class TestDivergenceLocalization:
    """Sensitivity: an injected store flip must break the chain at the
    right window and bisect down to the event that consumed it."""

    def run_digest_doc(self, perturb=None):
        chain = run_digested(perturb=perturb)
        spec = {"app": "lu", "variant": "cp_parity", "scale": SCALE,
                "nodes": NODES, "interval_us": INTERVAL_NS / 1000,
                "perturb_store": perturb}
        return {"schema": 1, "spec": spec,
                "chain": chain.to_jsonable()}

    def test_perturbed_run_diverges_at_first_boundary_after_flip(self):
        from repro.obs.diff import diff_run_digests

        clean = self.run_digest_doc()
        flipped = self.run_digest_doc(perturb=PERTURB)
        div = diff_run_digests(clean, flipped)
        assert div is not None
        # Store 100 lands inside the first checkpoint interval, so
        # window 0 (initial state) agrees and window 1 diverges, in a
        # memory/cache component — never the engine or timing.
        assert div["window"] == 1
        assert ("memory" in div["component"]
                or "caches" in div["component"])
        assert div["a"] != div["b"]
        assert diff_run_digests(clean, self.run_digest_doc()) is None

    def test_bisection_pins_the_event_consuming_the_flipped_store(
            self, tmp_path):
        import pickle

        from repro.machine.snapshot import restore_machine
        from repro.obs.diff import bisect_divergence, diff_run_digests

        clean = self.run_digest_doc()
        flipped = self.run_digest_doc(perturb=PERTURB)
        div = diff_run_digests(clean, flipped)
        image_path = str(tmp_path / "frontier.bin")
        report = bisect_divergence(clean, flipped, div,
                                   image_path=image_path)
        event = report["event"]
        assert event is not None
        # The event's store range (before, after] must cover the
        # injected counter — the bisection found the exact activation
        # that consumed the flipped store.
        lo, hi = event["store_range"]
        assert lo < PERTURB <= hi
        assert event["a"] != event["b"]
        assert event["component"]
        # The captured frontier image is run A's state after the last
        # agreeing event — restorable for offline inspection.
        assert report["image"] == image_path
        machine = build()
        restore_machine(machine, pickle.loads(
            open(image_path, "rb").read()))
        assert machine._store_counter <= PERTURB


class TestDigestedTraceContract:
    def test_digested_run_trace_lints_clean(self, tmp_path):
        from repro.obs import JsonlFileSink, Tracer, lint_file

        path = str(tmp_path / "digested.jsonl")
        tracer = Tracer(JsonlFileSink(path))
        machine = build()
        machine.install_tracer(tracer)
        machine.install_digests(DigestRecorder(tracer))
        machine.record_digest(0)
        machine.run()
        tracer.close()
        assert machine.digests.chain.windows, "no windows recorded"
        assert lint_file(path) == []

    def test_one_window_per_checkpoint_boundary(self):
        chain = run_digested()
        machine = build()
        machine.run()
        committed = machine.checkpointing.checkpoints_committed
        # Window 0 is the initial state; every committed checkpoint
        # contributes exactly one more.
        assert len(chain) == committed + 1
        epochs = [w["epoch"] for w in chain.windows]
        assert epochs == list(range(committed + 1))
