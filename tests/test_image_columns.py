"""The columnar warm image and what a forked scenario skips.

A warm image stores its bulky integer state as typed ``array`` columns
(:mod:`repro.sim.columns`), so decoding the recovery exhibit's image
builds a few hundred Python containers rather than tens of thousands.
A forked campaign scenario never dispatches a processor after its
restore, so it must never replay a workload stream; a restored machine
that does keep running replays each live processor's stream once and
still matches the uninterrupted run.
"""

from __future__ import annotations

import pickle
from array import array

import pytest

from repro.harness import campaign
from repro.machine.config import MachineConfig
from repro.sim.columns import int_column
from repro.workloads.base import Workload

#: The recovery exhibit (``harness/perf.py``, perfbench ``recovery``):
#: fft cp_parity on a tiny 4-node machine, six checkpoints deep.
EXHIBIT = dict(scale=0.05, n_procs=4, interval_ns=50_000,
               machine_config=MachineConfig.tiny(4),
               parity_group_size=3, log_bytes_per_node=64 * 1024)
WARM_CHECKPOINTS = 6


@pytest.fixture(scope="module")
def image():
    machine = campaign.warm_machine("fft", "cp_parity", EXHIBIT,
                                    WARM_CHECKPOINTS)
    return pickle.dumps(machine.snapshot(),
                        protocol=pickle.HIGHEST_PROTOCOL)


def containers(value) -> int:
    """Lists, tuples and dicts reachable inside a decoded image."""
    if isinstance(value, dict):
        return 1 + sum(containers(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return 1 + sum(containers(v) for v in value)
    return 0


def test_decoded_exhibit_image_holds_few_containers(image):
    assert containers(pickle.loads(image)) < 1000


@pytest.fixture
def replays(monkeypatch):
    """Counts ``Workload.replay_stream`` calls."""
    calls = []
    original = Workload.replay_stream

    def counted(self, proc_id, chunks):
        calls.append(proc_id)
        return original(self, proc_id, chunks)

    monkeypatch.setattr(Workload, "replay_stream", counted)
    return calls


def test_forked_campaign_replays_no_stream(replays):
    result = campaign.run_campaign(
        "fft", "cp_parity", warm_checkpoints=2, lost_nodes=(None, 1),
        detect_fractions=(0.5,), serial=True, **EXHIBIT)
    assert len(result.outcomes) == 2 and not result.cold
    assert replays == []


def test_restored_machine_replays_on_first_dispatch(image, replays):
    reference = campaign._new_machine("fft", "cp_parity", EXHIBIT)
    reference.run()
    restored = campaign._new_machine("fft", "cp_parity", EXHIBIT)
    restored.restore(pickle.loads(image))
    assert replays == []
    live = [proc.node_id for proc in restored.processors
            if not proc.finished]
    restored.run()
    assert sorted(replays) == live
    assert [dict(node.memory.lines()) for node in restored.nodes] == \
        [dict(node.memory.lines()) for node in reference.nodes]
    assert restored.stats.state() == reference.stats.state()
    assert restored.simulator.now == reference.simulator.now


@pytest.mark.parametrize("code", ["b", "h", "i", "q"])
def test_int_column_round_trips_each_typecode_bounds(code):
    bits = 8 * array(code).itemsize
    low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    column = int_column([low, 0, high])
    assert column.typecode == code
    assert list(column) == [low, 0, high]
    assert pickle.loads(pickle.dumps(column)) == column
    if code != "q":
        # One past either bound needs the next wider code.
        assert int_column([high + 1]).typecode != code
        assert int_column([low - 1]).typecode != code


def test_int_column_edge_cases():
    assert int_column([]) == array("b")
    assert int_column(iter([3, 1, 2])).tolist() == [3, 1, 2]
    with pytest.raises(OverflowError):
        int_column([1 << 63])
