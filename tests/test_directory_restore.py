"""Deferred directory restore.

``Directory.restore`` keeps the image's rows pending and builds their
entries only when something first reads the directory.  A directory
cleared straight after a restore (every forked fault scenario) never
builds them; one that is read sees exactly the image, in image order.
The image is columnar (addresses, states, owners, ``busy_until`` and
sharer bitmasks); restore keeps the columns without copying them.
"""

from __future__ import annotations

import copy

import pytest

from conftest import ToyWorkload, build_tiny_machine, run_toy

from repro.coherence import directory as directory_module
from repro.coherence.directory import Directory
from repro.obs.tracer import RingBufferSink, Tracer


@pytest.fixture(scope="module")
def image():
    """A busy home directory's snapshot from a short tiny-machine run."""
    machine = run_toy(build_tiny_machine(), ToyWorkload(rounds=1),
                      until=30_000)
    state = max((node.directory.snapshot() for node in machine.nodes),
                key=lambda s: len(s["addrs"]))
    assert len(state["addrs"]) > 100
    return state


def restored(image):
    directory = Directory(0)
    directory.restore(image)
    return directory


def test_cleared_restore_builds_no_entry(image, monkeypatch):
    built = []
    monkeypatch.setattr(directory_module.DirEntry, "__init__",
                        lambda entry: built.append(entry))
    directory = restored(image)
    directory.tracer = Tracer(RingBufferSink(), categories={"coh"})
    directory.clear_all(at=7)
    assert built == []
    [event] = directory.tracer.sink.events()
    assert (event["name"], event["ts"], event["entries"]) == \
        ("coh.clear", 7, len(image["addrs"]))
    assert len(directory) == 0


def test_first_read_builds_in_image_order(image):
    order = list(image["addrs"])
    directory = restored(image)
    assert directory.peek(order[-1]).owner == image["owners"][-1]
    assert [addr for addr, _entry in directory.entries()] == order
    fresh = max(order) + 64
    directory.entry(fresh)                 # a miss after the build
    assert [addr for addr, _entry in directory.entries()] == \
        order + [fresh]


def test_untouched_snapshot_equals_image_rows_unaliased(image):
    pristine = copy.deepcopy(image)
    directory = restored(image)
    snap = directory.snapshot()
    assert snap == pristine
    assert all(snap[column] is not image[column] for column in image)
    for addr, entry in directory.entries():
        entry.set_exclusive(3)
        entry.busy_until += 1
    assert image == pristine
