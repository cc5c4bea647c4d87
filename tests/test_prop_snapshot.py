"""Property-based snapshot/restore tests (docs/SNAPSHOTS.md).

The deterministic oracle (``tests/test_snapshot_oracle.py``) pins the
roundtrip at checkpoint boundaries; these properties pin it at
*arbitrary* pause points, across variants and workloads, and check
that snapshots compose — an image of a restored machine is as good as
an image of the original.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings, strategies as st

from tests.test_snapshot_oracle import (
    APPS,
    REVIVE_VARIANTS,
    build,
    fingerprint,
    horizon,
)

ALL_VARIANTS = ("baseline",) + REVIVE_VARIANTS


@settings(max_examples=10, deadline=None)
@given(app=st.sampled_from(APPS), variant=st.sampled_from(ALL_VARIANTS),
       fraction=st.floats(0.05, 0.9))
def test_roundtrip_at_any_pause_point(app, variant, fraction):
    """Pause anywhere, restore elsewhere: the continuation of the
    restored machine is bit-identical to never having paused."""
    until = horizon(variant)
    reference = build(app, variant)
    reference.run(until=until)
    final = fingerprint(reference)

    pause = max(1, int(final["now"] * fraction))
    stepped = build(app, variant)
    stepped.run(until=pause)
    image = pickle.dumps(stepped.snapshot(),
                         protocol=pickle.HIGHEST_PROTOCOL)
    fresh = build(app, variant)
    fresh.restore(pickle.loads(image))
    fresh.run(until=until)
    assert fingerprint(fresh) == final


@settings(max_examples=6, deadline=None)
@given(app=st.sampled_from(APPS), first=st.floats(0.1, 0.45),
       second=st.floats(0.5, 0.9))
def test_chained_snapshots_compose(app, first, second):
    """Snapshot a restored machine and restore *that*: two hops reach
    the same final state as zero hops."""
    reference = build(app, "cp_parity")
    reference.run()
    final = fingerprint(reference)
    end = final["now"]

    hop1 = build(app, "cp_parity")
    hop1.run(until=max(1, int(end * first)))
    image1 = pickle.dumps(hop1.snapshot())

    hop2 = build(app, "cp_parity")
    hop2.restore(pickle.loads(image1))
    hop2.run(until=max(1, int(end * second)))
    image2 = pickle.dumps(hop2.snapshot())

    last = build(app, "cp_parity")
    last.restore(pickle.loads(image2))
    last.run()
    assert fingerprint(last) == final


@settings(max_examples=20, deadline=None)
@given(app=st.sampled_from(APPS), proc=st.integers(0, 3),
       chunks=st.integers(0, 12))
def test_replay_stream_is_a_pure_fast_forward(app, proc, chunks):
    """``replay_stream(p, k)`` equals consuming ``k`` chunks of a fresh
    stream — the purity assumption processor restore rests on."""
    from repro.workloads.registry import get_workload

    def take(stream, k):
        out = []
        for _ in range(k):
            try:
                out.append(next(stream))
            except StopIteration:
                break
        return out

    workload = get_workload(app, scale=0.05, n_procs=4)
    expected = take(workload.stream_for(proc), chunks + 2)
    replayed, last = workload.replay_stream(proc, min(chunks,
                                                      len(expected)))
    if chunks == 0:
        assert last is None
    elif chunks <= len(expected):
        assert _chunk_eq(last, expected[chunks - 1])
    # The repositioned stream continues exactly where a fresh one
    # consumed that far would.
    for mine, theirs in zip(take(replayed, 2),
                            expected[min(chunks, len(expected)):]):
        assert _chunk_eq(mine, theirs)


def _chunk_eq(a, b) -> bool:
    if a[0] != b[0] or len(a) != len(b):
        return False
    for left, right in zip(a[1:], b[1:]):
        if hasattr(left, "shape"):
            if not (left == right).all():
                return False
        elif left != right:
            return False
    return True
