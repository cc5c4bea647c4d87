"""Property-based tests for the memory log."""

from hypothesis import given, settings, strategies as st

from repro.core.log import (
    ENTRIES_PER_BLOCK,
    LINES_PER_BLOCK,
    LogEntry,
    MemoryLog,
    _pack_word,
    _unpack_word,
    unwrap_sequence,
)


def fresh_log(n_blocks=16):
    region = [0x200000 + i * 64 for i in range(n_blocks * LINES_PER_BLOCK)]
    return MemoryLog(0, region, line_size=64)


class Store:
    def __init__(self):
        self.lines = {}

    def read(self, addr):
        return self.lines.get(addr, 0)


@given(st.integers(0, (1 << 40) - 1), st.integers(0, 1000),
       st.integers(0, 1 << 20), st.booleans())
def test_word_pack_unpack_roundtrip(addr_line, epoch, seq, valid):
    word = _pack_word(addr_line, epoch, seq, valid)
    got_addr, got_epoch, got_seq, got_valid = _unpack_word(word)
    assert got_addr == addr_line
    assert got_epoch == epoch % 128
    assert got_seq == seq % 65536
    assert got_valid == valid
    assert 0 <= word < (1 << 64)


@given(st.lists(st.integers(0, 65535), min_size=1, max_size=200))
def test_unwrap_sequence_is_injective_over_small_windows(seqs):
    # Restrict to a live window smaller than 2^15, as the log enforces.
    base = seqs[0]
    window = [(base + (s % (1 << 14))) % 65536 for s in seqs]
    rebased = unwrap_sequence(window)
    assert set(rebased) == set(window)
    spread = max(rebased.values()) - min(rebased.values())
    assert spread < 1 << 15


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 1 << 60)),
                min_size=1, max_size=100),
       st.integers(1, 4))
def test_append_decode_roundtrip_across_epochs(ops, n_epochs):
    """Whatever is appended (across epochs) decodes back exactly."""
    log, store = fresh_log(), Store()
    expected = []
    per_epoch = max(1, len(ops) // n_epochs)
    for index, (line_no, value) in enumerate(ops):
        addr = 0x40_0000 + line_no * 64
        writes = log.make_writes(addr, value, store.read)
        for mem_line, content in writes:
            store.lines[mem_line] = content
        log.commit_append(addr)
        expected.append((addr, value, log.current_epoch % 128))
        if (index + 1) % per_epoch == 0:
            log.advance_epoch()
    decoded = [(e.addr, e.value, e.epoch)
               for e in log.decode_region(store.read) if e.is_data]
    assert sorted(decoded) == sorted(expected)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(1, ENTRIES_PER_BLOCK * 3))
def test_undo_order_is_strictly_newest_first(n_epochs, per_epoch):
    log, store = fresh_log(n_blocks=32), Store()
    stamp = 0
    for _epoch in range(n_epochs):
        for i in range(per_epoch):
            addr = 0x40_0000 + i * 64
            writes = log.make_writes(addr, stamp, store.read)
            for mem_line, content in writes:
                store.lines[mem_line] = content
            log.commit_append(addr)
            stamp += 1
        log.advance_epoch()
        log.gang_clear_logged()
    entries = log.entries_to_undo(0, log.current_epoch, store.read)
    values = [e.value for e in entries]
    assert values == sorted(values, reverse=True)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(2, 5))
def test_reclaim_never_loses_retained_epochs(per_epoch, keep):
    log, store = fresh_log(n_blocks=64), Store()
    for _epoch in range(6):
        for i in range(per_epoch):
            addr = 0x40_0000 + i * 64
            writes = log.make_writes(addr, log.current_epoch, store.read)
            for mem_line, content in writes:
                store.lines[mem_line] = content
            log.commit_append(addr)
        log.advance_epoch()
        log.gang_clear_logged()
        log.reclaim(max(0, log.current_epoch - (keep - 1)))
    target = max(0, log.current_epoch - (keep - 1))
    entries = log.entries_to_undo(target, log.current_epoch, store.read)
    kept_epochs = {e.epoch for e in entries}
    expected = {e % 128 for e in range(target, log.current_epoch)}
    assert kept_epochs == expected


# -- block-granular decode_region vs a slot-by-slot reference --------------

_WORD = (1 << 64) - 1
_COMMIT_FIELD = (1 << 40) - 1


def reference_decode(log, read_line):
    """Slot-by-slot decoder: one metadata read per ring position, in
    ring order — the layout spelled out, independent of the block scan."""
    out = []
    for position in range(log.capacity_slots):
        entry_line, meta_line, within = log._slot_lines(position)
        word = (read_line(meta_line) >> (64 * within)) & _WORD
        addr_field, epoch, seq, valid = _unpack_word(word)
        if not valid:
            continue
        commit = addr_field == _COMMIT_FIELD
        out.append(LogEntry(addr=-1 if commit else addr_field << 6,
                            epoch=epoch, seq=seq,
                            value=read_line(entry_line),
                            is_commit=commit))
    return out


def reference_window(log, read_line, target, upto):
    """The undo window and commit records filtered out of the
    slot-by-slot reference: window newest first, commits in ring
    order."""
    records = reference_decode(log, read_line)
    keep = {e % 128 for e in range(target, upto + 1)}
    window = [e for e in records if e.is_data and e.epoch in keep]
    rebase = unwrap_sequence([e.seq for e in window])
    window.sort(key=lambda e: rebase[e.seq], reverse=True)
    return window, [e for e in records if e.is_commit]


class CountingStore(Store):
    def __init__(self):
        super().__init__()
        self.reads = []

    def read(self, addr):
        self.reads.append(addr)
        return super().read(addr)


LOG_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 300),
                  st.integers(0, (1 << 512) - 1)),
        st.tuples(st.just("torn"), st.integers(0, 300),
                  st.integers(1, (1 << 64) - 1)),
        st.tuples(st.just("commit")),
        st.tuples(st.just("reclaim")),
    ),
    max_size=120)


def replay_log_ops(n_blocks, ops, before_wrap):
    """A log and its store after ``ops``: wrapped rings, reclaimed
    epochs, torn appends (entry line written, marker not), commit
    records, optionally starting ``before_wrap`` appends short of the
    16-bit sequence wrap."""
    log, store = fresh_log(n_blocks=n_blocks), CountingStore()
    if before_wrap:
        log.head = log.tail = log.epoch_start[0] = (1 << 16) - before_wrap

    def land(writes):
        for mem_line, content in writes:
            store.lines[mem_line] = content

    for op in ops:
        kind = op[0]
        if kind == "reclaim" or (kind != "torn" and log.slots_used
                                 >= log.capacity_slots):
            # Free everything before the current epoch; a full ring
            # wraps onto the reclaimed slots, leaving their stale
            # (valid-marked) records behind for the epoch filter.
            log.advance_epoch()
            log.reclaim(log.current_epoch)
            if kind == "reclaim":
                continue
        if log.slots_used >= log.capacity_slots:
            continue
        if kind == "append":
            addr = 0x40_0000 + op[1] * 64
            land(log.make_writes(addr, op[2], store.read))
            log.commit_append(addr)
        elif kind == "torn":
            addr = 0x40_0000 + op[1] * 64
            land(log.make_writes(addr, op[2], store.read)[:1])
        else:
            land(log.make_writes(0, 0, store.read, is_commit=True))
            log.commit_append(0, is_commit=True)
            log.advance_epoch()
    return log, store


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), LOG_OPS, st.integers(0, 4), st.integers(0, 8))
def test_block_decode_equals_slot_reference(n_blocks, ops, before_wrap,
                                            back):
    """Wrapped rings, reclaimed epochs, torn appends (entry line
    written, marker not), commit records, and never-written (all-zero)
    blocks all decode identically, in ring order.  So do the undo
    window and the commit records read off one metadata scan, also
    across the 16-bit sequence wrap; the window reads an entry line
    only for each record it returns."""
    log, store = replay_log_ops(n_blocks, ops, before_wrap)
    expected = reference_decode(log, store.read)
    store.reads.clear()
    got = log.decode_region(store.read)
    assert got == expected
    # One metadata read per block plus one entry read per valid record.
    assert len(store.reads) == log.n_blocks + len(expected)

    target = max(0, log.current_epoch - back)
    window, commits = reference_window(log, store.read, target,
                                       log.current_epoch)
    store.reads.clear()
    assert log.entries_to_undo(target, log.current_epoch,
                               store.read) == window
    assert len(store.reads) == log.n_blocks + len(window)
    assert log.find_commit_records(store.read) == commits
    assert len(log.scan_region(store.read)) == len(expected)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), LOG_OPS, st.integers(0, 12), st.integers(0, 8))
def test_undo_window_columns_equal_entry_order(n_blocks, ops, before_wrap,
                                               back):
    """Recovery's ``(addrs, values)`` undo-window columns list exactly
    the records of the :class:`LogEntry` window, newest first, also
    across the 16-bit sequence wrap, reading one entry line each."""
    log, store = replay_log_ops(n_blocks, ops, before_wrap)
    target = max(0, log.current_epoch - back)
    window, _commits = reference_window(log, store.read, target,
                                        log.current_epoch)
    scan = log.scan_region(store.read)
    store.reads.clear()
    addrs, values = scan.undo_window(target, log.current_epoch)
    assert addrs == [entry.addr for entry in window]
    assert values == [entry.value for entry in window]
    assert len(store.reads) == len(window)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4),
       st.lists(st.one_of(st.just(0), st.integers(0, (1 << 512) - 1),
                          st.integers(0, 0xFF)),
                min_size=1, max_size=4 * LINES_PER_BLOCK))
def test_block_decode_equals_slot_reference_on_arbitrary_bytes(n_blocks,
                                                               contents):
    """Any region contents at all — a region rebuilt from parity holds
    whatever the stripe XOR produced — decode the same both ways."""
    log, store = fresh_log(n_blocks=n_blocks), Store()
    for line_addr, value in zip(log.region_lines, contents):
        store.lines[line_addr] = value
    assert log.decode_region(store.read) == \
        reference_decode(log, store.read)

