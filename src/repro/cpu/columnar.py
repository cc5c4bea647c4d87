"""Columnar batch engine: the default execution tier.

The layered reference loop (``Processor._run_batch_reference``) walks
one address at a time through translation, the cache hierarchy and
the directory protocol.  This engine keeps each chunk's ``gaps``/
``addrs``/``writes`` columns as numpy arrays end-to-end and retires
whole runs of references with O(distinct-lines) work:

1. **Bulk translation** — unique virtual pages looked up against the
   page table in one pass; unmapped pages (first-touch fallout) mark
   their references impure.  Cached per chunk, keyed on the page-table
   generation and allocation count.
2. **L1 stack-distance precompute** — the tag filter is true LRU, so
   a reference hits iff fewer than ``assoc`` distinct same-set lines
   were touched since its previous touch (the classic stack
   property).  That depends only on the address stream, never on
   timing or coherence, so hit/miss flags and latency prefix sums are
   precomputed per chunk with numpy.  The filter's set dicts are
   *virtualized*: they are only materialized — via the LRU stack
   property, newest-``assoc`` distinct touches per set merged over the
   prior content — when a full-miss fallout runs, an external
   invalidation lands, or a snapshot looks (``TagFilter.sync_hook``).
   Any perturbation outside the modeled stream bumps
   ``TagFilter.epoch`` and the precompute is rebuilt.
3. **Purity classification** — unique line addresses of the whole
   chunk remainder peeked against the raw L2 sets once; a reference is
   *pure* iff its page is mapped, its line is L2-resident, and it is a
   read or a write to a MODIFIED/EXCLUSIVE line.  Pure references
   complete locally: they cannot send a directory transaction, evict
   an L2 line, or otherwise perturb a later lookup.  Everything else
   is a *fallout* reference.  The classification is cached across
   activations and revalidated with ``SetAssocCache.epoch``; the
   engine's own fills re-arm it (they repair the affected entries in
   place), so only external coherence traffic forces a rebuild.
4. **Deferred L2 order** — every pure reference (and every resident
   fallout) is an L2 hit whose only cache effect is an LRU refresh.
   Those refreshes are *deferred*: segment address runs append to a
   pending list, and ``SetAssocCache.sync_hook`` replays them — one
   pop/reinsert per distinct line, in global ascending-last-touch
   order — before anything reads or rewrites LRU order (a victim
   choice, a checkpoint's dirty-line walk, a snapshot).  A deferred
   touch of a line that was invalidated in the meantime is skipped,
   which preserves the relative order of every surviving line.

The chunk remainder is segmented at the fallout positions (the batch-
segmentation invariant, docs/PERFORMANCE.md): each maximal pure run is
applied in bulk, then the single fallout reference between runs
executes in stream order on live state.  Fallouts themselves split in
two: a *resident* fallout (upgrade write, or a ref whose cached
classification went conservatively stale) reads its L1 flag from the
precompute and defers its LRU touch like a pure reference — only the
directory transaction (if any) runs scalar; a *full-miss* fallout
materializes the tag filter and flushes the pending L2 order first,
because the fill's victim choice and double L1 touch must see real
state.  Applying a pure segment costs no per-reference work at all:

* **Timing** — the segment advances time by its gap prefix plus the
  precomputed L1 latency prefix; the quantum deadline is located with
  one ``searchsorted`` over the combined prefix.  The deadline is only
  ever applied *after* a reference executes (exactly like the
  reference loop — a barrier release can jump time past the deadline,
  and the next reference must still execute in that activation).
* **Stores** — the k-th write in the segment carries store value
  ``counter + k``; only the last write per line survives, so values
  are reconstructed from the write-count column (small segments just
  replay writes in stream order).  A first write to an EXCLUSIVE line
  is a silent upgrade, read off the live line state.

Counter flushes happen at the reference loop's batch boundaries, so
the two tiers are bit-identical — pinned by ``tests/test_fastpath.py``
and ``tests/test_columnar.py`` across every workload analog and ReVive
variant.  A fallout that fills the L2 can evict a victim line; the
victim's classification entry is withdrawn (its later references fall
out to the per-reference pipeline), which preserves exactness because
that pipeline handles every case.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

import numpy as np

from repro.cache.cache import EXCLUSIVE, MODIFIED, SHARED, bulk_set_index

__all__ = ["bind_columnar", "timed_protocol"]


def timed_protocol(read, write, cell):
    """Wrap the protocol entry points with host-time fallout timers.

    ``cell`` is a mutable ``[seconds, calls]`` list (one per node,
    handed out by ``Profiler.fallout_cell``) mutated in place, so the
    instrumented hot loop performs no dict lookups.  Used at
    closure-bind time when a machine profiler is installed;
    unprofiled binds keep the raw bound methods.
    """

    def timed_read(node, line, t):
        begin = perf_counter()
        done = read(node, line, t)
        cell[0] += perf_counter() - begin
        cell[1] += 1
        return done

    def timed_write(node, line, t, upgrade):
        begin = perf_counter()
        done = write(node, line, t, upgrade)
        cell[0] += perf_counter() - begin
        cell[1] += 1
        return done

    return timed_read, timed_write

#: Below this many writes a segment replays stores in stream order
#: instead of reconstructing last-writes with numpy.
_STORE_VECTOR_MIN = 16

#: Below this many references a precompute span simulates the tag
#: filter on dict copies instead of running the vectorized pass.
_SMALL_SPAN = 48


def bind_columnar(proc):
    """Compile the columnar batch closure for ``proc``.

    Every invariant of the machine (cache-set dicts, page table, index
    parameters, latencies, the tracer and profiler hooks) is captured
    once in closure cells, so the hot loop runs on locals only.
    ``MachineConfig.validate`` guarantees power-of-two line sizes, so
    set indexing always inlines.  Binding installs both cache
    ``sync_hook``s; ``Processor.invalidate_fastpath`` flushes and
    removes them when the closure is dropped, and
    ``Processor.restore`` drops them without flushing (restored state
    is authoritative).
    """
    machine = proc.machine
    config = machine.config
    hierarchy = machine.nodes[proc.node_id].hierarchy
    l1, l2 = hierarchy.l1, hierarchy.l2
    l1_shift, l1_nsets, l1_groups = l1.index_params()
    l2_shift, l2_nsets, l2_groups = l2.index_params()
    # l1 and l2 share the (power-of-two) line size, hence one shift.
    assert l1_shift is not None and l1_shift == l2_shift
    line_shift = l2_shift
    l1_sets = l1.raw_sets()
    l2_sets = l2.raw_sets()
    l1_assoc = l1.assoc
    l2_assoc = l2.assoc
    space = machine.addr_space
    page_get = space._page_table.get
    allocate = space._allocate
    in_page_mask = space._line_in_page_mask
    offset_bits = space._offset_bits
    proto_read = machine.protocol.read
    proto_write = machine.protocol.write
    # Host-time tier split (docs/OBSERVABILITY.md): with a profiler
    # installed, the directory-protocol fallout calls are bracketed by
    # perf_counter reads into the profiler's per-node fallout cell.
    # Resolved at bind time like the tracer hook, so an unprofiled run
    # keeps the raw bound methods and pays nothing;
    # Machine.install_profiler invalidates the closure to re-bind.
    if machine.profiler is not None:
        proto_read, proto_write = timed_protocol(
            proto_read, proto_write,
            machine.profiler.fallout_cell(proc.node_id))
    write_value = hierarchy.write_value
    next_store = machine.next_store_value
    # Inlined store bumps must honor the test-only perturbation exactly
    # like next_store_value does — tier invariance holds under
    # REPRO_PERTURB_STORE exactly because both tiers flip the same
    # counter.
    perturb_store = machine.perturb_store
    l1_hit_ns = config.l1_hit_ns
    l2_hit_ns = config.l2_hit_ns
    quantum = config.batch_quantum_ns
    overlap = config.miss_overlap
    node_id = proc.node_id
    MOD, EXC, SHA = MODIFIED, EXCLUSIVE, SHARED
    # The mem-category hook is resolved once at bind time: when the
    # tracer is off (or filters out "mem"), trace_mem is a plain False
    # and the loop never touches tracing state at all — the
    # zero-cost-when-off guarantee the throughput benchmark pins.
    # Machine.install_tracer invalidates the closure so a
    # later-installed tracer re-binds with trace_mem recomputed.
    tracer = machine.tracer
    trace_mem = tracer.enabled and (tracer.categories is None
                                    or "mem" in tracer.categories)
    emit = tracer.emit
    node_bytes = space._node_bytes
    home_lo = node_id * node_bytes
    home_hi = home_lo + node_bytes

    def chunk_columns():
        """Translation-dependent chunk vectors, cached per (chunk, table).

        A chunk is consumed over many activations; its line addresses
        only change when the page table does, so they are keyed on
        ``(chunk serial, table generation, allocations)``.  References
        on pages unmapped at cache time stay classified impure even
        after a fallout allocates the page (the fallout path
        re-translates them, so this is conservative, not stale); a
        later classification rebuild picks up the new mapping through
        the allocation count in the key.
        """
        key = (proc._chunk_serial, space.generation,
               space.first_touch_allocations)
        cached = proc._chunk_cols
        if cached is not None and cached[0] == key:
            return cached[1]
        vaddrs = proc._vaddrs
        n = len(vaddrs)
        vpages = vaddrs >> offset_bits
        upages, pinv = np.unique(vpages, return_inverse=True)
        bases = np.fromiter((page_get(p, -1) for p in upages.tolist()),
                            np.int64, len(upages))
        mapped = bases[pinv] >= 0
        # -1 marks unmapped lines: never a real line address, so the
        # distinct-line table cannot alias them with resident lines.
        line_addrs = np.where(mapped,
                              bases[pinv] + (vaddrs & in_page_mask), -1)
        g0 = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(proc._gaps, out=g0[1:])
        w0 = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(proc._writes, out=w0[1:])
        l1sid = bulk_set_index(line_addrs >> line_shift, l1_nsets,
                               l1_groups)
        # Distinct lines of the whole chunk, shared by every purity
        # classification over it.  Unmapped (-1) entries collapse to
        # one id that can never be resident.
        u_full, winv_full = np.unique(line_addrs, return_inverse=True)
        # Slots 5/6 are list mirrors for the L1 materialization scan
        # (plain-int list indexing beats numpy scalar reads
        # severalfold), built lazily on the first sync that needs
        # them — steady-state activations never do.
        cols = [line_addrs, mapped, g0, w0, l1sid, None, None,
                u_full, winv_full]
        proc._chunk_cols = (key, cols)
        return cols

    def chunk_lists(cols):
        """The chunk's line-address/L1-set-id list mirrors, lazily."""
        lal = cols[5]
        if lal is None:
            lal = cols[5] = cols[0].tolist()
            cols[6] = cols[4].tolist()
        return lal, cols[6]

    # ---- virtualized L1 state (persists across activations) -------------
    # ``synced``: chunk position up to which the L1 set dicts reflect
    # the stream.  ``pre_*``: the current precompute span — ``pre_lc``/
    # ``pre_mc`` are zero-prefixed latency/miss prefix sums and
    # ``pre_miss`` the per-reference miss flags over chunk range
    # [pre_s, pre_e), valid while ``l1.epoch == pre_ep``.
    synced = 0
    syn_chunk = -1
    pre_s = pre_e = -1
    pre_lc = pre_mc = pre_miss = None
    pre_ep = -1

    # ---- deferred L2 order (persists across activations/chunks) ---------
    # Pending LRU refreshes as address-run views, replayed by
    # ``flush_pend`` before anything reads or rewrites LRU order.
    pend_runs = []

    # ---- cached purity classification (persists across activations) -----
    # One window per chunk remainder [win_lo, win_hi); valid while the
    # chunk serial matches and ``l2.epoch == win_ep``.  The engine's
    # own fills repair entries in place and re-arm ``win_ep``.
    win_serial = -1
    win_lo = win_hi = 0
    win_ep = -1
    w_uaddr = w_winv = w_okr = w_pure = w_imp = w_wwr = None
    w_wpos = w_wiv = None
    w_ulines = None
    w_nuid = 0

    def sync_to(pos, cols):
        """Materialize the L1 set dicts through chunk position ``pos``.

        By the LRU stack property each set's content after the pending
        touches is the newest ``assoc`` distinct lines touched (by last
        touch), padded with the most-recent prior content.  One
        backward scan collects exactly that, stopping early once every
        set is full.
        """
        nonlocal synced
        lo = synced
        if pos <= lo:
            return
        lal, sidl = chunk_lists(cols)
        filled = {}
        full_sets = 0
        for p in range(pos - 1, lo - 1, -1):
            a = lal[p]
            s = sidl[p]
            lst = filled.get(s)
            if lst is None:
                filled[s] = [a]
                if l1_assoc == 1:
                    full_sets += 1
                    if full_sets == l1_nsets:
                        break
            elif a not in lst and len(lst) < l1_assoc:
                lst.append(a)
                if len(lst) == l1_assoc:
                    full_sets += 1
                    if full_sets == l1_nsets:
                        break
        for s, lst in filled.items():
            d = l1_sets[s]
            if len(lst) < l1_assoc:
                for a in reversed(d):
                    if a not in lst:
                        lst.append(a)
                        if len(lst) >= l1_assoc:
                            break
            d.clear()
            for a in reversed(lst):
                d[a] = None
        synced = pos

    def _l1_hook():
        # External observer (snapshot, remote invalidation, a fill's
        # touch): fast-forward to the last published position.  During
        # an activation ``proc._index`` is stale — at most the synced
        # position, since full-miss fallouts sync eagerly — so this is
        # exact in both contexts.
        if proc._chunk_serial == syn_chunk:
            sync_to(proc._index, chunk_columns())

    l1.sync_hook = _l1_hook

    def flush_pend():
        # Replay the deferred LRU refreshes.  Every deferred touch was
        # an L2 hit, so each set's final order is untouched lines
        # first, then touched lines by last touch: dedup the reversed
        # concatenated stream (first occurrence there = last touch),
        # then pop/reinsert in ascending last-touch order.  Lines
        # invalidated since their touch are skipped, which keeps the
        # surviving lines' relative order exact.
        nonlocal pend_runs
        if not pend_runs:
            return
        runs = pend_runs
        pend_runs = []
        # Python dedup beats unique+argsort well into the hundreds of
        # pending touches (fixed numpy overhead ~15us per flush).
        if sum(len(r) for r in runs) <= 160:
            seen = {}
            for r in reversed(runs):
                for a in reversed(r.tolist()):
                    if a not in seen:
                        seen[a] = None
            for a in reversed(seen):
                line_no = a >> line_shift
                if l2_groups:
                    d2 = l2_sets[(line_no & 63)
                                 + (((((line_no >> 6) * 2654435761)
                                      >> 12) % l2_groups) << 6)]
                else:
                    d2 = l2_sets[line_no % l2_nsets]
                ln = d2.pop(a, None)
                if ln is not None:
                    d2[a] = ln
            return
        cat = runs[0] if len(runs) == 1 else np.concatenate(runs)
        u, idx = np.unique(cat[::-1], return_index=True)
        order = u[np.argsort(-idx)]
        sids = bulk_set_index(order >> line_shift, l2_nsets, l2_groups)
        for a, s in zip(order.tolist(), sids.tolist()):
            d2 = l2_sets[s]
            ln = d2.pop(a, None)
            if ln is not None:
                d2[a] = ln

    l2.sync_hook = flush_pend

    def build_pre(start, cols):
        """Precompute L1 latency/miss prefixes from ``start`` onwards.

        Covers through the next unmapped reference (its address — and
        thus the stream beyond it — is unknown until its first-touch
        fallout allocates the page).  Establishes ``synced == start``;
        the current dict content seeds the stack as a synthetic
        most-recent-first prefix, so initial residency falls out of
        the same stack-distance rule as re-references.
        """
        nonlocal pre_s, pre_e, pre_lc, pre_mc, pre_miss, pre_ep
        line_addrs, mapped, l1sid = cols[0], cols[1], cols[4]
        n = len(line_addrs)
        sync_to(start, cols)
        unm = np.flatnonzero(~mapped[start:])
        end = start + int(unm[0]) if len(unm) else n
        span = end - start
        if span <= _SMALL_SPAN:
            lal, sidl = chunk_lists(cols)
            miss_span = np.zeros(span, dtype=bool)
            copies = [dict(d) for d in l1_sets]
            for k in range(span):
                sd = copies[sidl[start + k]]
                a = lal[start + k]
                if a in sd:
                    del sd[a]
                else:
                    miss_span[k] = True
                    if len(sd) >= l1_assoc:
                        del sd[next(iter(sd))]
                sd[a] = None
        else:
            syn_la = []
            syn_sid = []
            for s, d in enumerate(l1_sets):
                if d:
                    syn_la.extend(d)
                    syn_sid.extend([s] * len(d))
            nsyn = len(syn_la)
            la_cat = np.concatenate(
                [np.asarray(syn_la, dtype=np.int64),
                 line_addrs[start:end]])
            # uint16 keys radix-sort ~5x faster than int64.
            sid_cat = np.concatenate(
                [np.asarray(syn_sid, dtype=np.int64),
                 l1sid[start:end]]).astype(np.uint16)
            order = np.argsort(sid_cat, kind="stable")
            xg = la_cat[order]
            sid_g = sid_cat[order]
            total = len(xg)
            # Consecutive duplicates within a set are guaranteed hits.
            dup = np.zeros(total, dtype=bool)
            if total > 1:
                dup[1:] = (xg[1:] == xg[:-1]) & (sid_g[1:] == sid_g[:-1])
            kd = ~dup
            yd = xg[kd]
            rows_orig = order[kd]
            sid_d = sid_g[kd]
            nd = len(yd)
            # Within-set position of each deduped element (set runs are
            # contiguous after the stable grouping sort).
            starts = np.zeros(nd, dtype=np.int64)
            if nd > 1:
                brk = np.flatnonzero(sid_d[1:] != sid_d[:-1]) + 1
                starts[brk] = brk
                np.maximum.accumulate(starts, out=starts)
            idx_in = np.arange(nd, dtype=np.int64) - starts
            # Previous occurrence of the same line (same line => same
            # set, so one global stable value sort suffices).
            s2o = np.argsort(yd, kind="stable")
            ys = yd[s2o]
            q_within = np.full(nd, -1, dtype=np.int64)
            if nd > 1:
                same = ys[1:] == ys[:-1]
                q_within[s2o[1:][same]] = idx_in[s2o[:-1][same]]
            gap = idx_in - q_within - 1
            # Stack property: hit iff a previous touch exists and fewer
            # than assoc distinct same-set lines were touched since.
            # gap < assoc bounds the distinct count from above; first
            # occurrences (initial residency included, thanks to the
            # synthetic prefix) are misses outright.
            miss_d = q_within < 0
            check = np.flatnonzero((q_within >= 0) & (gap >= l1_assoc))
            nchk = len(check)
            if nchk:
                # Scan the K deduped touches right before each check
                # row (all within the window while the offset is
                # <= gap, hence same set run).  Counting distinct
                # values among them resolves almost every row
                # vectorized: >= assoc distinct seen -> certain miss
                # (a longer window only adds distinct lines); window
                # fully covered (gap <= K) -> the count is exact, so
                # < assoc is a certain hit.  Only long windows whose
                # near tail repeats need the exact backward count.
                K = min(l1_assoc + 4, 12)
                gapc = gap[check]
                idxm = check[None, :] - np.arange(1, K + 1,
                                                  dtype=np.int64)[:, None]
                np.maximum(idxm, 0, out=idxm)
                win = yd[idxm]                       # (K, nchk)
                valid = (np.arange(1, K + 1)[:, None]
                         <= gapc[None, :])
                dup = np.zeros((K, nchk), dtype=bool)
                for o in range(1, K):
                    dup[o] = (win[o] == win[:o]).any(axis=0)
                distinct = (valid & ~dup).sum(axis=0)
                certain_miss = distinct >= l1_assoc
                miss_d[check[certain_miss]] = True
                residue = check[~certain_miss & (gapc > K)]
                if len(residue):
                    ydl = yd.tolist()
                    gapl = gap.tolist()
                    for r in residue.tolist():
                        bottom = r - gapl[r] - 1
                        cnt = 0
                        seen = []
                        j = r - 1
                        while j > bottom:
                            v = ydl[j]
                            if v not in seen:
                                cnt += 1
                                if cnt >= l1_assoc:
                                    miss_d[r] = True
                                    break
                                seen.append(v)
                            j -= 1
            miss_span = np.zeros(span, dtype=bool)
            real = rows_orig >= nsyn
            miss_span[rows_orig[real] - nsyn] = miss_d[real]
        lat = np.where(miss_span, l2_hit_ns, l1_hit_ns).astype(np.int64)
        pre_lc = np.zeros(span + 1, dtype=np.int64)
        np.cumsum(lat, out=pre_lc[1:])
        pre_mc = np.zeros(span + 1, dtype=np.int64)
        np.cumsum(miss_span, out=pre_mc[1:])
        pre_miss = miss_span
        pre_s, pre_e, pre_ep = start, end, l1.epoch

    def classify(i0, cols):
        """(Re)build the purity window over chunk remainder [i0, n).

        One L2 peek per distinct line; Line objects are cached in
        ``w_ulines`` and stay valid exactly as long as the epoch guard
        holds (no insert/invalidate/downgrade has run).
        """
        nonlocal win_serial, win_lo, win_hi, win_ep
        nonlocal w_uaddr, w_winv, w_okr, w_pure, w_imp, w_wwr
        nonlocal w_wpos, w_wiv, w_ulines, w_nuid
        mapped = cols[1]
        n = len(cols[0])
        w_wwr = proc._writes[i0:n]
        # Reuse the chunk-wide distinct-line table; ids referenced only
        # before i0 just cost an extra peek.
        w_uaddr = cols[7]
        w_winv = cols[8][i0:n]
        w_nuid = len(w_uaddr)
        ual = w_uaddr.tolist()
        sids = bulk_set_index(w_uaddr >> line_shift, l2_nsets,
                              l2_groups).tolist()
        w_ulines = [l2_sets[s].get(a) for s, a in zip(sids, ual)]
        # okr: pure as a read (L2-resident).  okw: pure as a write
        # (resident and M/E — writes to SHARED upgrade through the
        # directory).  Line -1 (unmapped) is never resident.
        w_okr = np.fromiter((ln is not None for ln in w_ulines),
                            bool, w_nuid)
        okw = np.fromiter(
            (ln is not None and ln.state != SHA for ln in w_ulines),
            bool, w_nuid)
        w_pure = mapped[i0:n] & np.where(w_wwr, okw[w_winv],
                                         w_okr[w_winv])
        w_imp = np.flatnonzero(~w_pure)
        # Write stream of the window, pre-gathered for seg_stores:
        # window positions of the writes and their distinct-line ids.
        w_wpos = np.flatnonzero(w_wwr)
        w_wiv = w_winv[w_wpos]
        win_serial = proc._chunk_serial
        win_lo, win_hi, win_ep = i0, n, l2.epoch

    def run_batch() -> Optional[int]:
        nonlocal synced, syn_chunk, pre_s, pre_e
        nonlocal win_serial, win_ep, w_pure, w_imp
        t = proc.time
        deadline = t + quantum
        refs = l1h = l1m = l2h = l2m = silent = remote = fills = 0

        def flush() -> None:
            nonlocal refs, l1h, l1m, l2h, l2m, silent, remote, fills
            if trace_mem and refs:
                emit(t, "mem", "mem.batch", node=node_id,
                     refs=refs, l1_hits=l1h + fills, l1_misses=l1m,
                     l2_hits=l2h, l2_misses=l2m, remote=remote)
            proc.mem_refs += refs
            l1.hits += l1h
            l1.misses += l1m
            l2.hits += l2h
            l2.misses += l2m
            hierarchy.silent_upgrades += silent
            refs = l1h = l1m = l2h = l2m = silent = remote = fills = 0

        while True:
            i0 = proc._index
            n = len(proc._vaddrs)
            if proc._chunk_serial != syn_chunk:
                # First sight of this chunk (or a restore rebuilt it):
                # the dicts are authoritative, the virtual stream
                # restarts here.
                syn_chunk = proc._chunk_serial
                synced = i0
                pre_s = pre_e = -1
                win_serial = -1
            if i0 >= n:
                if n:
                    sync_to(n, chunk_columns())
                flush()
                proc.time = t
                proc._index = i0
                outcome = proc._next_chunk()
                syn_chunk = proc._chunk_serial
                synced = 0
                pre_s = pre_e = -1
                win_serial = -1
                if outcome is not None:
                    return outcome if outcome >= 0 else None
                t = proc.time
                continue

            cols = chunk_columns()
            line_addrs, mapped, g0, w0 = cols[0], cols[1], cols[2], cols[3]
            if (win_serial != proc._chunk_serial or i0 < win_lo
                    or i0 >= win_hi or l2.epoch != win_ep):
                classify(i0, cols)

            def seg_stores(a, b):
                """Apply the stores of applied chunk range [a, b).

                The classify pass pre-gathered the window's write
                stream (``w_wpos``/``w_wiv``), so the segment's writes
                are one searchsorted slice of it.
                """
                nonlocal silent
                nw = int(w0[b]) - int(w0[a])
                if not nw:
                    return
                sc = machine._store_counter
                i = int(np.searchsorted(w_wpos, a - win_lo))
                j = i + nw
                if nw < _STORE_VECTOR_MIN:
                    # Stream order, every write applied; last wins.
                    for u in w_wiv[i:j].tolist():
                        ln = w_ulines[u]
                        if ln.state == EXC:
                            silent += 1
                        ln.state = MOD
                        sc += 1
                        ln.value = (sc if sc != perturb_store
                                    else sc + (1 << 32))
                else:
                    # Last write per line: k-th write in the segment
                    # carries value counter+k.  The first occurrence
                    # in the reversed stream is the last write; its
                    # 1-based ordinal is nw - reversed_index.  A
                    # perturbed non-last write is overwritten in the
                    # reference loop too, so flipping only the
                    # surviving value keeps the tiers identical.
                    duw, didxw = np.unique(w_wiv[i:j][::-1],
                                           return_index=True)
                    kth = nw - didxw
                    for u, k in zip(duw.tolist(), kth.tolist()):
                        ln = w_ulines[u]
                        if ln.state == EXC:
                            silent += 1
                        ln.state = MOD
                        value = sc + k
                        ln.value = (value if value != perturb_store
                                    else value + (1 << 32))
                    sc += nw
                machine._store_counter = sc

            def seg_exec(a, b, t):
                """Apply pure chunk range [a, b) on live state.

                Returns ``(t, applied_end, crossed)``; ``applied_end``
                trails ``b`` only when the deadline fell inside the
                segment.  No per-reference work: timing comes from the
                precomputed latency prefix, the deadline position from
                one ``searchsorted``, counters from the miss prefix,
                and the L2 LRU refreshes defer as one address-run view.
                """
                nonlocal refs, l1h, l1m, l2h
                if a < pre_s or b > pre_e or l1.epoch != pre_ep:
                    build_pre(a, cols)
                lc = pre_lc
                ps = pre_s
                full = int(g0[b] - g0[a]) + int(lc[b - ps] - lc[a - ps])
                if t + full < deadline:
                    e = b
                    t += full
                    crossed = False
                else:
                    # The first reference whose execution reaches the
                    # deadline still executes, then the batch ends.
                    cum = ((g0[a + 1:b + 1] - g0[a])
                           + (lc[a - ps + 1:b - ps + 1] - lc[a - ps]))
                    k = int(np.searchsorted(cum, deadline - t))
                    e = a + k + 1
                    t += int(cum[k])
                    crossed = True
                m = e - a
                mc = int(pre_mc[e - ps] - pre_mc[a - ps])
                refs += m
                l2h += m
                l1h += m - mc
                l1m += mc
                pend_runs.append(line_addrs[a:e])
                seg_stores(a, e)
                return t, e, crossed

            # ---- segment / fallout interleave -----------------------
            # The deadline is only ever applied right AFTER a
            # reference executes (exactly like the reference loop): a
            # barrier release can jump ``t`` past the deadline, and
            # the next reference must still execute this activation.
            cur = i0
            ip = int(np.searchsorted(w_imp, cur - win_lo))
            while True:
                e_abs = ((win_lo + int(w_imp[ip]))
                         if ip < len(w_imp) else win_hi)
                if e_abs > cur:
                    t, cur, crossed = seg_exec(cur, e_abs, t)
                    if crossed or t >= deadline:
                        flush()
                        proc.time = t
                        proc._index = cur
                        return t
                if cur >= win_hi:
                    proc._index = cur
                    break        # chunk exhausted: advance via outer loop

                # ---- fallout: one impure reference ------------------
                t += int(g0[cur + 1] - g0[cur])
                vaddr = int(proc._vaddrs[cur])
                is_write = bool(w_wwr[cur - win_lo])
                refs += 1
                base = page_get(vaddr >> offset_bits)
                if base is None:
                    base = allocate(vaddr >> offset_bits, node_id)
                line_addr = base + (vaddr & in_page_mask)
                line_no = line_addr >> line_shift
                if l2_groups:
                    s2 = l2_sets[(line_no & 63)
                                 + (((((line_no >> 6) * 2654435761) >> 12)
                                     % l2_groups) << 6)]
                else:
                    s2 = l2_sets[line_no % l2_nsets]
                line = s2.get(line_addr)
                p = cur
                cur += 1
                if line is not None:
                    # Resident fallout (upgrade write, or a ref whose
                    # cached classification went conservatively
                    # stale): an L2 hit whose LRU touch defers like a
                    # pure reference's.  The L1 flag comes from the
                    # stream precompute — no dict materialization.
                    l2h += 1
                    if pre_s <= p < pre_e and l1.epoch == pre_ep:
                        l1_hit = not pre_miss[p - pre_s]
                    elif mapped[p]:
                        build_pre(p, cols)
                        l1_hit = not pre_miss[p - pre_s]
                    else:
                        # Translation newer than the cached columns:
                        # the stream model cannot see this reference,
                        # so probe the materialized dicts directly.
                        sync_to(p, cols)
                        if l1_groups:
                            s1 = l1_sets[
                                (line_no & 63)
                                + (((((line_no >> 6) * 2654435761) >> 12)
                                    % l1_groups) << 6)]
                        else:
                            s1 = l1_sets[line_no % l1_nsets]
                        if line_addr in s1:
                            del s1[line_addr]
                            s1[line_addr] = None
                            l1_hit = True
                        else:
                            if len(s1) >= l1_assoc:
                                del s1[next(iter(s1))]
                            s1[line_addr] = None
                            l1_hit = False
                        synced = cur
                    if l1_hit:
                        l1h += 1
                    else:
                        l1m += 1
                    if int(line_addrs[p]) == line_addr:
                        pend_runs.append(line_addrs[p:p + 1])
                    else:
                        pend_runs.append(
                            np.asarray([line_addr], dtype=np.int64))
                    if is_write:
                        state = line.state
                        if state == SHA:
                            if trace_mem and not home_lo <= line_addr \
                                    < home_hi:
                                remote += 1
                            proc.time = t
                            done = proto_write(node_id, line_addr, t,
                                               True)
                            t += int((done - t) / overlap)
                            write_value(line_addr, next_store())
                        else:
                            if state == EXC:
                                silent += 1
                            line.state = MOD
                            sc = machine._store_counter + 1
                            machine._store_counter = sc
                            line.value = (sc if sc != perturb_store
                                          else sc + (1 << 32))
                            t += l1_hit_ns if l1_hit else l2_hit_ns
                    else:
                        t += l1_hit_ns if l1_hit else l2_hit_ns
                    ip += 1
                else:
                    # Full miss: the exact per-reference pipeline.  The
                    # fill's victim choice and double L1 touch must see
                    # real state, so materialize the tag filter and
                    # flush the deferred L2 order first.
                    sync_to(p, cols)
                    if l1_groups:
                        s1 = l1_sets[(line_no & 63)
                                     + (((((line_no >> 6) * 2654435761)
                                          >> 12) % l1_groups) << 6)]
                    else:
                        s1 = l1_sets[line_no % l1_nsets]
                    if line_addr in s1:
                        del s1[line_addr]
                        s1[line_addr] = None
                        l1h += 1
                    else:
                        l1m += 1
                        if len(s1) >= l1_assoc:
                            del s1[next(iter(s1))]
                        s1[line_addr] = None
                    synced = cur
                    flush_pend()
                    l2m += 1
                    # The fill below evicts the current LRU way when
                    # the set is full; note the victim now so its pure
                    # classification can be withdrawn after the call.
                    victim = (next(iter(s2))
                              if len(s2) >= l2_assoc else None)
                    if trace_mem:
                        fills += 1
                        if not home_lo <= line_addr < home_hi:
                            remote += 1
                    proc.time = t
                    if is_write:
                        done = proto_write(node_id, line_addr, t, False)
                    else:
                        done = proto_read(node_id, line_addr, t)
                    t += int((done - t) / overlap)
                    if is_write:
                        write_value(line_addr, next_store())
                    if victim is not None:
                        u = int(np.searchsorted(w_uaddr, victim))
                        if u < w_nuid and w_uaddr[u] == victim \
                                and w_okr[u]:
                            w_okr[u] = False
                            w_pure = w_pure & (w_winv != u)
                            w_imp = np.flatnonzero(~w_pure)
                    # The fill bumped the epoch; the withdrawal above
                    # is the matching in-place repair, so re-arm the
                    # window instead of rebuilding it.
                    win_ep = l2.epoch
                    ip = int(np.searchsorted(w_imp, cur - win_lo))
                if t >= deadline:
                    flush()
                    proc.time = t
                    proc._index = cur
                    return t

    return run_batch
