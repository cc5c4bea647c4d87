"""Set-associative write-back cache with MESI line states.

Line addresses are full physical addresses aligned to the line size.
LRU order inside each set is maintained by Python dict insertion order:
a touch removes and re-inserts the line, so the first key of a set dict
is always the least recently used way.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

INVALID, SHARED, EXCLUSIVE, MODIFIED = 0, 1, 2, 3

_STATE_NAMES = {INVALID: "I", SHARED: "S", EXCLUSIVE: "E", MODIFIED: "M"}


def state_name(state: int) -> str:
    """Single-letter name of a MESI state (debugging/repr)."""
    return _STATE_NAMES[state]


#: Lines per 4 KB page at 64-byte lines; the page-hash granularity.
_PAGE_LINES = 64

#: Sentinel distinguishing "not present" from a stored None.
_ABSENT = object()


def set_index(addr: int, line_size: int, n_sets: int) -> int:
    """Page-hashed set index.

    Within a page, lines map to sets by plain modulo — preserving the
    conflict-freedom of contiguous/strided working sets.  The *page*
    selects its group of sets through a multiplicative hash.  Plain
    modulo across the whole address would interact pathologically with
    the parity layout (mirroring hands out only every other physical
    page, leaving the page-index bit of the set index constant and
    half the cache unused); hashing the page index decorrelates any
    allocation stride from set selection, as real hashed-index L2s do.
    """
    line_no = addr // line_size
    if n_sets <= _PAGE_LINES:
        return line_no % n_sets
    groups = n_sets // _PAGE_LINES
    page = line_no // _PAGE_LINES
    group = ((page * 2654435761) >> 12) % groups
    return (line_no % _PAGE_LINES) + _PAGE_LINES * group


def bulk_set_index(line_nos, n_sets: int, groups: int):
    """Vectorized :func:`set_index` over an array of line numbers.

    ``line_nos`` is a numpy int64 array of ``addr >> line_shift`` values;
    ``n_sets``/``groups`` come from :func:`index_params` (callers must
    have checked ``line_shift is not None``).  Element-for-element equal
    to :func:`set_index` — pinned by ``tests/test_cache.py``.
    """
    if not groups:
        return line_nos % n_sets
    return (line_nos & 63) + ((((line_nos >> 6) * 2654435761) >> 12)
                              % groups << 6)


def index_params(line_size: int, n_sets: int):
    """``(line_shift, n_sets, groups)`` for inlined set indexing.

    ``groups`` is 0 when the cache is small enough for plain modulo
    indexing.  ``line_shift`` is ``None`` for a non-power-of-two line
    size (then callers must fall back to :func:`set_index`).  The
    columnar batch engine (``cpu.columnar``) inlines :func:`set_index`
    using these precomputed values; the two formulations are kept
    equivalent by ``tests/test_cache.py``.
    """
    if line_size & (line_size - 1):
        line_shift = None
    else:
        line_shift = line_size.bit_length() - 1
    groups = n_sets // _PAGE_LINES if n_sets > _PAGE_LINES else 0
    return line_shift, n_sets, groups


class CacheLine:
    """One resident line: its address, MESI state and (if dirty) value."""

    __slots__ = ("addr", "state", "value")

    def __init__(self, addr: int, state: int, value: int = 0) -> None:
        self.addr = addr
        self.state = state
        self.value = value

    @property
    def dirty(self) -> bool:
        """True when the line holds a modified (unwritten-back) value."""
        return self.state == MODIFIED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheLine({self.addr:#x}, {state_name(self.state)})"


class SetAssocCache:
    """A set-associative cache of :class:`CacheLine` records.

    The columnar engine (``cpu.columnar``) virtualizes this cache's
    *LRU order* (membership, state and values always stay live): pure
    batch references defer their pop/reinsert LRU refreshes until
    something actually depends on the order.  Two attributes carry the
    contract, mirroring :class:`TagFilter`:

    * ``sync_hook`` — when set, called before any operation that reads
      or rewrites LRU order (:meth:`lookup`, :meth:`insert` — victim
      choice, :meth:`snapshot`, :meth:`clear`, :meth:`dirty_lines`,
      :meth:`resident_lines`), letting the engine apply its deferred
      reorders first.  Membership-only operations (:meth:`peek`,
      :meth:`invalidate`) need no hook: a deferred touch of a removed
      line is simply skipped at flush time, which preserves the
      relative order of every surviving line.
    * ``epoch`` — incremented on any change that can invalidate a
      batch residency/state classification: insert, invalidate, a
      directory downgrade or checkpoint ``mark_clean`` (both via
      :class:`~repro.cache.hierarchy.CacheHierarchy`), clear, restore.
      :meth:`restore` deliberately skips the hook — restored state is
      authoritative, so pending reorders are stale by definition and
      the owning processor drops them with its closure.
    """

    __slots__ = ("name", "size", "assoc", "line_size", "n_sets", "_sets",
                 "hits", "misses", "_line_shift", "_groups",
                 "epoch", "sync_hook")

    def __init__(self, name: str, size: int, assoc: int,
                 line_size: int) -> None:
        n_sets = size // (assoc * line_size)
        if n_sets < 1 or size % (assoc * line_size) != 0:
            raise ValueError(
                f"cache geometry invalid: size={size} assoc={assoc} "
                f"line={line_size}")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = n_sets
        self._sets: List[Dict[int, CacheLine]] = [
            dict() for _ in range(n_sets)]
        self.hits = 0
        self.misses = 0
        self._line_shift, _, self._groups = index_params(line_size, n_sets)
        self.epoch = 0
        self.sync_hook = None

    def index_params(self):
        """``(line_shift, n_sets, groups)`` for the inlined fast path."""
        return self._line_shift, self.n_sets, self._groups

    def raw_sets(self) -> List[Dict[int, CacheLine]]:
        """The per-set dicts, for the inlined fast path.

        The list identity is stable for the cache's lifetime (``clear``
        empties the dicts in place), so callers may bind it once.
        """
        return self._sets

    def _set_of(self, addr: int) -> Dict[int, CacheLine]:
        # set_index, inlined with the precomputed shift/groups.
        shift = self._line_shift
        if shift is None:
            return self._sets[set_index(addr, self.line_size, self.n_sets)]
        line_no = addr >> shift
        groups = self._groups
        if not groups:
            return self._sets[line_no % self.n_sets]
        group = (((line_no >> 6) * 2654435761) >> 12) % groups
        return self._sets[(line_no & 63) + (group << 6)]

    def lookup(self, addr: int) -> Optional[CacheLine]:
        """Find the line and refresh its LRU position; counts hit/miss."""
        if self.sync_hook is not None:
            self.sync_hook()
        cache_set = self._set_of(addr)
        line = cache_set.pop(addr, None)
        if line is None:
            self.misses += 1
            return None
        cache_set[addr] = line           # re-insert: most recently used
        self.hits += 1
        return line

    def bulk_set_ids(self, line_addrs):
        """Set index of each address in a numpy int64 array.

        The columnar engine's batched counterpart of :meth:`_set_of`;
        requires a power-of-two line size (``_line_shift`` not None).
        """
        return bulk_set_index(line_addrs >> self._line_shift,
                              self.n_sets, self._groups)

    def bulk_peek(self, addrs, set_ids=None) -> List[Optional[CacheLine]]:
        """Resident :class:`CacheLine` (or None) per address, no LRU disturb.

        ``addrs`` is a plain-int list; ``set_ids`` (optional) the
        matching per-address set indices from :meth:`bulk_set_ids`.
        Like :meth:`peek`, counts nothing — classification only.
        """
        sets = self._sets
        if set_ids is None:
            return [self._set_of(a).get(a) for a in addrs]
        return [sets[s].get(a) for s, a in zip(set_ids, addrs)]

    def peek(self, addr: int) -> Optional[CacheLine]:
        """Find the line without disturbing LRU or hit statistics."""
        return self._set_of(addr).get(addr)

    def insert(self, addr: int, state: int,
               value: int = 0) -> Optional[CacheLine]:
        """Insert (or overwrite) a line; returns the evicted victim, if any.

        The victim is chosen LRU.  The caller is responsible for writing
        back a dirty victim.
        """
        if self.sync_hook is not None:
            self.sync_hook()
        self.epoch += 1
        cache_set = self._set_of(addr)
        existing = cache_set.pop(addr, None)
        if existing is not None:
            existing.state = state
            existing.value = value
            cache_set[addr] = existing
            return None
        victim = None
        if len(cache_set) >= self.assoc:
            lru_addr = next(iter(cache_set))
            victim = cache_set.pop(lru_addr)
        cache_set[addr] = CacheLine(addr, state, value)
        return victim

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Remove the line, returning it (callers may salvage its value)."""
        line = self._set_of(addr).pop(addr, None)
        if line is not None:
            self.epoch += 1
        return line

    def dirty_lines(self) -> Iterator[CacheLine]:
        """Iterate over the MODIFIED lines currently resident.

        Iteration order is LRU order, which checkpoint flushes turn into
        writeback order — hence the ``sync_hook``.
        """
        if self.sync_hook is not None:
            self.sync_hook()
        for cache_set in self._sets:
            for line in cache_set.values():
                if line.state == MODIFIED:
                    yield line

    def resident_lines(self) -> Iterator[CacheLine]:
        """Iterate over every resident line (in LRU order per set)."""
        if self.sync_hook is not None:
            self.sync_hook()
        for cache_set in self._sets:
            yield from cache_set.values()

    def clear(self) -> None:
        """Drop every line (recovery invalidates all caches)."""
        if self.sync_hook is not None:
            self.sync_hook()
        for cache_set in self._sets:
            cache_set.clear()
        self.epoch += 1

    def resident_count(self) -> int:
        """Number of lines currently resident."""
        return sum(len(s) for s in self._sets)

    def snapshot(self) -> Dict:
        """Plain-data state: per-set lines in LRU order, plus counters.

        Dict insertion order *is* the LRU order, so each set serialises
        as an ordered ``[addr, state, value]`` list (docs/SNAPSHOTS.md).
        """
        if self.sync_hook is not None:
            self.sync_hook()
        return {"sets": [[[line.addr, line.state, line.value]
                          for line in cache_set.values()]
                         for cache_set in self._sets],
                "hits": self.hits,
                "misses": self.misses}

    def restore(self, state: Dict) -> None:
        """Reinstate a :meth:`snapshot`, preserving LRU order.

        The set dicts are mutated in place — the fast path binds
        ``raw_sets()`` once, so their identities must survive a restore.
        No ``sync_hook`` here: restored state is authoritative, so any
        pending deferred reorder is stale — the epoch bump tells the
        engine to drop it.
        """
        for cache_set, lines in zip(self._sets, state["sets"]):
            cache_set.clear()
            for addr, line_state, value in lines:
                cache_set[addr] = CacheLine(addr, line_state, value)
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.epoch += 1

    @property
    def miss_rate(self) -> float:
        """Misses / lookups since construction (or last reset)."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


class TagFilter:
    """Tag-only set-associative array.

    Used to model the L1 for *timing*: coherence state and dirty values
    live in the L2 (the point of coherence), while the L1 filter decides
    whether an access pays the 2 ns L1 latency or the 12 ns L2 latency.

    The columnar engine virtualizes this array: it precomputes the
    filter's hit/miss stream from reference addresses alone and defers
    materializing the per-set dicts until someone actually looks.  Two
    attributes carry that contract:

    * ``sync_hook`` — when set, called before any operation that reads
      or mutates the set dicts (:meth:`touch`, :meth:`invalidate`,
      :meth:`clear`, :meth:`snapshot`), giving the engine a chance to
      fast-forward the dicts to the current stream position.
    * ``epoch`` — incremented whenever the array changes through
      anything *other* than the modeled reference stream (an
      invalidation that actually removes a tag, a wholesale clear or
      restore).  The engine discards its precomputed stream when the
      epoch moves.
    """

    __slots__ = ("name", "assoc", "line_size", "n_sets", "_sets",
                 "hits", "misses", "_line_shift", "_groups",
                 "epoch", "sync_hook")

    def __init__(self, name: str, size: int, assoc: int,
                 line_size: int) -> None:
        n_sets = size // (assoc * line_size)
        if n_sets < 1 or size % (assoc * line_size) != 0:
            raise ValueError(
                f"filter geometry invalid: size={size} assoc={assoc} "
                f"line={line_size}")
        self.name = name
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = n_sets
        self._sets: List[Dict[int, None]] = [dict() for _ in range(n_sets)]
        self.hits = 0
        self.misses = 0
        self._line_shift, _, self._groups = index_params(line_size, n_sets)
        self.epoch = 0
        self.sync_hook = None

    def index_params(self):
        """``(line_shift, n_sets, groups)`` for the inlined fast path."""
        return self._line_shift, self.n_sets, self._groups

    def raw_sets(self) -> List[Dict[int, None]]:
        """The per-set dicts, for the inlined fast path (stable list)."""
        return self._sets

    def _set_of(self, addr: int) -> Dict[int, None]:
        shift = self._line_shift
        if shift is None:
            return self._sets[set_index(addr, self.line_size, self.n_sets)]
        line_no = addr >> shift
        groups = self._groups
        if not groups:
            return self._sets[line_no % self.n_sets]
        group = (((line_no >> 6) * 2654435761) >> 12) % groups
        return self._sets[(line_no & 63) + (group << 6)]

    def bulk_set_ids(self, line_addrs):
        """Set index of each address in a numpy int64 array (see
        :meth:`SetAssocCache.bulk_set_ids`)."""
        return bulk_set_index(line_addrs >> self._line_shift,
                              self.n_sets, self._groups)

    def touch(self, addr: int) -> bool:
        """Record an access; returns True on hit."""
        if self.sync_hook is not None:
            self.sync_hook()
        tag_set = self._set_of(addr)
        if addr in tag_set:
            del tag_set[addr]
            tag_set[addr] = None
            self.hits += 1
            return True
        self.misses += 1
        if len(tag_set) >= self.assoc:
            del tag_set[next(iter(tag_set))]
        tag_set[addr] = None
        return False

    def invalidate(self, addr: int) -> None:
        """Remove the address from the array, if present."""
        if self.sync_hook is not None:
            self.sync_hook()
        if self._set_of(addr).pop(addr, _ABSENT) is not _ABSENT:
            self.epoch += 1

    def clear(self) -> None:
        """Drop all contents."""
        if self.sync_hook is not None:
            self.sync_hook()
        for tag_set in self._sets:
            tag_set.clear()
        self.epoch += 1

    def snapshot(self) -> Dict:
        """Plain-data state: per-set tags in LRU order, plus counters."""
        if self.sync_hook is not None:
            self.sync_hook()
        return {"sets": [list(tag_set) for tag_set in self._sets],
                "hits": self.hits,
                "misses": self.misses}

    def restore(self, state: Dict) -> None:
        """Reinstate a :meth:`snapshot` in place (stable set dicts).

        No ``sync_hook`` here: the restored state is authoritative, so
        any pending virtual stream is stale by definition — the epoch
        bump tells the engine to drop it.
        """
        for tag_set, tags in zip(self._sets, state["sets"]):
            tag_set.clear()
            for addr in tags:
                tag_set[addr] = None
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.epoch += 1
