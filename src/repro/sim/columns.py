"""Typed integer columns for snapshot images (docs/SNAPSHOTS.md).

A machine image stores its bulky integer state — calendar buckets,
memory-line addresses, directory rows, log-size samples — as
:class:`array.array` columns rather than lists of pairs.  An array
pickles as one bytes blob and unpickles as one object, where a list of
pairs costs a Python container per pair (and the cyclic GC rescans
every one of them).  :func:`int_column` picks the narrowest signed
typecode that holds the column, so small counters take one or two
bytes an item instead of eight.
"""

from __future__ import annotations

from array import array
from typing import Iterable

#: Signed typecodes from narrowest to widest, each with its exclusive
#: upper bound (``-bound <= v < bound`` fits).
_TYPECODES = tuple((code, 1 << (8 * array(code).itemsize - 1))
                   for code in ("b", "h", "i", "q"))


def int_column(values: Iterable[int]) -> array:
    """``values`` as the narrowest signed ``array`` that holds them.

    Raises :class:`OverflowError` for a value outside int64; columns
    that may hold wider ints (512-bit line values, sharer masks of a
    large machine) stay plain lists.
    """
    values = values if isinstance(values, list) else list(values)
    if not values:
        return array("b")
    lo, hi = min(values), max(values)
    for code, bound in _TYPECODES:
        if -bound <= lo and hi < bound:
            return array(code, values)
    raise OverflowError(f"column value outside int64: [{lo}, {hi}]")
