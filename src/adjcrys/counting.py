"""Tiny integer-combinatorics helpers shared by the crystal models: compositions and slot moves."""

from __future__ import annotations

from itertools import combinations_with_replacement
from operator import sub
from typing import Iterator, Optional


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield all tuples of `parts` nonnegative integers summing to `total`.

    Stars and bars: the cuts 0 <= c_1 <= ... <= c_{parts-1} <= total split
    the total into the parts c_1, c_2 - c_1, ..., total - c_{parts-1}.  The
    cuts come in lexicographic order, and so do the tuples, so any
    enumeration built on top of this is deterministic.
    """
    if total < 0 or parts < 0:
        return
    if parts == 0:
        if total == 0:
            yield ()
        return
    top = (total,)
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + top, (0,) + cuts))


def move_right(x: tuple[int, ...], a: int) -> Optional[tuple[int, ...]]:
    """x with one unit moved from x[a] to x[a+1]; None when x[a] is 0."""
    if not x[a]:
        return None
    out = list(x)
    out[a] -= 1
    out[a + 1] += 1
    return tuple(out)


def move_left(x: tuple[int, ...], a: int) -> Optional[tuple[int, ...]]:
    """x with one unit moved from x[a+1] to x[a]; None when x[a+1] is 0."""
    if not x[a + 1]:
        return None
    out = list(x)
    out[a] += 1
    out[a + 1] -= 1
    return tuple(out)
