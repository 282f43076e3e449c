"""Classical type-A crystals on semistandard Young tableaux.

Entries range over 1..n+1.  Every element carries a column reading word
(top to bottom within a column, rightmost column first) and the raising and
lowering operators act through the bracketing rule on that word: drop all
letters other than i and i+1, cancel adjacent i,(i+1) pairs until the word
is (i+1)^r i^s, then raise the rightmost surviving i+1 or lower the leftmost
surviving i.  `bracket_cells` alone makes that choice, for every label in
one left-to-right pass: a letter c is the i of label c and the i+1 of label
c-1, so each letter adds one sign to each of two labels.  An undefined
operator is the value None, never a sentinel.

Validation: the public `Tableau(...)` constructor is the only check, and
every tableau goes through it, an operator's result included; it reads
each verdict from the bounded memos `_column_error` and `_pair_error`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import chain
from operator import gt, lt
from typing import Optional


def bracket_cells(word, n: int) -> list[tuple[Optional[int], Optional[int]]]:
    """The bracketing rule of every label 1..n in one pass over a word with
    letters in 1..n+1: entry i-1 holds the positions that e_i raises and f_i
    lowers, the rightmost unmatched i+1 and the leftmost unmatched i, None
    where there is none."""
    unmatched = [0] * (n + 2)  # by label i: the i's that no i+1 has cancelled yet
    lower_at: list[Optional[int]] = [None] * (n + 2)  # the leftmost of them
    raise_at: list[Optional[int]] = [None] * (n + 2)  # the last i+1 left uncancelled
    for pos, c in enumerate(word):
        if unmatched[c - 1]:  # c is the i+1 of label c-1 ...
            unmatched[c - 1] -= 1
        else:
            raise_at[c - 1] = pos
        if not unmatched[c]:  # ... and the i of label c
            lower_at[c] = pos
        unmatched[c] += 1
    return [(raise_at[i], lower_at[i] if unmatched[i] else None) for i in range(1, n + 1)]


def label_cells(word, n: int, i: int) -> tuple[Optional[int], Optional[int]]:
    """The `bracket_cells` entry of the label i."""
    if not 1 <= i <= n:
        raise ValueError(f"label {i} out of range 1..{n}")
    return bracket_cells(word, n)[i - 1]


def word_apply(word, n: int, i: int, direction: str) -> Optional[tuple[int, ...]]:
    """Apply e_i or f_i to a word with letters in 1..n+1; None when the
    operator vanishes."""
    if direction not in ("e", "f"):
        raise ValueError(f"direction must be 'e' or 'f', got {direction!r}")
    raise_pos, lower_pos = label_cells(word, n, i)
    pos, new = (lower_pos, i + 1) if direction == "f" else (raise_pos, i)
    if pos is None:
        return None
    out = list(word)
    out[pos] = new
    return tuple(out)


def eps_phi(b, i: int) -> tuple[int, int]:
    """(eps_i, phi_i) computed by iterating the operators to absence.

    Definitionally correct for any object exposing e/f; `Iterated` turns
    it into the `eps` and `phi` that `Word`, `Tableau` and `TensorPair`
    share.  The models' kernels are plain functions on values, so their
    closed statistics are checked by their one-step identity along the
    operator rows instead.
    """
    eps = phi = 0
    cur = b.e(i)
    while cur is not None:
        eps, cur = eps + 1, cur.e(i)
    cur = b.f(i)
    while cur is not None:
        phi, cur = phi + 1, cur.f(i)
    return eps, phi


class Iterated:
    """`eps` and `phi` by `eps_phi`.  Each subclass keeps e and f in its own
    body, where `perfbench/traced.py` patches them."""

    def eps(self, i: int) -> int:
        return eps_phi(self, i)[0]

    def phi(self, i: int) -> int:
        return eps_phi(self, i)[1]


@dataclass(frozen=True)
class Word(Iterated):
    """A tensor power of the letter crystal, kept as a flat word."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(not 1 <= c <= self.n + 1 for c in self.letters):
            raise ValueError(f"letters must lie in 1..{self.n + 1}")

    def e(self, i: int) -> Optional["Word"]:
        w = word_apply(self.letters, self.n, i, "e")
        return None if w is None else Word(self.n, w)

    def f(self, i: int) -> Optional["Word"]:
        w = word_apply(self.letters, self.n, i, "f")
        return None if w is None else Word(self.n, w)


@cache
def column_missing(n: int, j: int) -> tuple[int, ...]:
    """The depth-n column with entries 1..n+1 except j."""
    if not 1 <= j <= n + 1:
        raise ValueError(f"column index {j} out of range 1..{n + 1}")
    return tuple(c for c in range(1, n + 2) if c != j)


@lru_cache(maxsize=4096)
def _column_error(n: int, col: tuple[int, ...]) -> str:
    """Why `col` is not a column of a rank-n tableau, "" when it is one."""
    if not col:
        return "empty column"
    if len(col) > n:
        return f"column depth {len(col)} exceeds rank {n}"
    if min(col) < 1 or max(col) > n + 1:
        return f"entries must lie in 1..{n + 1}"
    if not all(map(lt, col, col[1:])):
        return f"column {col} not strictly increasing"
    return ""


@lru_cache(maxsize=4096)
def _pair_error(a: tuple[int, ...], b: tuple[int, ...]) -> str:
    """Why the valid column b may not follow the valid column a, "" when it may."""
    if len(a) < len(b):
        return "column depths must weakly decrease left to right"
    if any(map(gt, a, b)):  # stops at the shorter column b
        return "rows must weakly increase left to right"
    return ""


@dataclass(frozen=True)
class Tableau(Iterated):
    """Semistandard Young tableau, stored as strictly increasing columns.

    Column-major storage keeps the reading word and the depth-n columns
    native.
    """

    n: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError("rank must be positive")
        cols = self.columns
        prev = None
        for col in cols:  # a repeat of the previous column is checked already
            if col != prev and (why := _column_error(n, col)):
                raise ValueError(why)
            prev = col
        for a, b in zip(cols, cols[1:]):
            if a != b and (why := _pair_error(a, b)):  # equal columns pass both rules
                raise ValueError(why)

    @classmethod
    def from_rows(cls, n: int, rows) -> "Tableau":
        rows = [tuple(row) for row in rows]
        if any(len(a) < len(b) for a, b in zip(rows, rows[1:])):
            raise ValueError("row lengths must weakly decrease top to bottom")
        ncols = len(rows[0]) if rows else 0
        return cls(n, tuple(tuple(row[c] for row in rows if c < len(row)) for c in range(ncols)))

    @property
    def shape(self) -> tuple[int, ...]:
        # column depths weakly decrease: from the right, each adds rows
        shape: list[int] = []
        width = len(self.columns)
        for col in reversed(self.columns):
            if len(col) > len(shape):
                shape += [width] * (len(col) - len(shape))
            width -= 1
        return tuple(shape)

    def reading_word(self) -> tuple[int, ...]:
        word: list[int] = []
        for col in reversed(self.columns):
            word.extend(col)
        return tuple(word)

    def content(self) -> tuple[int, ...]:
        counts = [0] * (self.n + 2)
        for c in chain.from_iterable(self.columns):
            counts[c] += 1
        return tuple(counts[1:])

    def moved(self, pos: Optional[int], letter: int) -> Optional["Tableau"]:
        """The tableau with reading-word position `pos` set to `letter`, None
        when `pos` is None.  A position outside the word raises; the result
        is checked by the constructor like any other tableau."""
        if pos is None:
            return None
        cols = self.columns
        ci, word_pos = len(cols), pos
        for old in reversed(cols):  # the reading word starts at the right
            ci -= 1
            if 0 <= pos < len(old):
                break
            pos -= len(old)
        else:
            raise ValueError(f"position {word_pos} outside the reading word")
        col = old[:pos] + (letter,) + old[pos + 1:]
        return Tableau(self.n, cols[:ci] + (col,) + cols[ci + 1:])

    def e(self, i: int) -> Optional["Tableau"]:
        return self.moved(label_cells(self.reading_word(), self.n, i)[0], i)

    def f(self, i: int) -> Optional["Tableau"]:
        return self.moved(label_cells(self.reading_word(), self.n, i)[1], i + 1)


@dataclass(frozen=True)
class TensorPair(Iterated):
    """Two-factor tensor product under the standard rule.

    f acts on the left factor iff phi(left) > eps(right); e acts on the left
    factor iff phi(left) >= eps(right).  Factors may be any elements with
    e/f/eps/phi, so pairs nest.
    """

    left: object
    right: object

    def f(self, i: int):
        if self.left.phi(i) > self.right.eps(i):
            new = self.left.f(i)
            return None if new is None else TensorPair(new, self.right)
        new = self.right.f(i)
        return None if new is None else TensorPair(self.left, new)

    def e(self, i: int):
        if self.left.phi(i) >= self.right.eps(i):
            new = self.left.e(i)
            return None if new is None else TensorPair(new, self.right)
        new = self.right.e(i)
        return None if new is None else TensorPair(self.left, new)


def ssyt_count(shape, max_entry: int) -> int:
    """Number of semistandard tableaux of the partition `shape` (trailing zeros
    allowed) with entries <= max_entry: the hook-content product formula."""
    shape = tuple(shape)
    if any(s < 0 for s in shape) or any(b > a for a, b in zip(shape, shape[1:])):
        raise ValueError(f"shape {shape} is not a partition")
    conj = [sum(1 for s in shape if s > c) for c in range(max(shape, default=0))]
    contents = hooks = 1
    for r, length in enumerate(shape):
        for c in range(length):
            contents *= max_entry + c - r
            hooks *= (length - c) + (conj[c] - r) - 1
    count, rest = divmod(contents, hooks)
    if rest:
        raise ArithmeticError("hook-content product is not an integer")
    return count
