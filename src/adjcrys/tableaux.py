"""Classical type-A crystals on semistandard Young tableaux.

Entries range over 1..n+1.  Every element carries a column reading word
(top to bottom within a column, rightmost column first) and the raising and
lowering operators act through the bracketing rule on that word: drop all
letters other than i and i+1, cancel adjacent i,(i+1) pairs until the word
is (i+1)^r i^s, then raise the rightmost surviving i+1 or lower the leftmost
surviving i.  An undefined operator is the value None, never a sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import gt, lt
from typing import Optional


def letter_f(c: int, i: int) -> Optional[int]:
    """Lowering operator on a single letter: i -> i+1, undefined elsewhere."""
    return i + 1 if c == i else None


def letter_e(c: int, i: int) -> Optional[int]:
    """Raising operator on a single letter: i+1 -> i, undefined elsewhere."""
    return i if c == i + 1 else None


def unmatched_positions(word, i: int) -> tuple[list[int], list[int]]:
    """Bracketing rule: positions of the letters surviving cancellation.

    Returns (raisable, lowerable): the indices of the unmatched i+1's and
    the unmatched i's, each increasing, so the reduced word is (i+1)^r i^s.
    """
    lowerable: list[int] = []
    raisable: list[int] = []
    for pos, c in enumerate(word):
        if c == i:
            lowerable.append(pos)
        elif c == i + 1:
            if lowerable:
                lowerable.pop()
            else:
                raisable.append(pos)
    return raisable, lowerable


def word_apply(word, i: int, direction: str) -> Optional[tuple[int, ...]]:
    """Apply e_i or f_i to a letter word; None when the operator vanishes."""
    raisable, lowerable = unmatched_positions(word, i)
    if direction == "f":
        if not lowerable:
            return None
        pos, new = lowerable[0], i + 1
    elif direction == "e":
        if not raisable:
            return None
        pos, new = raisable[-1], i
    else:
        raise ValueError(f"direction must be 'e' or 'f', got {direction!r}")
    out = list(word)
    out[pos] = new
    return tuple(out)


def eps_phi(b, i: int) -> tuple[int, int]:
    """(eps_i, phi_i) computed by iterating the operators to absence.

    Definitionally correct for any element exposing e/f; serves as the
    oracle the closed coordinate formulas are tested against.
    """
    eps = 0
    cur = b.e(i)
    while cur is not None:
        eps += 1
        cur = cur.e(i)
    phi = 0
    cur = b.f(i)
    while cur is not None:
        phi += 1
        cur = cur.f(i)
    return eps, phi


@dataclass(frozen=True)
class Word:
    """A tensor power of the letter crystal, kept as a flat word."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(not 1 <= c <= self.n + 1 for c in self.letters):
            raise ValueError(f"letters must lie in 1..{self.n + 1}")

    def e(self, i: int) -> Optional["Word"]:
        w = word_apply(self.letters, i, "e")
        return None if w is None else Word(self.n, w)

    def f(self, i: int) -> Optional["Word"]:
        w = word_apply(self.letters, i, "f")
        return None if w is None else Word(self.n, w)

    def eps(self, i: int) -> int:
        return eps_phi(self, i)[0]

    def phi(self, i: int) -> int:
        return eps_phi(self, i)[1]

    def content(self) -> tuple[int, ...]:
        return tuple(self.letters.count(c) for c in range(1, self.n + 2))


def column_missing(n: int, j: int) -> tuple[int, ...]:
    """The depth-n column with entries 1..n+1 except j."""
    if not 1 <= j <= n + 1:
        raise ValueError(f"column index {j} out of range 1..{n + 1}")
    return tuple(c for c in range(1, n + 2) if c != j)


@dataclass(frozen=True)
class Tableau:
    """Semistandard Young tableau, stored as strictly increasing columns.

    Column-major storage keeps the reading word and the depth-n columns
    native; row views are derived.
    """

    n: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError("rank must be positive")
        cols = self.columns
        for col in cols:
            if not col:
                raise ValueError("empty column")
            if len(col) > n:
                raise ValueError(f"column depth {len(col)} exceeds rank {n}")
            if min(col) < 1 or max(col) > n + 1:
                raise ValueError(f"entries must lie in 1..{n + 1}")
            if not all(map(lt, col, col[1:])):
                raise ValueError(f"column {col} not strictly increasing")
        for a, b in zip(cols, cols[1:]):
            if len(a) < len(b):
                raise ValueError("column depths must weakly decrease left to right")
            if any(map(gt, a, b)):  # stops at the shorter column b
                raise ValueError("rows must weakly increase left to right")

    @classmethod
    def from_rows(cls, n: int, rows) -> "Tableau":
        rows = [tuple(row) for row in rows]
        ncols = len(rows[0]) if rows else 0
        cols = []
        for c in range(ncols):
            cols.append(tuple(row[c] for row in rows if c < len(row)))
        return cls(n, tuple(cols))

    @classmethod
    def highest_weight(cls, n: int, shape) -> "Tableau":
        """The standard filling: every box of row r holds the letter r."""
        shape = tuple(shape)
        return cls.from_rows(n, [(r,) * shape[r - 1] for r in range(1, len(shape) + 1)])

    @property
    def shape(self) -> tuple[int, ...]:
        depth = max((len(c) for c in self.columns), default=0)
        return tuple(
            sum(1 for c in self.columns if len(c) > r) for r in range(depth)
        )

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(col[r] for col in self.columns if r < len(col))
            for r in range(len(self.shape))
        )

    def reading_word(self) -> tuple[int, ...]:
        word: list[int] = []
        for col in reversed(self.columns):
            word.extend(col)
        return tuple(word)

    def content(self) -> tuple[int, ...]:
        word = self.reading_word()
        return tuple(word.count(c) for c in range(1, self.n + 2))

    def _apply(self, i: int, direction: str) -> Optional["Tableau"]:
        word = self.reading_word()
        new_word = word_apply(word, i, direction)
        if new_word is None:
            return None
        changed = next(p for p in range(len(word)) if word[p] != new_word[p])
        # the reading word runs the columns from the rightmost one
        cols = self.columns
        ci, ri = len(cols) - 1, changed
        while ri >= len(cols[ci]):
            ri -= len(cols[ci])
            ci -= 1
        col = cols[ci][:ri] + (new_word[changed],) + cols[ci][ri + 1:]
        return Tableau(self.n, cols[:ci] + (col,) + cols[ci + 1:])

    def e(self, i: int) -> Optional["Tableau"]:
        return self._apply(i, "e")

    def f(self, i: int) -> Optional["Tableau"]:
        return self._apply(i, "f")

    def eps(self, i: int) -> int:
        return eps_phi(self, i)[0]

    def phi(self, i: int) -> int:
        return eps_phi(self, i)[1]


@dataclass(frozen=True)
class TensorPair:
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

    def eps(self, i: int) -> int:
        return eps_phi(self, i)[0]

    def phi(self, i: int) -> int:
        return eps_phi(self, i)[1]

    def content(self) -> tuple[int, ...]:
        return tuple(a + b for a, b in zip(self.left.content(), self.right.content()))


def ssyt_count(shape, max_entry: int) -> int:
    """Number of semistandard tableaux of the shape with entries <= max_entry.

    Hook-content product formula; exact rational arithmetic throughout.
    """
    shape = tuple(s for s in shape if s > 0)
    if not shape:
        return 1
    conj = [sum(1 for s in shape if s > c) for c in range(shape[0])]
    total = Fraction(1)
    for r, length in enumerate(shape):
        for c in range(length):
            hook = (length - c) + (conj[c] - r) - 1
            total *= Fraction(max_entry + c - r, hook)
    if total.denominator != 1:
        raise ArithmeticError("hook-content product is not an integer")
    return int(total)
