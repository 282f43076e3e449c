"""Classical type-A crystals on semistandard Young tableaux.

Entries range over 1..n+1.  Every element carries a column reading word
(top to bottom within a column, rightmost column first) and the raising and
lowering operators act through the bracketing rule on that word: drop all
letters other than i and i+1, cancel adjacent i,(i+1) pairs until the word
is (i+1)^r i^s, then raise the rightmost surviving i+1 or lower the leftmost
surviving i; `rule_cells` alone makes that choice.  An undefined operator is
the value None, never a sentinel.

Validation: the public `Tableau(...)` constructor checks the whole tableau.
An operator changes one cell, the only one that can break semistandardness,
so `Tableau.moved` checks that cell alone, with the full check's messages in
its order, and skips the full check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import gt, lt
from typing import Optional


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


def rule_cells(word, i: int) -> tuple[Optional[int], Optional[int]]:
    """The positions of `word` that e_i raises and f_i lowers: the rightmost
    unmatched i+1 and the leftmost unmatched i, None where there is none."""
    raisable, lowerable = unmatched_positions(word, i)
    return (raisable[-1] if raisable else None), (lowerable[0] if lowerable else None)


def word_apply(word, i: int, direction: str) -> Optional[tuple[int, ...]]:
    """Apply e_i or f_i to a letter word; None when the operator vanishes."""
    if direction not in ("e", "f"):
        raise ValueError(f"direction must be 'e' or 'f', got {direction!r}")
    raise_pos, lower_pos = rule_cells(word, i)
    pos, new = (lower_pos, i + 1) if direction == "f" else (raise_pos, i)
    if pos is None:
        return None
    out = list(word)
    out[pos] = new
    return tuple(out)


def eps_phi(b, i: int) -> tuple[int, int]:
    """(eps_i, phi_i) computed by iterating the operators to absence.

    Definitionally correct for any object exposing e/f; it is the `eps` and
    `phi` of `Word`, `Tableau` and `TensorPair`.  The models' kernels are
    plain functions on values, so their closed statistics are checked
    against the chain lengths of the operator rows instead.
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


def column_missing(n: int, j: int) -> tuple[int, ...]:
    """The depth-n column with entries 1..n+1 except j."""
    if not 1 <= j <= n + 1:
        raise ValueError(f"column index {j} out of range 1..{n + 1}")
    return tuple(c for c in range(1, n + 2) if c != j)


@dataclass(frozen=True)
class Tableau:
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
        for col in cols:
            if col is prev:  # the same column object again: checked already
                continue
            prev = col
            if not col:
                raise ValueError("empty column")
            if len(col) > n:
                raise ValueError(f"column depth {len(col)} exceeds rank {n}")
            if min(col) < 1 or max(col) > n + 1:
                raise ValueError(f"entries must lie in 1..{n + 1}")
            if not all(map(lt, col, col[1:])):
                raise ValueError(f"column {col} not strictly increasing")
        for a, b in zip(cols, cols[1:]):
            if a is b:
                continue
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
        word = self.reading_word()
        return tuple(word.count(c) for c in range(1, self.n + 2))

    def rule_cells(self, i: int) -> tuple[Optional[int], Optional[int]]:
        """`rule_cells` of the reading word: where e_i and f_i act."""
        return rule_cells(self.reading_word(), i)

    def moved(self, pos: Optional[int], letter: int) -> Optional["Tableau"]:
        """The tableau with reading-word position `pos` set to `letter`, None
        when `pos` is None.  Checks the range of that cell, then its column
        neighbours, then its left and right row neighbours."""
        if pos is None:
            return None
        cols = self.columns
        ci = len(cols)
        for old in reversed(cols):  # the reading word starts at the right
            ci -= 1
            if pos < len(old):
                break
            pos -= len(old)
        else:
            raise IndexError("position beyond the reading word")
        col = old[:pos] + (letter,) + old[pos + 1:]
        if not 1 <= letter <= self.n + 1:
            raise ValueError(f"entries must lie in 1..{self.n + 1}")
        if (pos and old[pos - 1] >= letter) or (pos + 1 < len(old) and letter >= old[pos + 1]):
            raise ValueError(f"column {col} not strictly increasing")
        if (ci and cols[ci - 1][pos] > letter) or (
            ci + 1 < len(cols) and pos < len(cols[ci + 1]) and letter > cols[ci + 1][pos]
        ):
            raise ValueError("rows must weakly increase left to right")
        out = object.__new__(Tableau)
        object.__setattr__(out, "n", self.n)
        object.__setattr__(out, "columns", cols[:ci] + (col,) + cols[ci + 1:])
        return out

    def e(self, i: int) -> Optional["Tableau"]:
        return self.moved(self.rule_cells(i)[0], i)

    def f(self, i: int) -> Optional["Tableau"]:
        return self.moved(self.rule_cells(i)[1], i + 1)

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
