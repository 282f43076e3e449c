"""Level-l adjoint model on the twisted affinization over type B_n.

Elements are tuples (x_1, ..., x_n, x_0, xbar_n, ..., xbar_1) of nonnegative
integers with x_0 restricted to {0, 1}; the component index is the full
coordinate sum k <= l.  The x_0 slot is kept as a separate field so the
two-valued invariant is structural, and it is invisible to the weight.  The
level is part of the element, as in the C-type model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .counting import compositions
from .crystal_graph import CheckResult, LevelModel, OperatorTable, TheoremSpec, run_theorems
from .root_data import Family, RootDatum, Weight


@dataclass(frozen=True)
class ElemD:
    x: tuple[int, ...]
    x0: int
    xbar: tuple[int, ...]  # descending index order: xbar_n, ..., xbar_1
    level: int

    def __post_init__(self) -> None:
        if len(self.x) != len(self.xbar) or len(self.x) < 1:
            raise ValueError("x and xbar must have equal positive length")
        if self.x0 not in (0, 1):
            raise ValueError(f"x0 must be 0 or 1, got {self.x0}")
        if any(c < 0 for c in self.x + self.xbar):
            raise ValueError("coordinates must be nonnegative")
        if self.k > self.level:
            raise ValueError(f"coordinate sum {self.k} exceeds level {self.level}")

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def k(self) -> int:
        return sum(self.x) + self.x0 + sum(self.xbar)

    @property
    def coords(self) -> tuple[int, ...]:
        return self.x + (self.x0,) + self.xbar

    def xval(self, j: int) -> int:
        return self.x[j - 1]

    def xbarval(self, j: int) -> int:
        return self.xbar[self.n - j]

    def weight(self) -> Weight:
        datum = RootDatum(Family.B, self.n)
        return datum.weight(self.xval(j) - self.xbarval(j) for j in range(1, self.n + 1))

    def _moved(self, deltas: dict[int, int]) -> Optional["ElemD"]:
        out = list(self.coords)
        for idx, d in deltas.items():
            out[idx] += d
        n = self.n
        if any(c < 0 for c in out) or out[n] > 1 or sum(out) > self.level:
            return None
        return ElemD(tuple(out[:n]), out[n], tuple(out[n + 1:]), self.level)

    def e(self, i: int) -> Optional["ElemD"]:
        n = self.n
        if i == 0:
            if self.xval(1) > self.xbarval(1):
                return self._moved({0: -1})
            return self._moved({2 * n: +1})
        if i == n:
            if self.x0 == 0:
                return self._moved({n: +1, n + 1: -1})
            return self._moved({n - 1: +1, n: -1})
        if self.xval(i + 1) > self.xbarval(i + 1):
            return self._moved({i - 1: +1, i: -1})
        return self._moved({2 * n - i: +1, 2 * n - i + 1: -1})

    def f(self, i: int) -> Optional["ElemD"]:
        n = self.n
        if i == 0:
            if self.xval(1) >= self.xbarval(1):
                return self._moved({0: +1})
            return self._moved({2 * n: -1})
        if i == n:
            if self.x0 == 0:
                return self._moved({n - 1: -1, n: +1})
            return self._moved({n: -1, n + 1: +1})
        if self.xval(i + 1) >= self.xbarval(i + 1):
            return self._moved({i - 1: -1, i: +1})
        return self._moved({2 * n - i: -1, 2 * n - i + 1: +1})

    def eps(self, i: int) -> int:
        if i == 0:
            return (self.level - self.k) + 2 * max(0, self.xval(1) - self.xbarval(1))
        if i == self.n:
            return 2 * self.xbarval(self.n) + self.x0
        return self.xbarval(i) + max(0, self.xval(i + 1) - self.xbarval(i + 1))

    def phi(self, i: int) -> int:
        if i == 0:
            return (self.level - self.k) + 2 * max(0, self.xbarval(1) - self.xval(1))
        if i == self.n:
            return 2 * self.xval(self.n) + self.x0
        return self.xval(i) + max(0, self.xbarval(i + 1) - self.xval(i + 1))


def psi_map(j: int, b: ElemD) -> ElemD:
    """Level-raising maps: bump x_j and xbar_j across two levels for j < n;
    the j = n map raises one level, toggling the x_0 slot."""
    n = b.n
    if not 1 <= j <= n:
        raise ValueError(f"map index {j} out of range 1..{n}")
    if j < n:
        x = list(b.x)
        xbar = list(b.xbar)
        x[j - 1] += 1
        xbar[n - j] += 1
        return ElemD(tuple(x), b.x0, tuple(xbar), b.level + 2)
    if b.x0 == 0:
        return ElemD(b.x, 1, b.xbar, b.level + 1)
    x = list(b.x)
    xbar = list(b.xbar)
    x[n - 1] += 1
    xbar[0] += 1
    return ElemD(tuple(x), 0, tuple(xbar), b.level + 1)


def shell(n: int, l: int, k: int) -> list[ElemD]:
    out: list[ElemD] = []
    for x0 in (0, 1):
        if k - x0 < 0:
            continue
        for c in compositions(k - x0, 2 * n):
            out.append(ElemD(c[:n], x0, c[n:], l))
    return out


def elements(n: int, l: int) -> list[ElemD]:
    out: list[ElemD] = []
    for k in range(l + 1):
        out.extend(shell(n, l, k))
    return out


def highest(n: int, l: int, k: int) -> ElemD:
    if not 0 <= k <= l:
        raise ValueError(f"component {k} out of range 0..{l}")
    return ElemD((k,) + (0,) * (n - 1), 0, (0,) * n, l)


def shell_size(n: int, k: int) -> int:
    return math.comb(k + 2 * n - 1, 2 * n - 1) + math.comb(k + 2 * n - 2, 2 * n - 1)


def expected_size(n: int, l: int) -> int:
    return sum(shell_size(n, k) for k in range(l + 1))


class CrystalD2(LevelModel):
    """Model adapter for the level-l coordinate crystal."""

    family = "d2"
    datum_family = Family.B

    def elements(self):
        return elements(self.rank, self.level)

    def element_id(self, b: ElemD) -> str:
        x = ",".join(str(c) for c in b.x)
        xb = ",".join(str(c) for c in b.xbar)
        return f"D{self.rank}:x={x};x0={b.x0};xb={xb}"

    def expected_size(self) -> int:
        return expected_size(self.rank, self.level)


def verify_theorems(n: int, l: int, category: str = "all",
                    table: Optional[OperatorTable] = None) -> list[CheckResult]:
    """Machine-check the structure theorems of the twisted model at (n, l).

    The maps for j < n raise two levels, so the runner works with the three
    consecutive levels l-2, l-1, l.
    """
    return run_theorems(SPEC, n, l, category, table)


SPEC = TheoremSpec(
    model=CrystalD2,
    embedding="level-inclusion",
    include=lambda b, l: ElemD(b.x, b.x0, b.xbar, l),
    prefix="psij",
    raise_map=psi_map,
    steps=lambda n: [(j, 1 if j == n else 2) for j in range(1, n + 1)],
    coordinate_boundary=lambda b: b.x0 == 0 and all(
        min(b.xval(j), b.xbarval(j)) == 0 for j in range(1, b.n + 1)
    ),
)
