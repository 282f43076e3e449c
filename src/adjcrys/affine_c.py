"""Level-l adjoint model on the affinization of type C_n.

Elements are tuples (x_1, ..., x_n, xbar_n, ..., xbar_1) of nonnegative
integers with even coordinate sum at most 2l; the component index is
k = (sum)/2.  The tuple is stored exactly in that order and serialized the
same way.  The level l is part of the element: the zero-node statistics
depend on l - k, so equal tuples at different levels are distinct values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .counting import compositions
from .crystal_graph import CheckResult, LevelModel, OperatorTable, TheoremSpec, run_theorems
from .root_data import Family, RootDatum, Weight


@dataclass(frozen=True)
class ElemC:
    coords: tuple[int, ...]
    level: int

    def __post_init__(self) -> None:
        if len(self.coords) % 2 != 0 or len(self.coords) < 4:
            raise ValueError("coordinate tuple must have even length >= 4")
        if any(c < 0 for c in self.coords):
            raise ValueError("coordinates must be nonnegative")
        total = sum(self.coords)
        if total % 2 != 0:
            raise ValueError("coordinate sum must be even")
        if total > 2 * self.level:
            raise ValueError(f"coordinate sum {total} exceeds 2*level={2 * self.level}")

    @property
    def n(self) -> int:
        return len(self.coords) // 2

    @property
    def k(self) -> int:
        return sum(self.coords) // 2

    def x(self, j: int) -> int:
        return self.coords[j - 1]

    def xbar(self, j: int) -> int:
        return self.coords[2 * self.n - j]

    def weight(self) -> Weight:
        datum = RootDatum(Family.C, self.n)
        return datum.weight(self.x(j) - self.xbar(j) for j in range(1, self.n + 1))

    def _moved(self, deltas: dict[int, int]) -> Optional["ElemC"]:
        out = list(self.coords)
        for idx, d in deltas.items():
            out[idx] += d
        if any(c < 0 for c in out) or sum(out) > 2 * self.level:
            return None
        return ElemC(tuple(out), self.level)

    def e(self, i: int) -> Optional["ElemC"]:
        n = self.n
        if i == 0:
            x1, xb1 = self.x(1), self.xbar(1)
            if x1 >= xb1 + 2:
                return self._moved({0: -2})
            if x1 == xb1 + 1:
                return self._moved({0: -1, 2 * n - 1: +1})
            return self._moved({2 * n - 1: +2})
        if i == n:
            return self._moved({n - 1: +1, n: -1})
        if self.x(i + 1) > self.xbar(i + 1):
            return self._moved({i - 1: +1, i: -1})
        return self._moved({2 * n - i - 1: +1, 2 * n - i: -1})

    def f(self, i: int) -> Optional["ElemC"]:
        n = self.n
        if i == 0:
            x1, xb1 = self.x(1), self.xbar(1)
            if x1 >= xb1:
                return self._moved({0: +2})
            if x1 == xb1 - 1:
                return self._moved({0: +1, 2 * n - 1: -1})
            return self._moved({2 * n - 1: -2})
        if i == n:
            return self._moved({n - 1: -1, n: +1})
        if self.x(i + 1) >= self.xbar(i + 1):
            return self._moved({i - 1: -1, i: +1})
        return self._moved({2 * n - i - 1: -1, 2 * n - i: +1})

    def eps(self, i: int) -> int:
        if i == 0:
            return (self.level - self.k) + max(0, self.x(1) - self.xbar(1))
        if i == self.n:
            return self.xbar(self.n)
        return self.xbar(i) + max(0, self.x(i + 1) - self.xbar(i + 1))

    def phi(self, i: int) -> int:
        if i == 0:
            return (self.level - self.k) + max(0, self.xbar(1) - self.x(1))
        if i == self.n:
            return self.x(self.n)
        return self.x(i) + max(0, self.xbar(i + 1) - self.x(i + 1))


def phi_map(j: int, b: ElemC) -> ElemC:
    """Raise the level and the component by one: bump x_j and xbar_j."""
    if not 1 <= j <= b.n:
        raise ValueError(f"map index {j} out of range 1..{b.n}")
    out = list(b.coords)
    out[j - 1] += 1
    out[2 * b.n - j] += 1
    return ElemC(tuple(out), b.level + 1)


def shell(n: int, l: int, k: int) -> list[ElemC]:
    return [ElemC(c, l) for c in compositions(2 * k, 2 * n)]


def elements(n: int, l: int) -> list[ElemC]:
    out: list[ElemC] = []
    for k in range(l + 1):
        out.extend(shell(n, l, k))
    return out


def highest(n: int, l: int, k: int) -> ElemC:
    if not 0 <= k <= l:
        raise ValueError(f"component {k} out of range 0..{l}")
    return ElemC((2 * k,) + (0,) * (2 * n - 1), l)


def shell_size(n: int, k: int) -> int:
    return math.comb(2 * k + 2 * n - 1, 2 * n - 1)


def expected_size(n: int, l: int) -> int:
    return sum(shell_size(n, k) for k in range(l + 1))


class CrystalC(LevelModel):
    """Model adapter for the level-l coordinate crystal."""

    family = "c1"
    datum_family = Family.C

    def elements(self):
        return elements(self.rank, self.level)

    def element_id(self, b: ElemC) -> str:
        x = ",".join(str(c) for c in b.coords[: self.rank])
        xb = ",".join(str(c) for c in b.coords[self.rank:])
        return f"C{self.rank}:x={x};xb={xb}"

    def expected_size(self) -> int:
        return expected_size(self.rank, self.level)


def verify_theorems(n: int, l: int, category: str = "all",
                    table: Optional[OperatorTable] = None) -> list[CheckResult]:
    """Machine-check the structure theorems of the C-type model at (n, l)."""
    return run_theorems(SPEC, n, l, category, table)


SPEC = TheoremSpec(
    model=CrystalC,
    embedding="level-inclusion",
    include=lambda b, l: ElemC(b.coords, l),
    prefix="phij",
    raise_map=phi_map,
    steps=lambda n: [(j, 1) for j in range(1, n + 1)],
    coordinate_boundary=lambda b: all(min(b.x(j), b.xbar(j)) == 0 for j in range(1, b.n + 1)),
)
