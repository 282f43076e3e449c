"""Level-l adjoint model on the affinization of type C_n.

Elements are tuples (x_1, ..., x_n, xbar_n, ..., xbar_1) of nonnegative
integers with even coordinate sum at most 2l; the component index is
k = (sum)/2.  The tuple is stored exactly in that order and serialized the
same way.  The level l is part of the element: the zero-node statistics
depend on l - k, so equal tuples at different levels are distinct values.

The crystal itself is `KERNEL`, pure functions on the coordinate tuples that
take the level as an argument, with x_j at index j-1 and xbar_j at index -j;
`ElemC` and the model adapter `CrystalC` call into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import Optional

from .counting import compositions
from .crystal_graph import CheckResult, Kernel, LevelModel, OperatorTable, TheoremSpec, run_theorems
from .root_data import Family, RootDatum, Weight


def _moved(x: tuple[int, ...], l: int, i: int, di: int, j: int = 0, dj: int = 0):
    """x with x[i] += di and x[j] += dj; None when that leaves the crystal,
    which only a changed coordinate or, for a move up, the level bound shows."""
    out = list(x)
    out[i] += di
    out[j] += dj
    bad = out[i] < 0 or out[j] < 0 or (di + dj > 0 and sum(out) > 2 * l)
    return None if bad else tuple(out)


def _f(x: tuple[int, ...], i: int, l: int) -> Optional[tuple[int, ...]]:
    n = len(x) // 2
    if i == 0:
        if x[0] >= x[-1]:
            return _moved(x, l, 0, +2)
        if x[0] == x[-1] - 1:
            return _moved(x, l, 0, +1, -1, -1)
        return _moved(x, l, -1, -2)
    if i == n:
        return _moved(x, l, n - 1, -1, n, +1)
    if x[i] >= x[-1 - i]:
        return _moved(x, l, i - 1, -1, i, +1)
    return _moved(x, l, -1 - i, -1, -i, +1)


def _e(x: tuple[int, ...], i: int, l: int) -> Optional[tuple[int, ...]]:
    n = len(x) // 2
    if i == 0:
        if x[0] >= x[-1] + 2:
            return _moved(x, l, 0, -2)
        if x[0] == x[-1] + 1:
            return _moved(x, l, 0, -1, -1, +1)
        return _moved(x, l, -1, +2)
    if i == n:
        return _moved(x, l, n - 1, +1, n, -1)
    if x[i] > x[-1 - i]:
        return _moved(x, l, i - 1, +1, i, -1)
    return _moved(x, l, -1 - i, +1, -i, -1)


def _eps(x: tuple[int, ...], i: int, l: int) -> int:
    if i == 0:
        return (l - sum(x) // 2) + max(0, x[0] - x[-1])
    if i == len(x) // 2:
        return x[-i]
    return x[-i] + max(0, x[i] - x[-1 - i])


def _phi(x: tuple[int, ...], i: int, l: int) -> int:
    if i == 0:
        return (l - sum(x) // 2) + max(0, x[-1] - x[0])
    if i == len(x) // 2:
        return x[i - 1]
    return x[i - 1] + max(0, x[-1 - i] - x[i])


def _raise(j: int, x: tuple[int, ...]) -> tuple[int, ...]:
    """phi_j: bump x_j and xbar_j, raising the level and the component by one."""
    out = list(x)
    out[j - 1] += 1
    out[-j] += 1
    return tuple(out)


@dataclass(frozen=True)
class ElemC:
    coords: tuple[int, ...]
    level: int

    def __post_init__(self) -> None:
        if not KERNEL.contains(self.coords, self.level):
            raise ValueError(f"coordinates do not describe a level-{self.level} element")

    @property
    def n(self) -> int:
        return len(self.coords) // 2

    @property
    def k(self) -> int:
        return sum(self.coords) // 2

    def weight(self) -> Weight:
        return RootDatum(Family.C, self.n).weight(KERNEL.weight(self.coords))

    def e(self, i: int) -> Optional["ElemC"]:
        c = KERNEL.e(self.coords, i, self.level)
        return None if c is None else ElemC(c, self.level)

    def f(self, i: int) -> Optional["ElemC"]:
        c = KERNEL.f(self.coords, i, self.level)
        return None if c is None else ElemC(c, self.level)

    def eps(self, i: int) -> int:
        return KERNEL.eps(self.coords, i, self.level)

    def phi(self, i: int) -> int:
        return KERNEL.phi(self.coords, i, self.level)


def elements(n: int, l: int) -> list[ElemC]:
    return [ElemC(c, l) for c in KERNEL.values(n, l)]


def highest(n: int, l: int, k: int) -> tuple[int, ...]:
    """The classically highest value of component k at level l."""
    if not 0 <= k <= l:
        raise ValueError(f"component {k} out of range 0..{l}")
    return (2 * k,) + (0,) * (2 * n - 1)


def shell_size(n: int, k: int) -> int:
    return math.comb(2 * k + 2 * n - 1, 2 * n - 1)


def expected_size(n: int, l: int) -> int:
    return sum(shell_size(n, k) for k in range(l + 1))


KERNEL = Kernel(
    values=lambda n, l: [c for k in range(l + 1) for c in compositions(2 * k, 2 * n)],
    f=_f, e=_e, eps=_eps, phi=_phi,
    weight=lambda x: tuple(map(sub, x[:len(x) // 2], reversed(x[len(x) // 2:]))),
    component=lambda x, l: sum(x) // 2,
    contains=lambda x, l: (
        len(x) >= 4 and len(x) % 2 == 0 and min(x) >= 0 and sum(x) % 2 == 0 and sum(x) <= 2 * l
    ),
    element_id=lambda x, n: f"C{n}:x={','.join(map(str, x[:n]))};xb={','.join(map(str, x[n:]))}",
    size=expected_size,
)


class CrystalC(LevelModel):
    """Model adapter for the level-l coordinate crystal."""

    family = "c1"
    datum_family = Family.C
    kernel = KERNEL


def verify_theorems(n: int, l: int, category: str = "all",
                    table: Optional[OperatorTable] = None) -> list[CheckResult]:
    """Machine-check the structure theorems of the C-type model at (n, l)."""
    return run_theorems(SPEC, n, l, category, table)


SPEC = TheoremSpec(
    model=CrystalC,
    embedding="level-inclusion",
    include=lambda x: x,  # the level is the model's, so a tuple of level l-1 is one of level l
    prefix="phij",
    raise_map=_raise,
    steps=lambda n: [(j, 1) for j in range(1, n + 1)],
    coordinate_boundary=lambda x: all(min(x[j], x[-1 - j]) == 0 for j in range(len(x) // 2)),
)
