"""Level-l adjoint model on the twisted affinization over type B_n.

Elements are tuples (x_1, ..., x_n, x_0, xbar_n, ..., xbar_1) of nonnegative
integers with x_0 restricted to {0, 1}; the component index is the full
coordinate sum k <= l.  The x_0 slot is kept as a separate field so the
two-valued invariant is structural, and it is invisible to the weight.  The
level is part of the element, as in the C-type model.

The crystal itself is `KERNEL`, pure functions on the flat tuples
`coords` = x + (x_0,) + xbar that take the level as an argument, with x_j at
index j-1, x_0 at index n and xbar_j at index -j; `ElemD` and the model
adapter `CrystalD2` call into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import Optional

from .counting import compositions
from .crystal_graph import CheckResult, Kernel, LevelModel, OperatorTable, TheoremSpec, run_theorems
from .root_data import Family, RootDatum, Weight


def _moved(b: tuple[int, ...], l: int, i: int, di: int, j: int = 0, dj: int = 0):
    """b with b[i] += di and b[j] += dj; None when that leaves the crystal,
    which only a changed coordinate or, for a move up, the level bound shows."""
    out = list(b)
    out[i] += di
    out[j] += dj
    bad = out[i] < 0 or out[j] < 0 or out[len(out) // 2] > 1 or (di + dj > 0 and sum(out) > l)
    return None if bad else tuple(out)


def _f(b: tuple[int, ...], i: int, l: int) -> Optional[tuple[int, ...]]:
    n = len(b) // 2
    if i == 0:
        if b[0] >= b[-1]:
            return _moved(b, l, 0, +1)
        return _moved(b, l, -1, -1)
    if i == n:
        if b[n] == 0:
            return _moved(b, l, n - 1, -1, n, +1)
        return _moved(b, l, n, -1, -n, +1)
    if b[i] >= b[-1 - i]:
        return _moved(b, l, i - 1, -1, i, +1)
    return _moved(b, l, -1 - i, -1, -i, +1)


def _e(b: tuple[int, ...], i: int, l: int) -> Optional[tuple[int, ...]]:
    n = len(b) // 2
    if i == 0:
        if b[0] > b[-1]:
            return _moved(b, l, 0, -1)
        return _moved(b, l, -1, +1)
    if i == n:
        if b[n] == 0:
            return _moved(b, l, n, +1, -n, -1)
        return _moved(b, l, n - 1, +1, n, -1)
    if b[i] > b[-1 - i]:
        return _moved(b, l, i - 1, +1, i, -1)
    return _moved(b, l, -1 - i, +1, -i, -1)


def _eps(b: tuple[int, ...], i: int, l: int) -> int:
    n = len(b) // 2
    if i == 0:
        return (l - sum(b)) + 2 * max(0, b[0] - b[-1])
    if i == n:
        return 2 * b[-n] + b[n]
    return b[-i] + max(0, b[i] - b[-1 - i])


def _phi(b: tuple[int, ...], i: int, l: int) -> int:
    n = len(b) // 2
    if i == 0:
        return (l - sum(b)) + 2 * max(0, b[-1] - b[0])
    if i == n:
        return 2 * b[n - 1] + b[n]
    return b[i - 1] + max(0, b[-1 - i] - b[i])


def _raise(j: int, b: tuple[int, ...]) -> tuple[int, ...]:
    """psi_j: bump x_j and xbar_j across two levels for j < n; the j = n map
    raises one level, toggling the x_0 slot."""
    n = len(b) // 2
    out = list(b)
    if j < n:
        out[j - 1] += 1
        out[-j] += 1
    elif b[n] == 0:
        out[n] = 1
    else:
        out[n - 1] += 1
        out[n] = 0
        out[-n] += 1
    return tuple(out)


def _shell(n: int, k: int) -> list[tuple[int, ...]]:
    return [c[:n] + (x0,) + c[n:] for x0 in (0, 1) for c in compositions(k - x0, 2 * n)]


def _element(b: tuple[int, ...], l: int) -> "ElemD":
    n = len(b) // 2
    return ElemD(b[:n], b[n], b[n + 1:], l)


@dataclass(frozen=True)
class ElemD:
    x: tuple[int, ...]
    x0: int
    xbar: tuple[int, ...]  # descending index order: xbar_n, ..., xbar_1
    level: int

    def __post_init__(self) -> None:
        if len(self.x) != len(self.xbar) or not KERNEL.contains(self.coords, self.level):
            raise ValueError(f"coordinates do not describe a level-{self.level} element")

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def k(self) -> int:
        return sum(self.x) + self.x0 + sum(self.xbar)

    @property
    def coords(self) -> tuple[int, ...]:
        return self.x + (self.x0,) + self.xbar

    def weight(self) -> Weight:
        return RootDatum(Family.B, self.n).weight(KERNEL.weight(self.coords))

    def e(self, i: int) -> Optional["ElemD"]:
        c = KERNEL.e(self.coords, i, self.level)
        return None if c is None else _element(c, self.level)

    def f(self, i: int) -> Optional["ElemD"]:
        c = KERNEL.f(self.coords, i, self.level)
        return None if c is None else _element(c, self.level)

    def eps(self, i: int) -> int:
        return KERNEL.eps(self.coords, i, self.level)

    def phi(self, i: int) -> int:
        return KERNEL.phi(self.coords, i, self.level)


def elements(n: int, l: int) -> list[ElemD]:
    return [_element(b, l) for b in KERNEL.values(n, l)]


def highest(n: int, l: int, k: int) -> tuple[int, ...]:
    """The classically highest value of component k at level l."""
    if not 0 <= k <= l:
        raise ValueError(f"component {k} out of range 0..{l}")
    return (k,) + (0,) * (2 * n)


def shell_size(n: int, k: int) -> int:
    return math.comb(k + 2 * n - 1, 2 * n - 1) + math.comb(k + 2 * n - 2, 2 * n - 1)


def expected_size(n: int, l: int) -> int:
    return sum(shell_size(n, k) for k in range(l + 1))


KERNEL = Kernel(
    values=lambda n, l: [b for k in range(l + 1) for b in _shell(n, k)],
    f=_f, e=_e, eps=_eps, phi=_phi,
    weight=lambda b: tuple(map(sub, b[:len(b) // 2], reversed(b[len(b) // 2 + 1:]))),
    component=lambda b, l: sum(b),
    contains=lambda b, l: (
        len(b) >= 3 and len(b) % 2 == 1 and min(b) >= 0 and b[len(b) // 2] <= 1 and sum(b) <= l
    ),
    element_id=lambda b, n: (
        f"D{n}:x={','.join(map(str, b[:n]))};x0={b[n]};xb={','.join(map(str, b[n + 1:]))}"
    ),
    size=expected_size,
)


class CrystalD2(LevelModel):
    """Model adapter for the level-l coordinate crystal."""

    family = "d2"
    datum_family = Family.B
    kernel = KERNEL


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
    include=lambda b: b,  # the level is the model's, so a tuple of level l-1 is one of level l
    prefix="psij",
    raise_map=_raise,
    steps=lambda n: [(j, 1 if j == n else 2) for j in range(1, n + 1)],
    coordinate_boundary=lambda b: b[len(b) // 2] == 0 and all(
        min(b[j], b[-1 - j]) == 0 for j in range(len(b) // 2)
    ),
)
