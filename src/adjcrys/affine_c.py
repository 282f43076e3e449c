"""Level-l adjoint model on the affinization of type C_n.

Elements are tuples (x_1, ..., x_n, xbar_n, ..., xbar_1) of nonnegative
integers with even coordinate sum at most 2l; the component index is
k = (sum)/2.  The tuple is stored exactly in that order and serialized the
same way.  The level l is part of the element: the zero-node statistics
depend on l - k, so equal tuples at different levels are distinct values.

The crystal itself is `KERNEL`, pure functions on the coordinate tuples that
take the level as an argument, with x_j at index j-1 and xbar_j at index -j;
the model adapter `CrystalC` calls into it.  Each classical `f_i`/`e_i` moves
one unit between neighbouring slots (`counting.move_right`/`move_left`), and
`e_i` and `f_i` stay written independently for the ef-inverse check.  `ElemC`,
a value and its level, is built by `element_class` over the kernel for the
benchmark's tracer (`perfbench/traced.py`); no command builds one.
"""

from __future__ import annotations

import math
from operator import sub
from typing import Optional

from .counting import compositions, move_left, move_right
from .crystal_graph import CheckResult, Kernel, LevelModel, OperatorTable, TheoremSpec, element_class, run_theorems
from .root_data import Family


def _f(x: tuple[int, ...], i: int, l: int) -> Optional[tuple[int, ...]]:
    if i == 0:
        a, b = x[0], x[-1]
        if a >= b:
            return (a + 2,) + x[1:] if sum(x) + 2 <= 2 * l else None
        if a == b - 1:
            return (a + 1,) + x[1:-1] + (b - 1,)
        return x[:-1] + (b - 2,)
    n = len(x) // 2
    return move_right(x, i - 1 if i == n or x[i] >= x[-1 - i] else 2 * n - 1 - i)


def _e(x: tuple[int, ...], i: int, l: int) -> Optional[tuple[int, ...]]:
    if i == 0:
        a, b = x[0], x[-1]
        if a >= b + 2:
            return (a - 2,) + x[1:]
        if a == b + 1:
            return (a - 1,) + x[1:-1] + (b + 1,)
        return x[:-1] + (b + 2,) if sum(x) + 2 <= 2 * l else None
    n = len(x) // 2
    return move_left(x, i - 1 if i == n or x[i] > x[-1 - i] else 2 * n - 1 - i)


def _eps(x: tuple[int, ...], i: int, l: int) -> int:
    if i == 0:
        d = x[0] - x[-1]
        return l - sum(x) // 2 + (d if d > 0 else 0)
    if i == len(x) // 2:
        return x[-i]
    d = x[i] - x[-1 - i]
    return x[-i] + (d if d > 0 else 0)


def _phi(x: tuple[int, ...], i: int, l: int) -> int:
    if i == 0:
        d = x[-1] - x[0]
        return l - sum(x) // 2 + (d if d > 0 else 0)
    if i == len(x) // 2:
        return x[i - 1]
    d = x[-1 - i] - x[i]
    return x[i - 1] + (d if d > 0 else 0)


def _raise(j: int, x: tuple[int, ...]) -> tuple[int, ...]:
    """phi_j: bump x_j and xbar_j, raising the level and the component by one."""
    out = list(x)
    out[j - 1] += 1
    out[-j] += 1
    return tuple(out)


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
ElemC = element_class("ElemC", KERNEL, __name__)


def elements(n: int, l: int) -> list[ElemC]:
    return [ElemC(x, l) for x in KERNEL.values(n, l)]


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
    coordinate_boundary=lambda x: not any(map(min, x, reversed(x[len(x) // 2:]))),
)
