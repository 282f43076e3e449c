"""Level-l adjoint model on the twisted affinization over type B_n.

Elements are tuples (x_1, ..., x_n, x_0, xbar_n, ..., xbar_1) of nonnegative
integers with x_0 restricted to {0, 1}; the component index is the full
coordinate sum k <= l.  The x_0 slot is invisible to the weight.  The level
is part of the element, as in the C-type model.

The crystal itself is `KERNEL`, pure functions on the flat tuples
x + (x_0,) + xbar that take the level as an argument, with x_j at index j-1,
x_0 at index n and xbar_j at index -j; the model adapter `CrystalD2` calls
into it.  Each classical `f_i`/`e_i`, and `f_n`/`e_n` through the x_0 slot,
moves one unit between neighbouring slots (`counting.move_right`/`move_left`),
and `e_i` and `f_i` stay written independently for the ef-inverse check.
`ElemD`, a flat value and its level, is built by `element_class` over the
kernel for the benchmark's tracer (`perfbench/traced.py`); no command builds
one.
"""

from __future__ import annotations

import math
from operator import sub
from typing import Optional

from .counting import compositions, move_left, move_right
from .crystal_graph import CheckResult, Kernel, LevelModel, OperatorTable, TheoremSpec, element_class, run_theorems
from .root_data import Family


def _f(b: tuple[int, ...], i: int, l: int) -> Optional[tuple[int, ...]]:
    if i == 0:
        if b[0] >= b[-1]:
            return (b[0] + 1,) + b[1:] if sum(b) + 1 <= l else None
        return b[:-1] + (b[-1] - 1,)
    n = len(b) // 2
    if i == n:
        return move_right(b, n if b[n] else n - 1)
    return move_right(b, i - 1 if b[i] >= b[-1 - i] else 2 * n - i)


def _e(b: tuple[int, ...], i: int, l: int) -> Optional[tuple[int, ...]]:
    if i == 0:
        if b[0] > b[-1]:
            return (b[0] - 1,) + b[1:]
        return b[:-1] + (b[-1] + 1,) if sum(b) + 1 <= l else None
    n = len(b) // 2
    if i == n:
        return move_left(b, n - 1 if b[n] else n)
    return move_left(b, i - 1 if b[i] > b[-1 - i] else 2 * n - i)


def _eps(b: tuple[int, ...], i: int, l: int) -> int:
    if i == 0:
        d = b[0] - b[-1]
        return l - sum(b) + (2 * d if d > 0 else 0)
    if i == len(b) // 2:
        return 2 * b[-i] + b[i]
    d = b[i] - b[-1 - i]
    return b[-i] + (d if d > 0 else 0)


def _phi(b: tuple[int, ...], i: int, l: int) -> int:
    if i == 0:
        d = b[-1] - b[0]
        return l - sum(b) + (2 * d if d > 0 else 0)
    if i == len(b) // 2:
        return 2 * b[i - 1] + b[i]
    d = b[-1 - i] - b[i]
    return b[i - 1] + (d if d > 0 else 0)


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
ElemD = element_class("ElemD", KERNEL, __name__)


def elements(n: int, l: int) -> list[ElemD]:
    return [ElemD(b, l) for b in KERNEL.values(n, l)]


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
    coordinate_boundary=lambda b: not b[len(b) // 2] and not any(
        map(min, b, reversed(b[len(b) // 2 + 1:]))
    ),
)
