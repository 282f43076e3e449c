"""Level-l adjoint model on the affinization of type A_n.

Elements pair a one-row rectangle with an n-row rectangle, each recorded by
multiplicities: x_j counts the letter j in the row tableau, y_j counts the
depth-n columns missing j in the column tableau.  The affine operators on a
factor are cyclic shifts of the classical ones via the promotion map; the
pair carries the two-factor tensor rule.  The classical decomposition into
components indexed by k = l - min(x_1, y_1) is realized explicitly by the
map alpha (`_alpha`) onto tableaux of shape (2k, k^(n-1)).

The crystals themselves are `ROW_KERNEL`, `COL_KERNEL` and the pair
`KERNEL`: pure functions on multiplicity vectors and on pairs (x, y) of
them; the model adapters call into them.  The element classes `RowElem`,
`ColElem` and `AdjElemA` wrap the kernels' `e`/`f` for the benchmark's
tracer (`perfbench/traced.py`); no command builds one.  The checks run on
the values: `promote` is the promotion map of both factors and `_alpha`
takes a pair value, so `promotion_checks` and `alpha_checks` build no
element object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import sub
from typing import Optional

from .counting import compositions
from .crystal_graph import (
    OUTSIDE,
    UNDEFINED,
    CheckResult,
    Kernel,
    LevelModel,
    OperatorTable,
    TheoremSpec,
    check_commutation,
    check_map,
    run_theorems,
)
from .root_data import Family
from .tableaux import Tableau, column_missing, ssyt_count


# ---------------------------------------------------------------------------
# the kernels (`ROW_KERNEL`, `COL_KERNEL` and `KERNEL` below): the row and
# column factors on multiplicity vectors, the pair on (x, y).  Labels act
# cyclically on the n+1 slots (index -1 is slot n), so each factor operator
# is one shift.  No operator needs the level l.


def _shift(vec: tuple[int, ...], minus: int, plus: int) -> Optional[tuple[int, ...]]:
    if vec[minus] == 0:
        return None
    out = list(vec)
    out[minus] -= 1
    out[plus] += 1
    return tuple(out)


def _pair_f(b, i: int, l=None):
    x, y = b
    if ROW_KERNEL.phi(x, i) > COL_KERNEL.eps(y, i):
        new = ROW_KERNEL.f(x, i)
        return None if new is None else (new, y)
    new = COL_KERNEL.f(y, i)
    return None if new is None else (x, new)


def _pair_e(b, i: int, l=None):
    x, y = b
    if ROW_KERNEL.phi(x, i) >= COL_KERNEL.eps(y, i):
        new = ROW_KERNEL.e(x, i)
        return None if new is None else (new, y)
    new = COL_KERNEL.e(y, i)
    return None if new is None else (x, new)


def _pair_eps(b, i: int, l=None) -> int:
    x, y = b
    return ROW_KERNEL.eps(x, i) + max(0, COL_KERNEL.eps(y, i) - ROW_KERNEL.phi(x, i))


def _pair_phi(b, i: int, l=None) -> int:
    x, y = b
    return COL_KERNEL.phi(y, i) + max(0, ROW_KERNEL.phi(x, i) - COL_KERNEL.eps(y, i))


def promote(v: tuple[int, ...]) -> tuple[int, ...]:
    """The promotion map on a row or column factor value: the cyclic shift
    that moves slot j to slot j+1 and slot n to slot 0."""
    return v[-1:] + v[:-1]


def promote_inverse(v: tuple[int, ...]) -> tuple[int, ...]:
    return v[1:] + v[:1]


def _theta(j: int, b):
    """theta_j: add a letter j to the row and a column missing j to the column factor."""
    x, y = list(b[0]), list(b[1])
    x[j - 1] += 1
    y[j - 1] += 1
    return tuple(x), tuple(y)


@dataclass(frozen=True)
class RowElem:
    """One-row rectangle element: x_j = multiplicity of the letter j."""

    x: tuple[int, ...]

    def __post_init__(self) -> None:
        level = sum(self.x)
        if not ROW_KERNEL.contains(self.x, level):
            raise ValueError(f"coordinates do not describe a level-{level} element")

    def f(self, i: int) -> Optional["RowElem"]:
        out = ROW_KERNEL.f(self.x, i)
        return None if out is None else RowElem(out)

    def e(self, i: int) -> Optional["RowElem"]:
        out = ROW_KERNEL.e(self.x, i)
        return None if out is None else RowElem(out)


@dataclass(frozen=True)
class ColElem:
    """n-row rectangle element: y_j = multiplicity of the column missing j."""

    y: tuple[int, ...]

    def __post_init__(self) -> None:
        level = sum(self.y)
        if not COL_KERNEL.contains(self.y, level):
            raise ValueError(f"coordinates do not describe a level-{level} element")

    def f(self, i: int) -> Optional["ColElem"]:
        out = COL_KERNEL.f(self.y, i)
        return None if out is None else ColElem(out)

    def e(self, i: int) -> Optional["ColElem"]:
        out = COL_KERNEL.e(self.y, i)
        return None if out is None else ColElem(out)


@dataclass(frozen=True)
class AdjElemA:
    """A row factor tensor a column factor of the same rank and level."""

    row: RowElem
    col: ColElem

    def __post_init__(self) -> None:
        level = sum(self.row.x)
        if not KERNEL.contains((self.row.x, self.col.y), level):
            raise ValueError(f"coordinates do not describe a level-{level} element")

    def f(self, i: int) -> Optional["AdjElemA"]:
        b = KERNEL.f((self.row.x, self.col.y), i, sum(self.row.x))
        return None if b is None else _pair_element(b)

    def e(self, i: int) -> Optional["AdjElemA"]:
        b = KERNEL.e((self.row.x, self.col.y), i, sum(self.row.x))
        return None if b is None else _pair_element(b)


def _pair_element(b) -> AdjElemA:
    return AdjElemA(RowElem(b[0]), ColElem(b[1]))


def shape_component(n: int, k: int) -> tuple[int, ...]:
    """Shape of the k-th classical component: (2k, k^(n-1))."""
    return () if k == 0 else (2 * k,) + (k,) * (n - 1)


def _alpha(b, l: int) -> tuple[int, Tableau]:
    """alpha, the classical isomorphism onto tableaux, on the value (x, y) at
    level l: the component and the tableau.  Strip the common count of the
    letter 1 and of the column missing 1, then concatenate the columns, the
    depth-n ones by decreasing missing letter and then the letters.  Equal
    columns are one shared object, which the tableau check passes over."""
    x, y = b
    n = len(x) - 1
    strip = min(x[0], y[0])
    x = (x[0] - strip,) + x[1:]
    y = (y[0] - strip,) + y[1:]
    cols = []
    for j in range(n + 1, 0, -1):
        cols.extend([column_missing(n, j)] * y[j - 1])
    for c in range(1, n + 2):
        cols.extend([(c,)] * x[c - 1])
    return l - strip, Tableau(n, tuple(cols))


def _alpha_inverse(n: int, l: int, t: Tableau) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The inverse of `_alpha` at level l: the value (x, y) of a tableau of
    component shape."""
    shape = t.shape
    k = shape[0] // 2 if shape else 0
    if shape != shape_component(n, k):
        raise ValueError(f"shape {shape} is not a component shape for rank {n}")
    if k > l:
        raise ValueError(f"component {k} does not exist at level {l}")
    x = [0] * (n + 1)
    y = [0] * (n + 1)
    for col in t.columns[:k]:
        missing = next(c for c in range(1, n + 2) if c not in col)
        y[missing - 1] += 1
    for col in t.columns[k:]:
        x[col[0] - 1] += 1
    x[0] += l - k
    y[0] += l - k
    return tuple(x), tuple(y)


def row_elements(n: int, l: int) -> list[RowElem]:
    return [RowElem(x) for x in compositions(l, n + 1)]


def col_elements(n: int, l: int) -> list[ColElem]:
    return [ColElem(y) for y in compositions(l, n + 1)]


def elements(n: int, l: int) -> list[AdjElemA]:
    return [_pair_element(b) for b in KERNEL.values(n, l)]


def highest(n: int, l: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The classically highest value of component k at level l."""
    if not 0 <= k <= l:
        raise ValueError(f"component {k} out of range 0..{l}")
    return (l,) + (0,) * n, (l - k,) + (0,) * (n - 1) + (k,)


def factor_size(n: int, l: int) -> int:
    return math.comb(l + n, n)


def expected_size(n: int, l: int) -> int:
    return factor_size(n, l) ** 2


def _factor_values(n: int, l: int) -> list[tuple[int, ...]]:
    return list(compositions(l, n + 1))


def _factor_contains(v: tuple[int, ...], l: int) -> bool:
    return len(v) >= 2 and min(v) >= 0 and sum(v) == l


ROW_KERNEL = Kernel(
    values=_factor_values,
    f=lambda x, i, l=None: _shift(x, i - 1, i),
    e=lambda x, i, l=None: _shift(x, i, i - 1),
    eps=lambda x, i, l=None: x[i],
    phi=lambda x, i, l=None: x[i - 1],
    weight=tuple, component=lambda x, l: None, contains=_factor_contains,
    element_id=lambda x, n: f"A{n}:x=" + ",".join(map(str, x)), size=factor_size,
)
COL_KERNEL = Kernel(
    values=_factor_values,
    f=lambda y, i, l=None: _shift(y, i, i - 1),
    e=lambda y, i, l=None: _shift(y, i - 1, i),
    eps=lambda y, i, l=None: y[i - 1],
    phi=lambda y, i, l=None: y[i],
    weight=lambda y: tuple(sum(y) - c for c in y),
    component=lambda y, l: None, contains=_factor_contains,
    element_id=lambda y, n: f"A{n}:y=" + ",".join(map(str, y)), size=factor_size,
)
KERNEL = Kernel(
    values=lambda n, l: list(product(_factor_values(n, l), repeat=2)),
    f=_pair_f, e=_pair_e, eps=_pair_eps, phi=_pair_phi,
    weight=lambda b: tuple(map(sub, *b)), component=lambda b, l: l - min(b[0][0], b[1][0]),
    contains=lambda b, l: len(b[0]) == len(b[1]) and all(_factor_contains(v, l) for v in b),
    element_id=lambda b, n: f"A{n}:x={','.join(map(str, b[0]))};y={','.join(map(str, b[1]))}",
    size=expected_size,
)


# ---------------------------------------------------------------------------
# model adapters


class RowCrystal(LevelModel):
    family = "a1-row"
    datum_family = Family.A
    kernel = ROW_KERNEL


class ColCrystal(LevelModel):
    family = "a1-col"
    datum_family = Family.A
    kernel = COL_KERNEL


class CrystalA(LevelModel):
    """Model adapter for the level-l pair crystal."""

    family = "a1"
    datum_family = Family.A
    kernel = KERNEL


# ---------------------------------------------------------------------------
# exhaustive verification


def _theta1_checks(run) -> list[CheckResult]:
    """theta_1 keeps the component, commutes with every classical operator
    and with the zero-node ones where they are defined, and where f_0 or e_0
    vanishes below, the image sits one zero-node step from component l."""
    small, big, theta1 = run.small, run.big, run.embedding
    checks = [
        check_map(
            small, theta1, lambda b, c: big.comp[c] == small.comp[b],
            "component changed by the level map at {}",
            name="theta1-component", category="embedding",
        ),
        check_commutation(
            small, big, theta1, [(d, i, False) for d in ("f", "e") for i in run.labels0],
            name="theta1-classical-commute", category="embedding",
        ),
        check_commutation(
            small, big, theta1, [("f", 0, True), ("e", 0, True)],
            name="theta1-affine-commute-nonzero", category="embedding",
        ),
    ]
    bad, cases = "", 0
    steps = (("f_0", "phi", small.f[0], big.f[0]), ("e_0", "eps", small.e[0], big.e[0]))
    for b, c in enumerate(theta1):
        for op, stat, below, above in steps:
            if below[b] != UNDEFINED:
                continue
            cases += 1
            z = above[c] if c >= 0 else OUTSIDE
            if z < 0 or getattr(KERNEL, stat)(big.elems[c], 0, run.l) != 1 or big.comp[z] != run.l:
                bad = bad or f"{op} boundary step wrong above {small.element_id(b)}"
    checks.append(CheckResult("theta1-boundary-step", "embedding", not bad, cases, bad))
    return checks


def verify_theorems(n: int, l: int, category: str = "all",
                    table: Optional[OperatorTable] = None) -> list[CheckResult]:
    """Machine-check the structure theorems of the pair model at (n, l):
    the level-one embedding, the commuting level-raising maps, the boundary
    image description, weight multiplicity freeness, and the f_0 landing."""
    return run_theorems(SPEC, n, l, category, table)


SPEC = TheoremSpec(
    model=CrystalA,
    embedding="theta1",
    include=lambda b: _theta(1, b),
    prefix="thetaj",
    raise_map=_theta,
    steps=lambda n: [(j, 1) for j in range(2, n + 2)],
    extras=_theta1_checks,
)


def promotion_checks(n: int, l: int) -> list[CheckResult]:
    """The cyclic-shift identities on the values of both factor crystals:
    the twist sigma o op_j = op_{j+1} o sigma, the zero-node conjugation, and
    the order of sigma.  One pass over the values keeps the first failure of
    each.  Messages name the factor value by its id."""
    twist = conjugation = order = ""
    size = 0
    for kernel in (ROW_KERNEL, COL_KERNEL):
        ops = (("f", kernel.f), ("e", kernel.e))
        for v in kernel.values(n, l):
            size += 1
            pv = promote(v)
            for i in range(n + 1):
                for direction, op in ops:
                    a, via = op(v, i), op(pv, (i + 1) % (n + 1))
                    if (None if a is None else promote(a)) != via:
                        twist = twist or f"twist fails at {kernel.element_id(v, n)}, {direction}_{i}"
                    # at i = 0 the same two results give the zero-node conjugation
                    if i == 0 and a != (None if via is None else promote_inverse(via)):
                        conjugation = conjugation or (
                            f"zero-node conjugation fails at {kernel.element_id(v, n)} ({direction})")
            cur = pv
            for _ in range(n):
                cur = promote(cur)
            if cur != v:
                order = order or f"promotion order wrong at {kernel.element_id(v, n)}"
    return [
        CheckResult("twist", "promotion", not twist, size * 2 * (n + 1), twist),
        CheckResult("zero-node-conjugation", "promotion", not conjugation, size * 2, conjugation),
        CheckResult("order", "promotion", not order, size, order),
    ]


def alpha_checks(n: int, l: int, table: Optional[OperatorTable] = None) -> list[CheckResult]:
    """alpha as a classical isomorphism: bijectivity onto the tableau
    components, weight preservation, and intertwining all classical
    operators.

    The model side is read from the level-l table, built here when not
    given.  The tableau side runs on objects and shares no code with the
    checker: `_alpha` runs once per value and builds one tableau, and one
    bracketing per label gives each image's `e_i` and `f_i` cells; the round
    trip compares coordinates, images compare as (k, columns).  No element
    object is built.  Every image is a validated tableau and a wrong shape
    fails the round trip, so the distinct images of component k are all of
    B((2k, k^(n-1))) when there are as many as the hook-content formula
    counts.  An image or result that fails its check fails at the element.
    """
    if table is None:
        table = OperatorTable(CrystalA(n, l))
    size, comp, name = len(table.elems), table.comp, table.element_id
    images: list[tuple[Optional[int], Optional[Tableau]]] = []  # alpha(b), or (None, None)
    rejected: dict[int, str] = {}  # why alpha(b) is not a tableau
    for b, value in enumerate(table.elems):
        try:
            images.append(_alpha(value, l))
        except ValueError as err:
            images.append((None, None))
            rejected[b] = f"alpha({name(b)}) is not a tableau: {err}"

    bijection = weight = intertwining = ""
    owners: dict[int, dict[tuple, int]] = {}  # k, then columns of an image: its first owner
    rows = [(i, table.row("f", i), table.row("e", i)) for i in range(1, n + 1)]
    for b, value in enumerate(table.elems):
        if b in rejected:
            bijection = bijection or rejected[b]
            weight = weight or rejected[b]
            intertwining = intertwining or rejected[b]
            continue
        k, t = images[b]
        prev = owners.setdefault(k, {}).setdefault(t.columns, b)
        if not bijection:
            if k != comp[b]:
                bijection = f"alpha component mismatch at {name(b)}"
            elif prev != b:
                bijection = f"alpha not injective: {name(b)} and {name(prev)}"
            elif t.shape != shape_component(n, k) or not _round_trips(n, l, t, value):
                bijection = f"alpha round trip fails at {name(b)}"
        if not weight and tuple(c - k for c in t.content()) != table.weight[b]:
            weight = f"alpha changes the weight at {name(b)}"
        if intertwining:
            continue
        for i, f_row, e_row in rows:
            raise_pos, lower_pos = t.rule_cells(i)
            for d, pos, letter, row in (("f", lower_pos, i + 1, f_row),
                                        ("e", raise_pos, i, e_row)):
                try:
                    ta = t.moved(pos, letter)
                except ValueError as err:
                    intertwining = intertwining or (
                        f"{d}_{i} of alpha({name(b)}) is not a tableau: {err}")
                    continue
                a = row[b]
                if a == UNDEFINED:
                    bad = ta is not None and "alpha breaks vanishing of {}_{} at {}"
                elif a >= 0:
                    same = (ta is not None and comp[a] == k == images[a][0]
                            and images[a][1].columns == ta.columns)
                    bad = not same and "alpha does not intertwine {}_{} at {}"
                else:  # OUTSIDE: the model's result is missing from the table
                    v = getattr(KERNEL, d)(value, i, l)
                    bad = not _maps_to(v, ta) and "alpha does not intertwine {}_{} at {}"
                if bad:
                    intertwining = intertwining or bad.format(d, i, name(b))
    bijection = bijection or next(
        (f"alpha image differs from the component crystal at k={k}" for k in range(l + 1)
         if len(owners.get(k, ())) != ssyt_count(shape_component(n, k), n + 1)),
        "",
    )
    return [
        CheckResult("bijection", "alpha", not bijection, size + l + 1, bijection),
        CheckResult("weight-preserving", "alpha", not weight, size, weight),
        CheckResult("intertwines-classical", "alpha", not intertwining, size * 2 * n, intertwining),
    ]


def _round_trips(n: int, l: int, t: Tableau, b) -> bool:
    try:
        return _alpha_inverse(n, l, t) == b
    except ValueError:
        return False


def _maps_to(v, t: Optional[Tableau]) -> bool:
    """Whether the value v is an element, of any level, whose alpha image
    is the tableau t; an invalid value is not."""
    level = sum(v[0])
    try:
        return t is not None and KERNEL.contains(v, level) and _alpha(v, level)[1] == t
    except ValueError:
        return False
