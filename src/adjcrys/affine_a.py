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
them; the model adapters call into them.  Every operator is one slot move of
`counting`, as in `c1` and `d2`, and the pair reads the slots phi_i(x) and
eps_i(y) straight from its two vectors.  The kernels' ids share one cached
coordinate text per factor value (`_coords`).  The element classes `RowElem`,
`ColElem` and `AdjElemA`, a value and its level each, are built by
`element_class` over the three kernels for the benchmark's tracer
(`perfbench/traced.py`); no command builds one.  The checks run on the
values: `promote` is the promotion map of both factors and `_alpha`
takes a pair value, so `promotion_checks` and `alpha_checks` build no
element object.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache
from itertools import product
from operator import sub
from typing import Optional

from . import tableaux
from .counting import compositions, move_left, move_right
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
    element_class,
    run_theorems,
)
from .root_data import Family
from .tableaux import Tableau, column_missing, ssyt_count


# ---------------------------------------------------------------------------
# the kernels (`ROW_KERNEL`, `COL_KERNEL` and `KERNEL` below): the row and
# column factors on multiplicity vectors, the pair on (x, y).  Labels act
# cyclically on the n+1 slots (index -1 is slot n), so each factor operator
# is one slot move at i-1.  No operator needs the level l.


def _pair_f(b, i: int, l=None):
    x, y = b
    a = i - 1
    if x[a] > y[a]:  # x[a] is phi_i(x), y[a] is eps_i(y); here x[a] > 0, so f acts
        return move_right(x, a), y
    new = move_left(y, a)
    return None if new is None else (x, new)


def _pair_e(b, i: int, l=None):
    x, y = b
    a = i - 1
    if x[a] >= y[a]:  # x[a] is phi_i(x), y[a] is eps_i(y); else y[a] > 0, so e acts
        new = move_left(x, a)
        return None if new is None else (new, y)
    return x, move_right(y, a)


def _pair_eps(b, i: int, l=None) -> int:
    x, y = b
    d = y[i - 1] - x[i - 1]
    return x[i] + (d if d > 0 else 0)


def _pair_phi(b, i: int, l=None) -> int:
    x, y = b
    d = x[i - 1] - y[i - 1]
    return y[i] + (d if d > 0 else 0)


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


def shape_component(n: int, k: int) -> tuple[int, ...]:
    """Shape of the k-th classical component: (2k, k^(n-1))."""
    return () if k == 0 else (2 * k,) + (k,) * (n - 1)


def _alpha(b, l: int) -> tuple[int, Tableau]:
    """alpha, the classical isomorphism onto tableaux, on the value (x, y) at
    level l: the component and the tableau.  Strip the common count of the
    letter 1 and of the column missing 1, then concatenate the columns, the
    depth-n ones by decreasing missing letter and then the letters."""
    x, y = b
    n = len(x) - 1
    strip = min(x[0], y[0])
    cols = []
    for j in range(n + 1, 1, -1):
        cols += [column_missing(n, j)] * y[j - 1]
    cols += [column_missing(n, 1)] * (y[0] - strip) + [(1,)] * (x[0] - strip)
    for c in range(2, n + 2):
        cols += [(c,)] * x[c - 1]
    return l - strip, Tableau(n, tuple(cols))


def highest(n: int, l: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The classically highest value of component k at level l."""
    if not 0 <= k <= l:
        raise ValueError(f"component {k} out of range 0..{l}")
    return (l,) + (0,) * n, (l - k,) + (0,) * (n - 1) + (k,)


def factor_size(n: int, l: int) -> int:
    return math.comb(l + n, n)


def expected_size(n: int, l: int) -> int:
    return factor_size(n, l) ** 2


def shell_size(n: int, k: int) -> int:
    """The size of component k at any level: that of level k less that of level k-1."""
    return math.comb(k + n, n) ** 2 - math.comb(k + n - 1, n) ** 2


def _factor_values(n: int, l: int) -> list[tuple[int, ...]]:
    return list(compositions(l, n + 1))


def _factor_contains(v: tuple[int, ...], l: int) -> bool:
    return len(v) >= 2 and min(v) >= 0 and sum(v) == l


_coords = cache(lambda v: ",".join(map(str, v)))  # one text per factor value, for every id


ROW_KERNEL = Kernel(
    values=_factor_values,
    f=lambda x, i, l=None: move_right(x, i - 1),
    e=lambda x, i, l=None: move_left(x, i - 1),
    eps=lambda x, i, l=None: x[i],
    phi=lambda x, i, l=None: x[i - 1],
    weight=tuple, component=lambda x, l: None, contains=_factor_contains,
    element_id=lambda x, n: f"A{n}:x={_coords(x)}", size=factor_size,
)
COL_KERNEL = Kernel(
    values=_factor_values,
    f=lambda y, i, l=None: move_left(y, i - 1),
    e=lambda y, i, l=None: move_right(y, i - 1),
    eps=lambda y, i, l=None: y[i - 1],
    phi=lambda y, i, l=None: y[i],
    weight=lambda y: tuple(sum(y) - c for c in y),
    component=lambda y, l: None, contains=_factor_contains,
    element_id=lambda y, n: f"A{n}:y={_coords(y)}", size=factor_size,
)
KERNEL = Kernel(
    values=lambda n, l: list(product(_factor_values(n, l), repeat=2)),
    f=_pair_f, e=_pair_e, eps=_pair_eps, phi=_pair_phi,
    weight=lambda b: tuple(map(sub, *b)), component=lambda b, l: l - min(b[0][0], b[1][0]),
    contains=lambda b, l: len(b[0]) == len(b[1]) and all(_factor_contains(v, l) for v in b),
    element_id=lambda b, n: f"A{n}:x={_coords(b[0])};y={_coords(b[1])}",
    size=expected_size,
)
RowElem = element_class("RowElem", ROW_KERNEL, __name__)
ColElem = element_class("ColElem", COL_KERNEL, __name__)
AdjElemA = element_class("AdjElemA", KERNEL, __name__)


def row_elements(n: int, l: int) -> list[RowElem]:
    return [RowElem(x, l) for x in ROW_KERNEL.values(n, l)]


def col_elements(n: int, l: int) -> list[ColElem]:
    return [ColElem(y, l) for y in COL_KERNEL.values(n, l)]


def elements(n: int, l: int) -> list[AdjElemA]:
    return [AdjElemA(b, l) for b in KERNEL.values(n, l)]


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
        check_map(small, theta1, big.comp, small.comp, "component changed by the level map at {}",
                  name="theta1-component", category="embedding"),
        check_commutation(small, big, theta1, run.labels0, False,
                          name="theta1-classical-commute", category="embedding"),
        check_commutation(small, big, theta1, (0,), True,
                          name="theta1-affine-commute-nonzero", category="embedding"),
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
    checker: `_alpha` runs once per value and builds one tableau, of which
    the flat triple (k, column lengths, reading word) is kept, the lengths
    shared by equal values and the word a string of its letters as code
    points.  Images compare as that triple, and the column lengths give the
    shape.  One bracketing pass over the word, read back as ints, gives
    every label's `e_i` and `f_i` cells.  A result that is the image of its
    model value (same k, column lengths and reading word) is that validated
    tableau and passes unbuilt, e_i and f_i in one test; for any other,
    alpha(b) is built again and its own e_i or f_i builds the result through
    the constructor.  No element object is built.  Every image is a
    validated tableau of its component's shape, so the distinct images of
    component k are all of B((2k, k^(n-1))) when there are as many as the
    hook-content formula counts.  Kept weights and intertwined classical
    operators then make alpha a crystal isomorphism onto that connected
    crystal, and so the only one.  An image or result that fails its check
    fails at the element.
    """
    if table is None:
        table = OperatorTable(CrystalA(n, l))
    size, comp, name = len(table.elems), table.comp, table.element_id
    # alpha(b) as (k, column lengths, reading word), or (None, why it is not a tableau)
    images: list[tuple] = []
    bijection = weight = intertwining = ""
    seen: set[tuple] = set()  # the distinct images
    shared: dict[tuple, tuple] = {}  # column lengths: one tuple per value
    for b, value in enumerate(table.elems):
        try:
            k, t = _alpha(value, l)
        except ValueError as err:
            why = f"alpha({name(b)}) is not a tableau: {err}"
            images.append((None, why))
            bijection = bijection or why
            weight = weight or why
            continue
        lengths = tuple(map(len, t.columns))
        lengths = shared.setdefault(lengths, lengths)
        image = (k, lengths, "".join(map(chr, t.reading_word())))
        images.append(image)
        if not bijection:
            if k != comp[b]:
                bijection = f"alpha component mismatch at {name(b)}"
            elif image in seen:  # named by its first owner
                bijection = f"alpha not injective: {name(b)} and {name(images.index(image))}"
            elif lengths != (n,) * k + (1,) * k:
                bijection = f"alpha image has the wrong shape at {name(b)}"
        seen.add(image)
        if not weight and tuple(c - k for c in t.content()) != table.weight[b]:
            weight = f"alpha changes the weight at {name(b)}"

    rows = [(i, table.row("f", i), table.row("e", i)) for i in range(1, n + 1)]
    for b, value in enumerate(table.elems):
        image = images[b]
        if image[0] is None or intertwining:  # the first failure is found
            intertwining = intertwining or image[1]
            break
        k, lengths, word = image
        cells = tableaux.bracket_cells(tuple(map(ord, word)), n)
        for (i, f_row, e_row), (raise_pos, lower_pos) in zip(rows, cells, strict=True):
            fa, ea = f_row[b], e_row[b]
            f_ok = fa == UNDEFINED if lower_pos is None else fa >= 0 <= lower_pos and comp[fa] == k and (
                images[fa] == (k, lengths, word[:lower_pos] + chr(i + 1) + word[lower_pos + 1:]))
            e_ok = ea == UNDEFINED if raise_pos is None else ea >= 0 <= raise_pos and comp[ea] == k and (
                images[ea] == (k, lengths, word[:raise_pos] + chr(i) + word[raise_pos + 1:]))
            if f_ok and e_ok:
                continue  # each result is alpha of the model's result, or both vanish
            for d, a, ok in (("f", fa, f_ok), ("e", ea, e_ok)):
                if ok:
                    continue
                try:
                    ta = getattr(_alpha(value, l)[1], d)(i)  # on alpha(b), built again
                except ValueError as err:
                    intertwining = intertwining or f"{d}_{i} of alpha({name(b)}) is not a tableau: {err}"
                    continue
                if a == UNDEFINED:
                    bad = ta is not None and "alpha breaks vanishing of {}_{} at {}"
                elif a >= 0:  # the result is None or not alpha(a)
                    bad = "alpha does not intertwine {}_{} at {}"
                else:  # OUTSIDE: the model's result is missing from the table
                    v = getattr(KERNEL, d)(value, i, l)
                    bad = not _maps_to(v, ta) and "alpha does not intertwine {}_{} at {}"
                if bad:
                    intertwining = intertwining or bad.format(d, i, name(b))
    counts = Counter(k for k, _, _ in seen)
    bijection = bijection or next(
        (f"alpha image differs from the component crystal at k={k}" for k in range(l + 1)
         if counts[k] != ssyt_count(shape_component(n, k), n + 1)),
        "",
    )
    return [
        CheckResult("bijection", "alpha", not bijection, size + l + 1, bijection),
        CheckResult("weight-preserving", "alpha", not weight, size, weight),
        CheckResult("intertwines-classical", "alpha", not intertwining, size * 2 * n, intertwining),
    ]


def _maps_to(v, t: Optional[Tableau]) -> bool:
    """Whether the value v is an element, of any level, whose alpha image
    is the tableau t; an invalid value is not."""
    level = sum(v[0])
    try:
        return t is not None and KERNEL.contains(v, level) and _alpha(v, level)[1] == t
    except ValueError:
        return False
