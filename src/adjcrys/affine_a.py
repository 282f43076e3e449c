"""Level-l adjoint model on the affinization of type A_n.

Elements pair a one-row rectangle with an n-row rectangle, each recorded by
multiplicities: x_j counts the letter j in the row tableau, y_j counts the
depth-n columns missing j in the column tableau.  The affine operators on a
factor are cyclic shifts of the classical ones via the promotion map; the
pair carries the two-factor tensor rule.  The classical decomposition into
components indexed by k = l - min(x_1, y_1) is realized explicitly by the
map `alpha` onto tableaux of shape (2k, k^(n-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .counting import compositions
from .crystal_graph import (
    OUTSIDE,
    UNDEFINED,
    CheckResult,
    LevelModel,
    OperatorTable,
    TheoremSpec,
    check_commutation,
    check_map,
    run_theorems,
)
from .root_data import Family, RootDatum, Weight
from .tableaux import ShapeTable, Tableau, TensorPair, Word, column_missing, flatten_letters


def _shift(vec: tuple[int, ...], minus: int, plus: int) -> Optional[tuple[int, ...]]:
    if vec[minus] == 0:
        return None
    out = list(vec)
    out[minus] -= 1
    out[plus] += 1
    return tuple(out)


@dataclass(frozen=True)
class RowElem:
    """One-row rectangle element: x_j = multiplicity of the letter j."""

    x: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.x) < 2:
            raise ValueError("need at least two letters")
        if any(c < 0 for c in self.x):
            raise ValueError("multiplicities must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.x) - 1

    @property
    def level(self) -> int:
        return sum(self.x)

    def promote(self) -> "RowElem":
        return RowElem((self.x[-1],) + self.x[:-1])

    def promote_inverse(self) -> "RowElem":
        return RowElem(self.x[1:] + (self.x[0],))

    def f(self, i: int) -> Optional["RowElem"]:
        if i == 0:
            out = _shift(self.x, self.n, 0)
        else:
            out = _shift(self.x, i - 1, i)
        return None if out is None else RowElem(out)

    def e(self, i: int) -> Optional["RowElem"]:
        if i == 0:
            out = _shift(self.x, 0, self.n)
        else:
            out = _shift(self.x, i, i - 1)
        return None if out is None else RowElem(out)

    def eps(self, i: int) -> int:
        return self.x[0] if i == 0 else self.x[i]

    def phi(self, i: int) -> int:
        return self.x[self.n] if i == 0 else self.x[i - 1]

    def content(self) -> tuple[int, ...]:
        return self.x

    def to_tableau(self) -> Tableau:
        row = tuple(c for c in range(1, self.n + 2) for _ in range(self.x[c - 1]))
        return Tableau.from_rows(self.n, [row] if row else [])


@dataclass(frozen=True)
class ColElem:
    """n-row rectangle element: y_j = multiplicity of the column missing j."""

    y: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.y) < 2:
            raise ValueError("need at least two column kinds")
        if any(c < 0 for c in self.y):
            raise ValueError("multiplicities must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.y) - 1

    @property
    def level(self) -> int:
        return sum(self.y)

    def promote(self) -> "ColElem":
        return ColElem((self.y[-1],) + self.y[:-1])

    def promote_inverse(self) -> "ColElem":
        return ColElem(self.y[1:] + (self.y[0],))

    def f(self, i: int) -> Optional["ColElem"]:
        if i == 0:
            out = _shift(self.y, 0, self.n)
        else:
            out = _shift(self.y, i, i - 1)
        return None if out is None else ColElem(out)

    def e(self, i: int) -> Optional["ColElem"]:
        if i == 0:
            out = _shift(self.y, self.n, 0)
        else:
            out = _shift(self.y, i - 1, i)
        return None if out is None else ColElem(out)

    def eps(self, i: int) -> int:
        return self.y[self.n] if i == 0 else self.y[i - 1]

    def phi(self, i: int) -> int:
        return self.y[0] if i == 0 else self.y[i]

    def content(self) -> tuple[int, ...]:
        return tuple(self.level - c for c in self.y)

    def to_tableau(self) -> Tableau:
        cols = []
        for j in range(self.n + 1, 0, -1):
            cols.extend([column_missing(self.n, j)] * self.y[j - 1])
        return Tableau(self.n, tuple(cols))


@dataclass(frozen=True)
class AdjElemA:
    """A row factor tensor a column factor of the same rank and level."""

    row: RowElem
    col: ColElem

    def __post_init__(self) -> None:
        if self.row.n != self.col.n:
            raise ValueError("rank mismatch between factors")
        if self.row.level != self.col.level:
            raise ValueError("level mismatch between factors")

    @property
    def n(self) -> int:
        return self.row.n

    @property
    def level(self) -> int:
        return self.row.level

    @property
    def k(self) -> int:
        """Index of the classical component the element belongs to."""
        return self.level - min(self.row.x[0], self.col.y[0])

    @property
    def coords(self) -> tuple[int, ...]:
        return self.row.x + self.col.y

    def f(self, i: int) -> Optional["AdjElemA"]:
        if self.row.phi(i) > self.col.eps(i):
            new = self.row.f(i)
            return None if new is None else AdjElemA(new, self.col)
        new = self.col.f(i)
        return None if new is None else AdjElemA(self.row, new)

    def e(self, i: int) -> Optional["AdjElemA"]:
        if self.row.phi(i) >= self.col.eps(i):
            new = self.row.e(i)
            return None if new is None else AdjElemA(new, self.col)
        new = self.col.e(i)
        return None if new is None else AdjElemA(self.row, new)

    def eps(self, i: int) -> int:
        return self.row.eps(i) + max(0, self.col.eps(i) - self.row.phi(i))

    def phi(self, i: int) -> int:
        return self.col.phi(i) + max(0, self.row.phi(i) - self.col.eps(i))

    def weight(self) -> Weight:
        datum = RootDatum(Family.A, self.n)
        return datum.weight(a - b for a, b in zip(self.row.x, self.col.y))

    def to_tensor(self) -> TensorPair:
        return TensorPair(self.row.to_tableau(), self.col.to_tableau())

    def to_word(self) -> Word:
        return Word(self.n, flatten_letters(self.to_tensor()))


def theta_map(j: int, b: AdjElemA) -> AdjElemA:
    """Raise the level by one: add a letter j to the row, a column missing j
    to the column factor.  Injective and weight preserving."""
    if not 1 <= j <= b.n + 1:
        raise ValueError(f"map index {j} out of range 1..{b.n + 1}")
    x = list(b.row.x)
    y = list(b.col.y)
    x[j - 1] += 1
    y[j - 1] += 1
    return AdjElemA(RowElem(tuple(x)), ColElem(tuple(y)))


def shape_component(n: int, k: int) -> tuple[int, ...]:
    """Shape of the k-th classical component: (2k, k^(n-1))."""
    return () if k == 0 else (2 * k,) + (k,) * (n - 1)


def alpha(b: AdjElemA) -> tuple[int, Tableau]:
    """Classical isomorphism onto tableaux: strip the common count of the
    letter 1 and of the column missing 1, then concatenate reading words."""
    strip = min(b.row.x[0], b.col.y[0])
    k = b.level - strip
    x = (b.row.x[0] - strip,) + b.row.x[1:]
    y = (b.col.y[0] - strip,) + b.col.y[1:]
    cols = list(ColElem(y).to_tableau().columns)
    for c in range(1, b.n + 2):
        cols.extend([(c,)] * x[c - 1])
    return k, Tableau(b.n, tuple(cols))


def alpha_inverse(n: int, l: int, t: Tableau) -> AdjElemA:
    """Inverse of `alpha` at level l for a tableau of component shape."""
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
    return AdjElemA(RowElem(tuple(x)), ColElem(tuple(y)))


def row_elements(n: int, l: int) -> list[RowElem]:
    return [RowElem(x) for x in compositions(l, n + 1)]


def col_elements(n: int, l: int) -> list[ColElem]:
    return [ColElem(y) for y in compositions(l, n + 1)]


def elements(n: int, l: int) -> list[AdjElemA]:
    return [
        AdjElemA(row, col)
        for row in row_elements(n, l)
        for col in col_elements(n, l)
    ]


def shell(n: int, l: int, k: int) -> list[AdjElemA]:
    return [b for b in elements(n, l) if b.k == k]


def highest(n: int, l: int, k: int) -> AdjElemA:
    """The classically highest element of component k at level l."""
    if not 0 <= k <= l:
        raise ValueError(f"component {k} out of range 0..{l}")
    x = (l,) + (0,) * n
    y = (l - k,) + (0,) * (n - 1) + (k,)
    return AdjElemA(RowElem(x), ColElem(y))


def factor_size(n: int, l: int) -> int:
    return math.comb(l + n, n)


def expected_size(n: int, l: int) -> int:
    return factor_size(n, l) ** 2


# ---------------------------------------------------------------------------
# model adapters


class _FactorCrystal(LevelModel):
    """Shared adapter plumbing for the row and column factor crystals."""

    datum_family = Family.A

    def weight_coords(self, b) -> tuple[int, ...]:
        return b.content()

    def component(self, b) -> Optional[int]:
        return None

    def expected_size(self) -> int:
        return factor_size(self.rank, self.level)


class RowCrystal(_FactorCrystal):
    family = "a1-row"

    def elements(self):
        return row_elements(self.rank, self.level)

    def element_id(self, b) -> str:
        return f"A{self.rank}:x=" + ",".join(str(c) for c in b.x)

    def sort_key(self, b):
        return b.x


class ColCrystal(_FactorCrystal):
    family = "a1-col"

    def elements(self):
        return col_elements(self.rank, self.level)

    def element_id(self, b) -> str:
        return f"A{self.rank}:y=" + ",".join(str(c) for c in b.y)

    def sort_key(self, b):
        return b.y


class CrystalA(LevelModel):
    """Model adapter for the level-l pair crystal."""

    family = "a1"
    datum_family = Family.A

    def elements(self):
        return elements(self.rank, self.level)

    def element_id(self, b: AdjElemA) -> str:
        x = ",".join(str(c) for c in b.row.x)
        y = ",".join(str(c) for c in b.col.y)
        return f"A{self.rank}:x={x};y={y}"

    def expected_size(self) -> int:
        return expected_size(self.rank, self.level)


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
            if z < 0 or getattr(big.elems[c], stat)(0) != 1 or big.comp[z] != run.l:
                bad = bad or f"{op} boundary step wrong above {small.elems[b]}"
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
    include=lambda b, l: theta_map(1, b),
    prefix="thetaj",
    raise_map=theta_map,
    steps=lambda n: [(j, 1) for j in range(2, n + 2)],
    extras=_theta1_checks,
)


def promotion_checks(n: int, l: int) -> list[CheckResult]:
    """The cyclic-shift identities on both factor crystals: the twist
    sigma o op_j = op_{j+1} o sigma, the zero-node conjugation, and the
    order of sigma."""
    checks: list[CheckResult] = []
    domains = list(row_elements(n, l)) + list(col_elements(n, l))

    bad = ""
    cases = 0
    for b in domains:
        for i in range(n + 1):
            nxt = (i + 1) % (n + 1)
            for direction in ("f", "e"):
                cases += 1
                a = getattr(b, direction)(i)
                lhs = None if a is None else a.promote()
                rhs = getattr(b.promote(), direction)(nxt)
                if lhs != rhs:
                    bad = bad or f"twist fails at {b}, {direction}_{i}"
    checks.append(CheckResult("twist", "promotion", not bad, cases, bad))

    bad = ""
    cases = 0
    for b in domains:
        for direction in ("f", "e"):
            cases += 1
            direct = getattr(b, direction)(0)
            via = getattr(b.promote(), direction)(1)
            conj = None if via is None else via.promote_inverse()
            if direct != conj:
                bad = bad or f"zero-node conjugation fails at {b} ({direction})"
    checks.append(CheckResult("zero-node-conjugation", "promotion", not bad, cases, bad))

    bad = ""
    for b in domains:
        cur = b
        for _ in range(n + 1):
            cur = cur.promote()
        if cur != b:
            bad = bad or f"promotion order wrong at {b}"
    checks.append(CheckResult("order", "promotion", not bad, len(domains), bad))
    return checks


def alpha_checks(n: int, l: int, table: Optional[OperatorTable] = None) -> list[CheckResult]:
    """`alpha` as a classical isomorphism: bijectivity onto the tableau
    components, weight preservation, and intertwining all classical
    operators.

    The model side is read from the level-l table, built here when not
    given.  Each component B((2k, k^(n-1))) is a `ShapeTable`, and `alpha`
    runs once per element, kept as an index into its component's table; only
    an image outside that table is kept as a tableau.  A result the
    `Tableau` constructor rejects fails the check at the element.
    """
    if table is None:
        table = OperatorTable(CrystalA(n, l))
    elems, comp = table.elems, table.comp
    shapes = [ShapeTable(n, shape_component(n, k)) for k in range(l + 1)]
    ks: list[Optional[int]] = []
    at: list[int] = []  # index of alpha(b) in shapes[k], or OUTSIDE
    strays: dict[int, Tableau] = {}  # alpha(b) where it is not in shapes[k]
    rejected: dict[int, str] = {}  # why alpha(b) is not a tableau
    for b, elem in enumerate(elems):
        try:
            k, t = alpha(elem)
        except ValueError as err:
            k, t = None, None
            rejected[b] = f"alpha({elem}) is not a tableau: {err}"
        pos = shapes[k].index.get(t, OUTSIDE) if k in range(l + 1) else OUTSIDE
        if pos == OUTSIDE and t is not None:
            strays[b] = t
        ks.append(k)
        at.append(pos)

    def tableau(b: int) -> Tableau:
        return shapes[ks[b]].elems[at[b]] if at[b] >= 0 else strays[b]

    def bijection():
        owners = [[-1] * len(s.elems) for s in shapes]
        stray_owners: dict[tuple[int, Tableau], int] = {}
        for b, elem in enumerate(elems):
            if b in rejected:
                yield rejected[b]
                continue
            k, pos, t = ks[b], at[b], tableau(b)
            if k != comp[b]:
                yield f"alpha component mismatch at {elem}"
            if pos >= 0:
                prev, owners[k][pos] = owners[k][pos], b
            else:
                prev = stray_owners.get((k, t), -1)
                stray_owners[(k, t)] = b
            if prev >= 0:
                yield f"alpha not injective: {elem} and {elems[prev]}"
            if t.shape != shape_component(n, k) or not _round_trips(n, l, t, elem):
                yield f"alpha round trip fails at {elem}"
        for k, owner in enumerate(owners):
            if -1 in owner or any(kk == k for kk, _ in stray_owners):
                yield f"alpha image differs from the component crystal at k={k}"

    def weight_changes():
        weights = [[tuple(c - k for c in t.content()) for t in s.elems]
                   for k, s in enumerate(shapes)]
        for b, elem in enumerate(elems):
            if b in rejected:
                yield rejected[b]
                continue
            k, pos = ks[b], at[b]
            w = weights[k][pos] if pos >= 0 else tuple(c - k for c in strays[b].content())
            if w != table.weight[b]:
                yield f"alpha changes the weight at {elem}"

    def intertwining_failures():
        ops = [(d, i, table.row(d, i), [s.row(d, i) for s in shapes])
               for i in range(1, n + 1) for d in ("f", "e")]
        for b, elem in enumerate(elems):
            if b in rejected:
                yield rejected[b]
                continue
            k, pos = ks[b], at[b]
            for d, i, row, shape_rows in ops:
                a = row[b]
                r = shape_rows[k][pos] if pos >= 0 else OUTSIDE
                if r == OUTSIDE or a == OUTSIDE or (a >= 0 and at[a] < 0):
                    bad = _intertwining_on_objects(elem, tableau(b), d, i)
                elif a == UNDEFINED:
                    bad = r != UNDEFINED and f"alpha breaks vanishing of {d}_{i} at {elem}"
                else:  # tables of different components share no tableau
                    same = r != UNDEFINED and ks[a] == comp[a] == k and at[a] == r
                    bad = not same and f"alpha does not intertwine {d}_{i} at {elem}"
                if bad:
                    yield bad

    checks = []
    for name, cases, failures in (
        ("bijection", len(elems) + l + 1, bijection()),
        ("weight-preserving", len(elems), weight_changes()),
        ("intertwines-classical", len(elems) * 2 * n, intertwining_failures()),
    ):
        bad = next(failures, "")
        checks.append(CheckResult(name, "alpha", not bad, cases, bad))
    return checks


def _round_trips(n: int, l: int, t: Tableau, b: AdjElemA) -> bool:
    try:
        return alpha_inverse(n, l, t) == b
    except ValueError:
        return False


def _intertwining_on_objects(b: AdjElemA, t: Tableau, direction: str, i: int) -> str:
    """The intertwining statement at one slot, on objects: for the slots
    whose results are not in the tables."""
    try:
        ta = getattr(t, direction)(i)
    except ValueError as err:
        return f"{direction}_{i} of alpha({b}) is not a tableau: {err}"
    a = getattr(b, direction)(i)
    if a is None:
        return f"alpha breaks vanishing of {direction}_{i} at {b}" if ta is not None else ""
    try:
        same = ta is not None and alpha(a) == (a.k, ta)
    except ValueError:
        same = False
    return "" if same else f"alpha does not intertwine {direction}_{i} at {b}"
