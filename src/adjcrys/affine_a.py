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
from collections import Counter
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
from .tableaux import Tableau, TensorPair, Word, column_missing, flatten_letters, ssyt_count


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
    given.  The tableau side runs on objects and shares no code with the
    checker: `alpha` runs once per element and each `Tableau.e_i`/`f_i` once
    per slot.  Every image is a validated tableau and a wrong shape fails
    the round trip, so the distinct images of component k are all of
    B((2k, k^(n-1))) when there are as many as the hook-content formula
    counts.  A result the `Tableau` constructor rejects fails the check at
    the element.
    """
    if table is None:
        table = OperatorTable(CrystalA(n, l))
    elems, comp = table.elems, table.comp
    images: list[Optional[tuple[int, Tableau]]] = []  # alpha(b), None if rejected
    rejected: dict[int, str] = {}  # why alpha(b) is not a tableau
    for b, elem in enumerate(elems):
        try:
            images.append(alpha(elem))
        except ValueError as err:
            images.append(None)
            rejected[b] = f"alpha({elem}) is not a tableau: {err}"

    def bijection():
        owners: dict[tuple[int, Tableau], int] = {}
        for b, elem in enumerate(elems):
            if b in rejected:
                yield rejected[b]
                continue
            k, t = images[b]
            if k != comp[b]:
                yield f"alpha component mismatch at {elem}"
            prev = owners.setdefault(images[b], b)
            if prev != b:
                yield f"alpha not injective: {elem} and {elems[prev]}"
            if t.shape != shape_component(n, k) or not _round_trips(n, l, t, elem):
                yield f"alpha round trip fails at {elem}"
        sizes = Counter(k for k, _ in owners)
        for k in range(l + 1):
            if sizes[k] != ssyt_count(shape_component(n, k), n + 1):
                yield f"alpha image differs from the component crystal at k={k}"

    def weight_changes():
        for b, elem in enumerate(elems):
            if b in rejected:
                yield rejected[b]
                continue
            k, t = images[b]
            if tuple(c - k for c in t.content()) != table.weight[b]:
                yield f"alpha changes the weight at {elem}"

    def intertwining_failures():
        ops = [(d, i, table.row(d, i)) for i in range(1, n + 1) for d in ("f", "e")]
        for b, elem in enumerate(elems):
            if b in rejected:
                yield rejected[b]
                continue
            k, t = images[b]
            for d, i, row in ops:
                try:
                    ta = getattr(t, d)(i)
                except ValueError as err:
                    yield f"{d}_{i} of alpha({elem}) is not a tableau: {err}"
                    continue
                a = row[b]
                if a == UNDEFINED:
                    bad = ta is not None and f"alpha breaks vanishing of {d}_{i} at {elem}"
                elif a >= 0:
                    same = ta is not None and comp[a] == k and images[a] == (k, ta)
                    bad = not same and f"alpha does not intertwine {d}_{i} at {elem}"
                else:  # OUTSIDE: the model's result is missing from the table
                    bad = not _maps_to(getattr(elem, d)(i), ta) and (
                        f"alpha does not intertwine {d}_{i} at {elem}")
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


def _maps_to(a: AdjElemA, t: Optional[Tableau]) -> bool:
    try:
        return t is not None and alpha(a) == (a.k, t)
    except ValueError:
        return False
