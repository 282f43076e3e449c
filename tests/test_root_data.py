"""Root datum arithmetic and the weight-shell criteria."""

from itertools import product
from operator import add

import pytest
from hypothesis import example, given, strategies as st

from adjcrys import affine_a, affine_c, affine_d2
from adjcrys.affine_a import shape_component
from adjcrys.root_data import (
    Family,
    RootDatum,
    ShellStep,
    classify_shift,
    in_shell,
    on_boundary,
    shell,
)
from helpers import (
    all_ssyt,
    fundamental_coeffs,
    pairing,
    reference_in_shell,
    reference_on_boundary,
    weight_from_fundamental,
)

A2 = RootDatum(Family.A, 2)
C2 = RootDatum(Family.C, 2)
B2 = RootDatum(Family.B, 2)
B3 = RootDatum(Family.B, 3)


def all_weights(datum, bound):
    """Every weight with |m_j| <= bound (sum-zero filtered for family A)."""
    vecs = product(range(-bound, bound + 1), repeat=datum.dim)
    if datum.family is Family.A:
        return [datum.weight(v) for v in vecs if sum(v) == 0]
    return [datum.weight(v) for v in vecs]


@st.composite
def weights(draw, max_rank=4, bound=6):
    """A root datum and the coordinates of one of its weights."""
    family = draw(st.sampled_from(list(Family)))
    rank = draw(st.integers(2 if family is Family.C else 1, max_rank))
    datum = RootDatum(family, rank)
    coeffs = draw(st.lists(st.integers(-bound, bound), min_size=datum.dim, max_size=datum.dim))
    if family is Family.A:
        coeffs[-1] = -sum(coeffs[:-1])
    return datum, datum.weight(coeffs)


@st.composite
def coordinate_tuples(draw, max_rank=4, bound=6):
    """A family and `dim` coordinates in -bound..bound for one of its ranks,
    not normalized: a family A tuple need not sum to zero."""
    family = draw(st.sampled_from(list(Family)))
    rank = draw(st.integers(2 if family is Family.C else 1, max_rank))
    dim = RootDatum(family, rank).dim
    return family, tuple(draw(st.lists(st.integers(-bound, bound), min_size=dim, max_size=dim)))


def test_theta():
    assert A2.theta() == (1, 0, -1)
    assert C2.theta() == (2, 0)
    assert B3.theta() == (1, 0, 0)


def test_simple_roots():
    assert A2.simple_root(1) == (1, -1, 0)
    assert A2.simple_root(2) == (0, 1, -1)
    assert C2.simple_root(2) == (0, 2)
    assert B2.simple_root(2) == (0, 1)
    with pytest.raises(IndexError):
        A2.simple_root(3)


def test_theta_is_sum_of_simple_roots():
    # A and B: theta = alpha_1 + ... + alpha_n; C: 2(alpha_1 + ... + alpha_{n-1}) + alpha_n
    for datum in (A2, RootDatum(Family.A, 3), B2, B3, C2, RootDatum(Family.C, 3)):
        roots = [datum.simple_root(i) for i in range(1, datum.rank + 1)]
        if datum.family is Family.C:
            roots += roots[:-1]
        total = (0,) * datum.dim
        for root in roots:
            total = tuple(map(add, total, root))
        assert total == datum.theta()


def test_a_family_normalization_enforced():
    with pytest.raises(ValueError):
        A2.weight((1, 0, 0))
    with pytest.raises(ValueError):
        RootDatum(Family.C, 1)


def test_weight_checks_the_dimension():
    assert C2.weight([2, -1]) == (2, -1)
    with pytest.raises(ValueError):
        C2.weight((1, 0, 0))
    with pytest.raises(ValueError):
        A2.weight((1, -1))


def test_pairing_against_cartan_matrix():
    # <h_i, alpha_j> recovers the Cartan matrices of A_n, C_n, B_n
    for datum, cartan in (
        (A2, [[2, -1], [-1, 2]]),
        (C2, [[2, -2], [-1, 2]]),
        (B2, [[2, -1], [-2, 2]]),
    ):
        got = [
            [pairing(datum, datum.simple_root(j), i) for j in range(1, datum.rank + 1)]
            for i in range(1, datum.rank + 1)
        ]
        assert got == cartan


def test_fundamental_coeffs_roundtrip():
    for datum in (A2, RootDatum(Family.A, 3), C2, B2, B3):
        for mu in all_weights(datum, 2):
            assert weight_from_fundamental(datum, fundamental_coeffs(datum, mu)) == mu
    assert fundamental_coeffs(A2, A2.theta()) == (1, 1)
    assert fundamental_coeffs(C2, C2.theta()) == (2, 0)
    assert fundamental_coeffs(B3, B3.theta()) == (1, 0, 0)


def test_weight_from_fundamental_rejects_nonintegral():
    with pytest.raises(ValueError):
        weight_from_fundamental(A2, (1, 0))  # first fundamental weight alone
    with pytest.raises(ValueError):
        weight_from_fundamental(B2, (0, 1))  # odd spin coefficient


def test_in_shell_examples():
    assert in_shell(Family.A, (1, 0, -1), 1)
    assert not in_shell(Family.C, (1, 0), 1)  # odd |mu| fails parity
    assert not in_shell(Family.B, (1, 1), 1)
    assert in_shell(Family.B, (1, 1), 2)
    for datum in (A2, C2, B2):
        assert in_shell(datum.family, (0,) * datum.dim, 0)


def test_shell_examples():
    assert shell(Family.A, (1, 0, -1)) == 1
    assert shell(Family.A, (-1, 2, -1)) == 2
    assert shell(Family.C, (1, 1)) == 1
    assert shell(Family.C, (1, 0)) is None  # odd |mu| lies in no shell
    assert shell(Family.B, (1, -1)) == 2
    for datum in (A2, C2, B2):
        assert shell(datum.family, (0,) * datum.dim) == 0


def test_on_boundary_examples():
    assert on_boundary(Family.C, (1, 1), 1)
    assert on_boundary(Family.B, (0, 0, 0), 0)
    assert not on_boundary(Family.A, (1, 0, -1), 2)


def test_classify_shift_examples():
    assert classify_shift(Family.A, (1, 0, -1), 1) is ShellStep.UP
    assert classify_shift(Family.A, (1, 0, 0, -1), 1) is ShellStep.UP
    assert classify_shift(Family.A, (0, -1, 1), 1) is ShellStep.SAME
    assert classify_shift(Family.A, (-1, 1, 0), 1) is ShellStep.SAME
    assert classify_shift(Family.A, (-1, 0, 1), 1) is ShellStep.DOWN
    assert classify_shift(Family.C, (-2, 0), 1) is ShellStep.DOWN
    assert classify_shift(Family.B, (-1, 0), 1) is ShellStep.DOWN
    assert classify_shift(Family.C, (-1, 1), 1) is ShellStep.SAME
    assert [step.value for step in ShellStep] == [1, 0, -1]
    with pytest.raises(ValueError):
        classify_shift(Family.A, (1, 0, -1), 2)


def test_shell_nesting_exhaustive():
    for datum in (A2, RootDatum(Family.A, 3), C2, B2, B3):
        for mu in all_weights(datum, 4):
            for smaller in range(5):
                if in_shell(datum.family, mu, smaller):
                    for k in range(smaller, 5):
                        assert in_shell(datum.family, mu, k)
                    break


def _boundary_routes_agree(family, coords, k):
    return on_boundary(family, coords, k) == (
        in_shell(family, coords, k) and not in_shell(family, coords, k - 1))


def test_boundary_routes_agree_exhaustive():
    # closed criterion vs in_shell(mu,k) and not in_shell(mu,k-1), |m_j| <= 5, n <= 4
    for family in Family:
        for rank in range(2 if family is Family.C else 1, 5):
            datum = RootDatum(family, rank)
            bound = 5 if datum.dim <= 4 else 3
            for mu in all_weights(datum, bound):
                for k in range(6):
                    assert _boundary_routes_agree(family, mu, k)


def test_classify_shift_consistency():
    # the claimed shell of mu + theta matches the boundary predicate directly
    for datum in (A2, RootDatum(Family.A, 3), C2, RootDatum(Family.C, 3), B2, B3):
        theta = datum.theta()
        for mu in all_weights(datum, 3):
            for k in range(4):
                if not on_boundary(datum.family, mu, k):
                    continue
                step = classify_shift(datum.family, mu, k)
                if datum.family is Family.B:
                    assert step is not ShellStep.SAME
                assert on_boundary(datum.family, tuple(map(add, mu, theta)), k + step.value)


@given(weights(), st.integers(0, 6))
def test_boundary_routes_agree_random(weight, k):
    datum, mu = weight
    assert _boundary_routes_agree(datum.family, mu, k)


@given(coordinate_tuples(), st.integers(-2, 8))
@example((Family.C, (1, 0)), 0)
@example((Family.C, (-3, 0, 0)), 2)
def test_shell_predicates_match_the_twin_criteria(weight, k):
    """`in_shell` and `on_boundary` read `shell` and agree with the closed
    criteria written out per predicate; `shell` is the least k that
    `reference_in_shell` takes, None when it takes none."""
    family, coords = weight
    assert in_shell(family, coords, k) == reference_in_shell(family, coords, k)
    assert on_boundary(family, coords, k) == reference_on_boundary(family, coords, k)
    least = next((j for j in range(6 * len(coords) + 1) if reference_in_shell(family, coords, j)), None)
    assert shell(family, coords) == least


@given(weights(), st.integers(0, 5))
def test_shell_nesting_random(weight, k):
    datum, mu = weight
    if in_shell(datum.family, mu, k):
        assert in_shell(datum.family, mu, k + 1)


def test_in_shell_matches_model_weights():
    # A: weights of the component tableaux; C and D2: coordinate shells
    for n in (2, 3):
        datum = RootDatum(Family.A, n)
        for k in range(4):
            expected = {
                datum.weight(c - k for c in t.content())
                for t in all_ssyt(n, shape_component(n, k))
            }
            box = {mu for mu in all_weights(datum, k) if in_shell(Family.A, mu, k)}
            assert box == expected
    for n in (2, 3):
        datum = RootDatum(Family.C, n)
        for k in range(4):
            expected = {datum.weight(affine_c.KERNEL.weight(b)) for b in affine_c.KERNEL.values(n, k)
                        if affine_c.KERNEL.component(b, k) == k}
            box = {mu for mu in all_weights(datum, 2 * k) if in_shell(Family.C, mu, k)}
            assert box == expected
    for n in (2, 3):
        datum = RootDatum(Family.B, n)
        for k in range(4):
            expected = {datum.weight(affine_d2.KERNEL.weight(b)) for b in affine_d2.KERNEL.values(n, k)
                        if affine_d2.KERNEL.component(b, k) == k}
            box = {mu for mu in all_weights(datum, k) if in_shell(Family.B, mu, k)}
            assert box == expected


def test_in_shell_contains_pair_model_components():
    # every weight occurring in component k of the pair model lies in its shell
    kernel = affine_a.KERNEL
    for n in (2, 3):
        datum = RootDatum(Family.A, n)
        for l in range(3):
            for b in kernel.values(n, l):
                assert in_shell(Family.A, datum.weight(kernel.weight(b)), kernel.component(b, l))
