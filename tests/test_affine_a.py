"""The pair model: factor crystals, promotion, the tensor rule, alpha."""

import pytest

from adjcrys.affine_a import (
    KERNEL,
    AdjElemA,
    ColCrystal,
    ColElem,
    CrystalA,
    RowCrystal,
    RowElem,
    _alpha,
    _alpha_inverse,
    _theta,
    alpha_checks,
    col_elements,
    elements,
    expected_size,
    highest,
    promote,
    promote_inverse,
    promotion_checks,
    row_elements,
    shape_component,
    verify_theorems,
)
from adjcrys.crystal_graph import OperatorTable, all_passed, render_report
from adjcrys.root_data import Family, RootDatum
from adjcrys.tableaux import TensorPair, eps_phi
from helpers import fundamental_coeffs, highest_weight, rows, to_tensor, to_word


def test_promotion_examples():
    assert promote((2, 0, 0)) == (0, 2, 0)
    assert promote((1, 1, 1)) == (1, 1, 1)
    assert promote((0, 1, 1)) == (1, 0, 1)
    assert promote_inverse(promote((2, 1, 0))) == (2, 1, 0)


def test_factor_operator_examples():
    assert RowElem((0, 0, 2)).f(0) == RowElem((1, 0, 1))
    assert RowElem((2, 0, 0)).f(0) is None
    assert ColElem((0, 1, 1)).f(2) == ColElem((0, 2, 0))
    assert RowElem((1, 0, 0)).f(1) == RowElem((0, 1, 0))
    assert ColElem((1, 0, 0)).e(0) is None


def test_factor_stats_match_iteration():
    for n in (2, 3):
        for l in range(4):
            for b in row_elements(n, l) + col_elements(n, l):
                for i in range(n + 1):
                    assert (b.eps(i), b.phi(i)) == eps_phi(b, i)


def test_pair_operator_examples():
    b = AdjElemA(RowElem((1, 0, 0)), ColElem((1, 0, 0)))  # the k=0 element
    assert b.k == 0
    assert b.f(0) == AdjElemA(RowElem((1, 0, 0)), ColElem((0, 0, 1)))
    # all classical operators vanish on the trivial component
    for i in (1, 2):
        assert b.f(i) is None
        assert b.e(i) is None
    # ... and the letter-word realization agrees
    word = to_word(b)
    assert word.letters == (1, 2, 3)
    assert word.f(1) is None


def test_pair_inverse_pairing():
    for n in (2, 3):
        for l in range(3):
            for b in elements(n, l):
                for i in range(n + 1):
                    low = b.f(i)
                    if low is not None:
                        assert low.e(i) == b
                    high = b.e(i)
                    if high is not None:
                        assert high.f(i) == b


def test_pair_classical_ops_match_letter_words():
    # the count-vector tensor rule against the flat bracketing-rule oracle
    for n in (2, 3):
        for l in range(3):
            for b in elements(n, l):
                word = to_word(b)
                for i in range(1, n + 1):
                    for direction in ("e", "f"):
                        got = getattr(b, direction)(i)
                        expected = getattr(word, direction)(i)
                        if got is None:
                            assert expected is None
                        else:
                            assert expected is not None
                            assert to_word(got) == expected


def test_pair_classical_ops_match_tensor_of_tableaux():
    for n in (2, 3):
        for l in range(3):
            for b in elements(n, l):
                pair = to_tensor(b)
                for i in range(1, n + 1):
                    for direction in ("e", "f"):
                        got = getattr(b, direction)(i)
                        expected = getattr(pair, direction)(i)
                        if got is None:
                            assert expected is None
                        else:
                            assert isinstance(expected, TensorPair)
                            assert to_tensor(got) == expected


def test_alpha_examples():
    n = 2
    k, t = _alpha(((2, 0, 0), (2, 0, 0)), 2)  # the trivial element at level 2
    assert (k, t.columns) == (0, ())
    k, t = _alpha(((0, 1, 0), (0, 0, 1)), 1)
    assert k == 1
    assert rows(t) == ((1, 2), (2,))
    assert t.reading_word() == (2, 1, 2)
    for l in (1, 2):
        for b in KERNEL.values(n, l):
            k, t = _alpha(b, l)
            assert tuple(c - k for c in t.content()) == KERNEL.weight(b)
            assert _alpha_inverse(n, l, t) == b


def test_alpha_inverse_rejects_bad_shapes():
    from adjcrys.tableaux import Tableau

    with pytest.raises(ValueError):
        _alpha_inverse(2, 1, Tableau.from_rows(2, [(1, 1, 1)]))
    with pytest.raises(ValueError):
        _alpha_inverse(2, 1, highest_weight(2, (4, 2)))  # k=2 beyond level 1


def test_theta_examples():
    empty = ((0, 0, 0), (0, 0, 0))
    assert _theta(1, empty) == ((1, 0, 0), (1, 0, 0))
    t2 = _theta(2, empty)
    assert t2 == ((0, 1, 0), (0, 1, 0))
    assert KERNEL.component(t2, 1) == 1
    for l in (1, 2):
        for b in KERNEL.values(2, l - 1):
            k, weight = KERNEL.component(b, l - 1), KERNEL.weight(b)
            assert KERNEL.component(_theta(1, b), l) == k
            assert KERNEL.weight(_theta(1, b)) == weight
            for j in (2, 3):
                assert KERNEL.component(_theta(j, b), l) == k + 1
                assert KERNEL.weight(_theta(j, b)) == weight


def test_theta1_phi0_edge_case():
    # f_0 vanishes on the top component; one level up it has exactly one step left
    n, l = 2, 2
    for b in KERNEL.values(n, l - 1):
        if KERNEL.f(b, 0, l - 1) is None:
            above = _theta(1, b)
            assert KERNEL.phi(above, 0, l) == 1
            z = KERNEL.f(above, 0, l)
            assert z is not None and KERNEL.component(z, l) == l and KERNEL.f(z, 0, l) is None


def test_highest_elements():
    for n in (2, 3):
        for l in range(3):
            for k in range(l + 1):
                b = highest(n, l, k)
                assert KERNEL.component(b, l) == k
                weight = RootDatum(Family.A, n).weight(KERNEL.weight(b))
                assert fundamental_coeffs(weight) == tuple(
                    k * c for c in fundamental_coeffs(weight.datum.theta())
                )
                for i in range(1, n + 1):
                    assert KERNEL.e(b, i, l) is None
    with pytest.raises(ValueError):
        highest(2, 1, 2)


def test_component_sizes_sum_to_total():
    for n in (2, 3):
        for l in range(4):
            comps = [KERNEL.component(b, l) for b in KERNEL.values(n, l)]
            sizes = [comps.count(k) for k in range(l + 1)]
            assert sum(sizes) == expected_size(n, l) == len(elements(n, l))
    assert [KERNEL.component(b, 1) for b in KERNEL.values(2, 1)].count(1) == 8
    assert shape_component(2, 1) == (2, 1)
    assert shape_component(3, 2) == (4, 2, 2)


def test_promotion_checks_pass():
    for n in (2, 3):
        for l in range(4):
            report = promotion_checks(n, l)
            assert all_passed(report), render_report(report)


def test_alpha_checks_pass():
    for n in (2, 3):
        for l in (1, 2):
            report = alpha_checks(n, l)
            assert all_passed(report), render_report(report)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_alpha_checks_on_a_given_table(n, l):
    """Reading a prebuilt level-l table gives the report of a fresh one."""
    report = alpha_checks(n, l, OperatorTable(CrystalA(n, l)))
    assert report == alpha_checks(n, l)
    assert all_passed(report), render_report(report)


def test_verify_theorems_passes():
    for n, l in ((2, 1), (2, 2), (3, 2)):
        report = verify_theorems(n, l)
        assert all_passed(report), render_report(report)


def test_model_adapter_ids():
    model = CrystalA(2, 1)
    b = ((1, 0, 0), (0, 1, 0))
    assert model.element_id(b) == "A2:x=1,0,0;y=0,1,0"
    assert model.component(b) == 1
    assert model.expected_size() == 9
    assert RowCrystal(2, 1).expected_size() == 3
    assert ColCrystal(2, 1).expected_size() == 3
