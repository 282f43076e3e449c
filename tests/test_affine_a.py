"""The pair model: factor crystals, promotion, the tensor rule, alpha."""

import gc
import tracemalloc
from collections import Counter
from itertools import accumulate, product

import pytest

from adjcrys.affine_a import (
    COL_KERNEL,
    KERNEL,
    ROW_KERNEL,
    AdjElemA,
    ColCrystal,
    ColElem,
    CrystalA,
    RowCrystal,
    RowElem,
    _alpha,
    _theta,
    alpha_checks,
    expected_size,
    highest,
    promote,
    promote_inverse,
    promotion_checks,
    shape_component,
    shell_size,
    verify_theorems,
)
from adjcrys.crystal_graph import OperatorTable, all_passed, render_report
from adjcrys.root_data import Family, RootDatum
from adjcrys.tableaux import Tableau, TensorPair, ssyt_count
import helpers
from helpers import (
    fundamental_coeffs,
    iterated_stats,
    reference_factor_id,
    reference_pair_id,
    rows,
    to_tensor,
    to_word,
)


def test_promotion_examples():
    assert promote((2, 0, 0)) == (0, 2, 0)
    assert promote((1, 1, 1)) == (1, 1, 1)
    assert promote((0, 1, 1)) == (1, 0, 1)
    assert promote_inverse(promote((2, 1, 0))) == (2, 1, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_kernel_matches_the_tensor_rule(n):
    """The pair operators and statistics on every value of levels 0..4 at
    every label against the two-factor tensor rule through the factor
    kernels, and the four factor operators against one general shift."""
    pair = [(getattr(KERNEL, op), getattr(helpers, f"reference_pair_{op}"))
            for op in ("f", "e", "eps", "phi")]
    factor = [(getattr(kernel, op), getattr(helpers, f"reference_{name}_{op}"))
              for kernel, name in ((ROW_KERNEL, "row"), (COL_KERNEL, "col")) for op in ("f", "e")]
    for l, i in product(range(5), range(n + 1)):
        pairs = KERNEL.values(n, l)
        for op, ref in pair:
            assert [op(b, i, l) for b in pairs] == [ref(b, i) for b in pairs], (op.__name__, l, i)
        values = ROW_KERNEL.values(n, l)
        for op, ref in factor:
            assert [op(v, i, l) for v in values] == [ref(v, i) for v in values], (ref.__name__, l, i)


def test_factor_operator_examples():
    assert RowElem((0, 0, 2), 2).f(0) == RowElem((1, 0, 1), 2)
    assert RowElem((2, 0, 0), 2).f(0) is None
    assert ColElem((0, 1, 1), 2).f(2) == ColElem((0, 2, 0), 2)
    assert RowElem((1, 0, 0), 1).f(1) == RowElem((0, 1, 0), 1)
    assert ColElem((1, 0, 0), 1).e(0) is None


def test_element_construction():
    with pytest.raises(ValueError):
        RowElem((1, -1, 0), 0)
    with pytest.raises(ValueError):
        ColElem((2,), 2)
    with pytest.raises(ValueError):
        RowElem((1, 0, 0), 2)  # the value is of level 1
    with pytest.raises(ValueError):
        AdjElemA(((1, 0, 0), (1, 1, 0)), 1)  # the factor levels differ
    with pytest.raises(ValueError):
        AdjElemA(((1, 0), (1, 0, 0)), 1)  # the factor ranks differ


def test_factor_stats_match_iteration():
    for n in (2, 3):
        for l in range(4):
            for kernel in (ROW_KERNEL, COL_KERNEL):
                for v in kernel.values(n, l):
                    for i in range(n + 1):
                        closed = kernel.eps(v, i), kernel.phi(v, i)
                        assert closed == iterated_stats(kernel, v, i)


def test_pair_operator_examples():
    value = ((1, 0, 0), (1, 0, 0))  # the k=0 element
    assert KERNEL.component(value, 1) == 0
    b = AdjElemA(value, 1)
    assert b.f(0) == AdjElemA(((1, 0, 0), (0, 0, 1)), 1)
    # all classical operators vanish on the trivial component
    for i in (1, 2):
        assert b.f(i) is None
        assert b.e(i) is None
    # ... and the letter-word realization agrees
    word = to_word(value)
    assert word.letters == (1, 2, 3)
    assert word.f(1) is None


def test_pair_inverse_pairing():
    for n in (2, 3):
        for l in range(3):
            for b in KERNEL.values(n, l):
                for i in range(n + 1):
                    low = KERNEL.f(b, i, l)
                    if low is not None:
                        assert KERNEL.e(low, i, l) == b
                    high = KERNEL.e(b, i, l)
                    if high is not None:
                        assert KERNEL.f(high, i, l) == b


def test_pair_classical_ops_match_letter_words():
    # the count-vector tensor rule against the flat bracketing-rule oracle
    for n in (2, 3):
        for l in range(3):
            for b in KERNEL.values(n, l):
                word = to_word(b)
                for i in range(1, n + 1):
                    for direction in ("e", "f"):
                        got = getattr(KERNEL, direction)(b, i, l)
                        expected = getattr(word, direction)(i)
                        if got is None:
                            assert expected is None
                        else:
                            assert expected is not None
                            assert to_word(got) == expected


def test_pair_classical_ops_match_tensor_of_tableaux():
    for n in (2, 3):
        for l in range(3):
            for b in KERNEL.values(n, l):
                pair = to_tensor(b)
                for i in range(1, n + 1):
                    for direction in ("e", "f"):
                        got = getattr(KERNEL, direction)(b, i, l)
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
                datum = RootDatum(Family.A, n)
                weight = datum.weight(KERNEL.weight(b))
                assert fundamental_coeffs(datum, weight) == tuple(
                    k * c for c in fundamental_coeffs(datum, datum.theta())
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
            assert sum(sizes) == expected_size(n, l) == len(KERNEL.values(n, l))
    assert [KERNEL.component(b, 1) for b in KERNEL.values(2, 1)].count(1) == 8
    assert shape_component(2, 1) == (2, 1)
    assert shape_component(3, 2) == (4, 2, 2)


def test_shell_size_counts_each_component():
    for n in range(1, 7):
        sizes = [shell_size(n, k) for k in range(9)]
        assert sizes == [ssyt_count(shape_component(n, k), n + 1) for k in range(9)]
        assert list(accumulate(sizes)) == [expected_size(n, l) for l in range(9)]


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


@pytest.mark.parametrize("n, l", [(2, 2), (3, 3)])
def test_passing_alpha_checks_build_one_tableau_per_element(n, l, monkeypatch):
    """A passing run builds each image once, reads no shape (the column
    lengths give it), and compares every operator result as a word: no
    result tableau is built."""
    table = OperatorTable(CrystalA(n, l))
    calls = Counter()

    def post_init(self, original=Tableau.__post_init__):
        calls["built"] += 1
        original(self)

    def moved(self, pos, letter, original=Tableau.moved):
        calls["moved"] += 1
        return original(self, pos, letter)

    def shape(self, original=Tableau.shape.fget):
        calls["shape"] += 1
        return original(self)

    monkeypatch.setattr(Tableau, "__post_init__", post_init)
    monkeypatch.setattr(Tableau, "moved", moved)
    monkeypatch.setattr(Tableau, "shape", property(shape))
    report = alpha_checks(n, l, table)
    assert all_passed(report), render_report(report)
    size = len(table.elems)
    assert calls == Counter(built=size)


def test_alpha_checks_memory_per_element():
    """What `alpha_checks` holds per element stays compact: one flat
    (k, shared column lengths, word as a string) image and one set entry.
    Per element of `a1` n=3 l=5, the tracemalloc peak read 488 B with a set
    of images, 557 B with a dict from image to owner index and 728 B with
    nested tuple images (Python 3.11).
    A full collection first empties the interpreter's free lists, whose
    contents the peak would otherwise count or hide depending on what ran
    before, and none runs during the measured call."""
    table = OperatorTable(CrystalA(3, 5))
    alpha_checks(2, 2)  # warm up: first-call allocations are not per element
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        report = alpha_checks(3, 5, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert all_passed(report), render_report(report)
    assert peak / len(table.elems) < 540


def test_verify_theorems_passes():
    for n, l in ((2, 1), (2, 2), (3, 2)):
        report = verify_theorems(n, l)
        assert all_passed(report), render_report(report)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("l", range(4))
def test_element_ids_match_an_uncached_reference(n, l):
    """Every factor and pair id, and the ids of invalid values of the kind a
    seeded fault returns: a negative multiplicity, too long or too short."""
    factors = ROW_KERNEL.values(n, l) + [
        (l + 1, -1) + (0,) * (n - 1), (l,) + (0,) * (n + 1), (l,)]
    for v in factors:
        assert ROW_KERNEL.element_id(v, n) == reference_factor_id("x", v, n)
        assert COL_KERNEL.element_id(v, n) == reference_factor_id("y", v, n)
    for b in product(factors, repeat=2):
        assert KERNEL.element_id(b, n) == reference_pair_id(b, n)


def test_model_adapter_ids():
    model = CrystalA(2, 1)
    b = ((1, 0, 0), (0, 1, 0))
    assert model.element_id(b) == "A2:x=1,0,0;y=0,1,0"
    assert model.component(b) == 1
    assert model.expected_size() == 9
    assert RowCrystal(2, 1).expected_size() == 3
    assert ColCrystal(2, 1).expected_size() == 3
