"""The C-type coordinate model."""

import pytest

from adjcrys.affine_c import (
    KERNEL,
    CrystalC,
    ElemC,
    _raise,
    elements,
    expected_size,
    highest,
    shell_size,
    verify_theorems,
)
from adjcrys.crystal_graph import all_passed, render_report
from adjcrys.root_data import Family, RootDatum, ShellStep, classify_shift, on_boundary
from adjcrys.tableaux import eps_phi


def test_construction_rejects_invalid_tuples():
    with pytest.raises(ValueError):
        ElemC((1, 0, 0, 0), 1)  # odd coordinate sum
    with pytest.raises(ValueError):
        ElemC((2, 2, 0, 0), 1)  # sum beyond 2l
    with pytest.raises(ValueError):
        ElemC((1, -1, 0, 0), 1)
    b = ElemC((0, 1, 0, 1), 1)
    assert b.k == 1
    assert (b.coords[1], b.coords[-2], b.coords[-1]) == (1, 0, 1)  # x_2, xbar_2, xbar_1


def test_zero_node_operator_examples():
    assert ElemC((0, 0, 0, 0), 1).f(0).coords == (2, 0, 0, 0)
    assert ElemC((0, 0, 0, 2), 1).f(0).coords == (0, 0, 0, 0)
    assert ElemC((0, 1, 0, 1), 1).f(0).coords == (1, 1, 0, 0)
    assert ElemC((2, 0, 0, 0), 1).f(0) is None  # would leave the level
    assert ElemC((2, 0, 0, 0), 2).f(0).coords == (4, 0, 0, 0)


def test_classical_operator_examples():
    assert ElemC((1, 0, 0, 1), 1).f(1).coords == (0, 1, 0, 1)
    assert ElemC((0, 1, 0, 1), 1).f(2).coords == (0, 0, 1, 1)
    assert ElemC((0, 0, 1, 1), 1).e(2).coords == (0, 1, 0, 1)
    assert ElemC((0, 0, 0, 0), 1).f(1) is None


def test_level_is_part_of_the_element():
    assert ElemC((0, 0, 0, 0), 1) != ElemC((0, 0, 0, 0), 2)
    assert ElemC((0, 0, 0, 0), 1).phi(0) == 1
    assert ElemC((0, 0, 0, 0), 2).phi(0) == 2


def test_stats_match_iteration():
    for n in (2, 3):
        for l in range(4):
            for b in elements(n, l):
                for i in range(n + 1):
                    assert (b.eps(i), b.phi(i)) == eps_phi(b, i)


def test_inverse_pairing():
    for n in (2, 3):
        for l in range(4):
            for b in elements(n, l):
                for i in range(n + 1):
                    low = b.f(i)
                    if low is not None:
                        assert low.e(i) == b
                    high = b.e(i)
                    if high is not None:
                        assert high.f(i) == b


def test_weight_steps():
    for n in (2, 3):
        datum = RootDatum(Family.C, n)
        for l in range(3):
            for b in elements(n, l):
                for i in range(n + 1):
                    low = b.f(i)
                    if low is None:
                        continue
                    step = datum.theta() if i == 0 else -datum.simple_root(i)
                    assert low.weight() - b.weight() == step


def test_counts():
    assert len(elements(2, 1)) == 11
    assert shell_size(2, 1) == 10
    for n in (2, 3):
        for l in range(4):
            assert len(elements(n, l)) == expected_size(n, l)
            comps = [KERNEL.component(b, l) for b in KERNEL.values(n, l)]
            for k in range(l + 1):
                assert comps.count(k) == shell_size(n, k)


def test_boundary_coordinate_criterion():
    for n in (2, 3):
        for l in range(3):
            for b in elements(n, l):
                x = b.coords  # x_j at index j-1, xbar_j at index -j
                coordinate = all(min(x[j - 1], x[-j]) == 0 for j in range(1, n + 1))
                assert coordinate == on_boundary(Family.C, b.weight().coeffs, b.k)


def test_level_inclusion_is_full_subgraph():
    n, l = 2, 3
    small = set(ElemC(b.coords, l) for b in elements(n, l - 1))
    for b in elements(n, l - 1):
        wide = ElemC(b.coords, l)
        for i in range(n + 1):
            for direction in ("e", "f"):
                inner = getattr(b, direction)(i)
                outer = getattr(wide, direction)(i)
                if inner is not None:
                    assert outer == ElemC(inner.coords, l)
                else:
                    assert outer is None or outer not in small


def test_raise_properties():
    for n in (2, 3):
        for l in (1, 2):
            for b in KERNEL.values(n, l - 1):
                for j in range(1, n + 1):
                    image = _raise(j, b)
                    assert KERNEL.contains(image, l)
                    assert KERNEL.component(image, l) == KERNEL.component(b, l - 1) + 1
                    assert KERNEL.weight(image) == KERNEL.weight(b)
    assert _raise(1, (0, 0, 0, 0)) == (1, 0, 0, 1)


def test_zero_node_landing_spot_checks():
    # a SAME landing: m_1 = -1 on the boundary keeps the component
    b = ElemC((0, 1, 0, 1), 2)  # weight (-1, 1), boundary of k=1
    assert classify_shift(Family.C, b.weight().coeffs, b.k) is ShellStep.SAME
    z = b.f(0)
    assert z is not None and z.k == b.k
    # a DOWN landing: m_1 <= -2
    b = ElemC((0, 0, 0, 2), 2)  # weight (-2, 0)
    assert classify_shift(Family.C, b.weight().coeffs, b.k) is ShellStep.DOWN
    z = b.f(0)
    assert z is not None and z.k == b.k - 1
    # the top-component kill
    b = ElemC((2, 0, 0, 0), 1)
    assert b.f(0) is None


def test_highest_elements():
    for n in (2, 3):
        for l in range(3):
            for k in range(l + 1):
                b = highest(n, l, k)
                assert KERNEL.component(b, l) == k
                assert KERNEL.weight(b) == (2 * k,) + (0,) * (n - 1)
                for i in range(1, n + 1):
                    assert KERNEL.e(b, i, l) is None
    with pytest.raises(ValueError):
        highest(2, 1, 2)


def test_verify_theorems_passes():
    for n, l in ((2, 1), (2, 2), (3, 2)):
        report = verify_theorems(n, l)
        assert all_passed(report), render_report(report)


def test_model_adapter_ids():
    model = CrystalC(2, 1)
    assert model.element_id((0, 0, 0, 2)) == "C2:x=0,0;xb=0,2"
    assert model.expected_size() == 11
