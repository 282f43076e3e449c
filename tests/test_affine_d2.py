"""The twisted coordinate model with the two-valued middle slot."""

import pytest

from adjcrys.affine_d2 import (
    KERNEL,
    CrystalD2,
    ElemD,
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
        ElemD((0, 0), 2, (0, 0), 1)  # middle slot beyond {0, 1}
    with pytest.raises(ValueError):
        ElemD((1, 0), 1, (0, 0), 1)  # sum beyond the level
    with pytest.raises(ValueError):
        ElemD((1, 0), 0, (0,), 1)  # length mismatch
    b = ElemD((0, 1), 1, (1, 0), 3)
    assert b.k == 3
    assert b.coords == (0, 1, 1, 1, 0)
    assert (b.coords[1], b.coords[-2], b.coords[-1]) == (1, 1, 0)  # x_2, xbar_2, xbar_1


def test_zero_node_operator_examples():
    assert ElemD((0, 0), 0, (0, 0), 1).f(0).coords == (1, 0, 0, 0, 0)
    assert ElemD((0, 0), 0, (0, 1), 1).f(0).coords == (0, 0, 0, 0, 0)
    assert ElemD((1, 0), 0, (0, 0), 1).f(0) is None  # would leave the level
    assert ElemD((1, 0), 0, (0, 0), 1).e(0).coords == (0, 0, 0, 0, 0)


def test_top_node_operator_examples():
    # the x_0 parity drives the last-node moves
    assert ElemD((0, 1), 0, (0, 0), 1).f(2).coords == (0, 0, 1, 0, 0)
    assert ElemD((0, 0), 1, (0, 0), 1).f(2).coords == (0, 0, 0, 1, 0)
    assert ElemD((0, 0), 1, (0, 0), 1).e(2).coords == (0, 1, 0, 0, 0)
    assert ElemD((0, 0), 0, (1, 0), 1).e(2).coords == (0, 0, 1, 0, 0)


def test_stats_match_iteration_including_doubling():
    b = ElemD((1, 0), 0, (0, 0), 1)
    assert b.eps(0) == 2  # the doubled zero-node statistic
    assert eps_phi(b, 0) == (2, 0)
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


def test_weight_steps_and_invisible_slot():
    for n in (2, 3):
        datum = RootDatum(Family.B, n)
        for l in range(3):
            for b in elements(n, l):
                for i in range(n + 1):
                    low = b.f(i)
                    if low is None:
                        continue
                    step = datum.theta() if i == 0 else -datum.simple_root(i)
                    assert low.weight() - b.weight() == step
    # flipping x_0 alone never shows in the weight
    assert ElemD((0, 0), 1, (0, 0), 1).weight() == ElemD((0, 0), 0, (0, 0), 1).weight()


def test_counts():
    assert [KERNEL.component(b, 1) for b in KERNEL.values(2, 1)].count(1) == 5
    assert shell_size(2, 1) == 5
    for n in (2, 3):
        for l in range(4):
            assert len(elements(n, l)) == expected_size(n, l)
            comps = [KERNEL.component(b, l) for b in KERNEL.values(n, l)]
            for k in range(l + 1):
                assert comps.count(k) == shell_size(n, k)


def test_raise_examples():
    assert _raise(1, (0, 0, 0, 0, 0)) == (1, 0, 0, 0, 1)
    with_zero = _raise(2, (0, 1, 0, 0, 0))
    assert with_zero == (0, 1, 1, 0, 0) and KERNEL.contains(with_zero, 2)
    with_one = _raise(2, (0, 0, 1, 0, 0))
    assert with_one == (0, 1, 0, 1, 0) and KERNEL.contains(with_one, 2)


def test_raise_component_and_weight():
    for n in (2, 3):
        for l in (2, 3):
            for j, step in [(j, 2) for j in range(1, n)] + [(n, 1)]:
                for b in KERNEL.values(n, l - step):
                    image = _raise(j, b)
                    assert KERNEL.contains(image, l)
                    assert KERNEL.component(image, l) == KERNEL.component(b, l - step) + step
                    assert KERNEL.weight(image) == KERNEL.weight(b)


def test_boundary_coordinate_criterion():
    for n in (2, 3):
        for l in range(3):
            for b in elements(n, l):
                x = b.coords  # x_j at index j-1, xbar_j at index -j
                coordinate = b.x0 == 0 and all(min(x[j - 1], x[-j]) == 0 for j in range(1, n + 1))
                assert coordinate == on_boundary(Family.B, b.weight().coeffs, b.k)


def test_level_inclusion_is_full_subgraph():
    n, l = 2, 3
    small = set(ElemD(b.x, b.x0, b.xbar, l) for b in elements(n, l - 1))
    for b in elements(n, l - 1):
        wide = ElemD(b.x, b.x0, b.xbar, l)
        for i in range(n + 1):
            for direction in ("e", "f"):
                inner = getattr(b, direction)(i)
                outer = getattr(wide, direction)(i)
                if inner is not None:
                    assert outer == ElemD(inner.x, inner.x0, inner.xbar, l)
                else:
                    assert outer is None or outer not in small


def test_zero_node_landing_never_stays():
    # boundary elements outside the images move strictly up or down
    for n in (2, 3):
        for l in (1, 2):
            for b in elements(n, l):
                mu = b.weight().coeffs
                if not on_boundary(Family.B, mu, b.k):
                    continue
                z = b.f(0)
                if z is None:
                    continue
                step = classify_shift(Family.B, mu, b.k)
                assert step in (ShellStep.UP, ShellStep.DOWN)
                assert z.k == b.k + step.value


def test_highest_elements():
    for n in (2, 3):
        for l in range(3):
            for k in range(l + 1):
                b = highest(n, l, k)
                assert KERNEL.component(b, l) == k and b[n] == 0
                for i in range(1, n + 1):
                    assert KERNEL.e(b, i, l) is None


def test_verify_theorems_passes():
    for n, l in ((2, 1), (2, 2), (3, 2)):
        report = verify_theorems(n, l)
        assert all_passed(report), render_report(report)


def test_model_adapter_ids():
    model = CrystalD2(2, 1)
    assert model.element_id((0, 1, 1, 0, 0)) == "D2:x=0,1;x0=1;xb=0,0"
    assert model.expected_size() == 6
