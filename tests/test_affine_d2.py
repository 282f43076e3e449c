"""The twisted coordinate model with the two-valued middle slot."""

from operator import neg, sub

import pytest

from adjcrys.affine_d2 import (
    KERNEL,
    CrystalD2,
    ElemD,
    _raise,
    expected_size,
    highest,
    shell_size,
    verify_theorems,
)
from adjcrys.crystal_graph import all_passed, render_report
from adjcrys.root_data import Family, RootDatum, ShellStep, classify_shift, shell
from helpers import iterated_stats, reference_on_boundary


def test_construction_rejects_invalid_tuples():
    with pytest.raises(ValueError):
        ElemD((0, 0, 2, 0, 0), 1)  # middle slot beyond {0, 1}
    with pytest.raises(ValueError):
        ElemD((1, 0, 1, 0, 0), 1)  # sum beyond the level
    with pytest.raises(ValueError):
        ElemD((1, 0, 0, 0), 1)  # no middle slot: an even length
    x = ElemD((0, 1, 1, 1, 0), 3).value
    assert x == (0, 1, 1, 1, 0)
    assert KERNEL.component(x, 3) == 3
    assert (x[1], x[-2], x[-1]) == (1, 1, 0)  # x_2, xbar_2, xbar_1


def test_zero_node_operator_examples():
    assert ElemD((0, 0, 0, 0, 0), 1).f(0).value == (1, 0, 0, 0, 0)
    assert ElemD((0, 0, 0, 0, 1), 1).f(0).value == (0, 0, 0, 0, 0)
    assert ElemD((1, 0, 0, 0, 0), 1).f(0) is None  # would leave the level
    assert ElemD((1, 0, 0, 0, 0), 1).e(0).value == (0, 0, 0, 0, 0)


def test_top_node_operator_examples():
    # the x_0 parity drives the last-node moves
    assert ElemD((0, 1, 0, 0, 0), 1).f(2).value == (0, 0, 1, 0, 0)
    assert ElemD((0, 0, 1, 0, 0), 1).f(2).value == (0, 0, 0, 1, 0)
    assert ElemD((0, 0, 1, 0, 0), 1).e(2).value == (0, 1, 0, 0, 0)
    assert ElemD((0, 0, 0, 1, 0), 1).e(2).value == (0, 0, 1, 0, 0)


def test_stats_match_iteration_including_doubling():
    b = (1, 0, 0, 0, 0)
    assert KERNEL.eps(b, 0, 1) == 2  # the doubled zero-node statistic
    assert iterated_stats(KERNEL, b, 0, 1) == (2, 0)
    for n in (2, 3):
        for l in range(4):
            for b in KERNEL.values(n, l):
                for i in range(n + 1):
                    closed = KERNEL.eps(b, i, l), KERNEL.phi(b, i, l)
                    assert closed == iterated_stats(KERNEL, b, i, l)


def test_inverse_pairing():
    for n in (2, 3):
        for l in range(4):
            for b in KERNEL.values(n, l):
                for i in range(n + 1):
                    low = KERNEL.f(b, i, l)
                    if low is not None:
                        assert KERNEL.e(low, i, l) == b
                    high = KERNEL.e(b, i, l)
                    if high is not None:
                        assert KERNEL.f(high, i, l) == b


def test_weight_steps_and_invisible_slot():
    for n in (2, 3):
        datum = RootDatum(Family.B, n)
        for l in range(3):
            for b in KERNEL.values(n, l):
                for i in range(n + 1):
                    low = KERNEL.f(b, i, l)
                    if low is None:
                        continue
                    step = datum.theta() if i == 0 else tuple(map(neg, datum.simple_root(i)))
                    assert tuple(map(sub, KERNEL.weight(low), KERNEL.weight(b))) == step
    # flipping x_0 alone never shows in the weight
    assert KERNEL.weight((0, 0, 1, 0, 0)) == KERNEL.weight((0, 0, 0, 0, 0))


def test_counts():
    assert [KERNEL.component(b, 1) for b in KERNEL.values(2, 1)].count(1) == 5
    assert shell_size(2, 1) == 5
    for n in (2, 3):
        for l in range(4):
            assert len(KERNEL.values(n, l)) == expected_size(n, l)
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
            for x in KERNEL.values(n, l):  # x_j at index j-1, x_0 at n, xbar_j at index -j
                coordinate = x[n] == 0 and all(min(x[j - 1], x[-j]) == 0 for j in range(1, n + 1))
                assert coordinate == reference_on_boundary(Family.B, KERNEL.weight(x), KERNEL.component(x, l))


def test_level_inclusion_is_full_subgraph():
    n, l = 2, 3
    small = set(KERNEL.values(n, l - 1))
    for b in small:
        for i in range(n + 1):
            for direction in ("e", "f"):
                inner = getattr(KERNEL, direction)(b, i, l - 1)
                outer = getattr(KERNEL, direction)(b, i, l)
                if inner is not None:
                    assert outer == inner
                else:
                    assert outer is None or outer not in small


def test_zero_node_landing_never_stays():
    # boundary elements outside the images move strictly up or down
    for n in (2, 3):
        for l in (1, 2):
            for b in KERNEL.values(n, l):
                mu, k = KERNEL.weight(b), KERNEL.component(b, l)
                if shell(Family.B, mu) != k:
                    continue
                z = KERNEL.f(b, 0, l)
                if z is None:
                    continue
                step = classify_shift(Family.B, mu, k)
                assert step in (ShellStep.UP, ShellStep.DOWN)
                assert KERNEL.component(z, l) == k + step.value


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
