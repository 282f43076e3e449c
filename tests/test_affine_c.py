"""The C-type coordinate model."""

from operator import neg, sub

import pytest

from adjcrys.affine_c import (
    KERNEL,
    CrystalC,
    ElemC,
    _raise,
    expected_size,
    highest,
    shell_size,
    verify_theorems,
)
from adjcrys.crystal_graph import all_passed, render_report
from adjcrys.root_data import Family, RootDatum, ShellStep, classify_shift
from helpers import iterated_stats, reference_on_boundary


def test_construction_rejects_invalid_tuples():
    with pytest.raises(ValueError):
        ElemC((1, 0, 0, 0), 1)  # odd coordinate sum
    with pytest.raises(ValueError):
        ElemC((2, 2, 0, 0), 1)  # sum beyond 2l
    with pytest.raises(ValueError):
        ElemC((1, -1, 0, 0), 1)
    x = ElemC((0, 1, 0, 1), 1).value
    assert KERNEL.component(x, 1) == 1
    assert (x[1], x[-2], x[-1]) == (1, 0, 1)  # x_2, xbar_2, xbar_1


def test_zero_node_operator_examples():
    assert ElemC((0, 0, 0, 0), 1).f(0).value == (2, 0, 0, 0)
    assert ElemC((0, 0, 0, 2), 1).f(0).value == (0, 0, 0, 0)
    assert ElemC((0, 1, 0, 1), 1).f(0).value == (1, 1, 0, 0)
    assert ElemC((2, 0, 0, 0), 1).f(0) is None  # would leave the level
    assert ElemC((2, 0, 0, 0), 2).f(0).value == (4, 0, 0, 0)


def test_classical_operator_examples():
    assert ElemC((1, 0, 0, 1), 1).f(1).value == (0, 1, 0, 1)
    assert ElemC((0, 1, 0, 1), 1).f(2).value == (0, 0, 1, 1)
    assert ElemC((0, 0, 1, 1), 1).e(2).value == (0, 1, 0, 1)
    assert ElemC((0, 0, 0, 0), 1).f(1) is None


def test_level_is_part_of_the_element():
    assert ElemC((0, 0, 0, 0), 1) != ElemC((0, 0, 0, 0), 2)
    assert KERNEL.phi((0, 0, 0, 0), 0, 1) == 1
    assert KERNEL.phi((0, 0, 0, 0), 0, 2) == 2


def test_stats_match_iteration():
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


def test_weight_steps():
    for n in (2, 3):
        datum = RootDatum(Family.C, n)
        for l in range(3):
            for b in KERNEL.values(n, l):
                for i in range(n + 1):
                    low = KERNEL.f(b, i, l)
                    if low is None:
                        continue
                    step = datum.theta() if i == 0 else tuple(map(neg, datum.simple_root(i)))
                    assert tuple(map(sub, KERNEL.weight(low), KERNEL.weight(b))) == step


def test_counts():
    assert len(KERNEL.values(2, 1)) == 11
    assert shell_size(2, 1) == 10
    for n in (2, 3):
        for l in range(4):
            assert len(KERNEL.values(n, l)) == expected_size(n, l)
            comps = [KERNEL.component(b, l) for b in KERNEL.values(n, l)]
            for k in range(l + 1):
                assert comps.count(k) == shell_size(n, k)


def test_boundary_coordinate_criterion():
    for n in (2, 3):
        for l in range(3):
            for x in KERNEL.values(n, l):  # x_j at index j-1, xbar_j at index -j
                coordinate = all(min(x[j - 1], x[-j]) == 0 for j in range(1, n + 1))
                assert coordinate == reference_on_boundary(Family.C, KERNEL.weight(x), KERNEL.component(x, l))


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
    b, l = (0, 1, 0, 1), 2  # weight (-1, 1), boundary of k=1
    k = KERNEL.component(b, l)
    assert classify_shift(Family.C, KERNEL.weight(b), k) is ShellStep.SAME
    z = KERNEL.f(b, 0, l)
    assert z is not None and KERNEL.component(z, l) == k
    # a DOWN landing: m_1 <= -2
    b = (0, 0, 0, 2)  # weight (-2, 0)
    k = KERNEL.component(b, l)
    assert classify_shift(Family.C, KERNEL.weight(b), k) is ShellStep.DOWN
    z = KERNEL.f(b, 0, l)
    assert z is not None and KERNEL.component(z, l) == k - 1
    # the top-component kill
    assert KERNEL.f((2, 0, 0, 0), 0, 1) is None


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
