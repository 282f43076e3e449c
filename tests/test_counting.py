"""The composition enumeration and the one-unit slot moves that the
coordinate models are built on, and the `c1` and `d2` kernels built on the
moves against their reference in `helpers`."""

from itertools import product

import pytest

import helpers
from adjcrys import affine_c, affine_d2
from adjcrys.counting import compositions, move_left, move_right


def test_compositions_match_a_product_filter():
    # product yields tuples in lexicographic order, so the filter is the
    # reference for the order as well as for the set
    for total in range(7):
        for parts in range(5):
            expected = [t for t in product(range(total + 1), repeat=parts) if sum(t) == total]
            assert list(compositions(total, parts)) == expected


def test_compositions_of_a_negative_total_are_empty():
    # the d2 shell asks for compositions of k - 1 at k = 0
    assert [list(compositions(-1, parts)) for parts in range(4)] == [[], [], [], []]
    assert list(compositions(0, -1)) == []


def test_slot_moves():
    assert move_right((2, 0, 1), 0) == (1, 1, 1)
    assert move_right((2, 0, 1), 1) is None  # slot 1 is empty
    assert move_left((2, 0, 1), 1) == (2, 1, 0)
    assert move_left((2, 0, 1), 0) is None  # slot 1 is empty
    for x in compositions(3, 4):
        for a in range(3):
            moved = move_right(x, a)
            assert moved is None or move_left(moved, a) == x
            moved = move_left(x, a)
            assert moved is None or move_right(moved, a) == x


@pytest.mark.parametrize("family, n", [("c1", n) for n in (2, 3, 4)] + [("d2", n) for n in (1, 2, 3, 4)])
def test_kernels_match_the_reference(family, n):
    """Operators and statistics on every value of levels 0..4, called at its
    own level and the two above it, and the coordinate boundary criterion."""
    module = {"c1": affine_c, "d2": affine_d2}[family]
    kernel = module.KERNEL
    reference = [getattr(helpers, f"reference_{family}_{op}") for op in ("f", "e", "eps", "phi")]
    for l in range(5):
        values = kernel.values(n, l)
        for level, i in product((l, l + 1, l + 2), range(n + 1)):
            for op, ref in zip((kernel.f, kernel.e, kernel.eps, kernel.phi), reference):
                got = [op(x, i, level) for x in values]
                assert got == [ref(x, i, level) for x in values], (op.__name__, l, level, i)
        boundary = getattr(helpers, f"reference_{family}_boundary")
        assert list(map(module.SPEC.coordinate_boundary, values)) == list(map(boundary, values))
