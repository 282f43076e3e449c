"""The composition enumeration that every coordinate model is built on."""

from itertools import product

from adjcrys.counting import compositions


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
