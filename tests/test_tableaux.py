"""Tableau crystals, the reading word, and the bracketing rule."""

import ast
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, strategies as st

import adjcrys.tableaux
from adjcrys.affine_a import shape_component
from adjcrys.tableaux import (
    Tableau,
    TensorPair,
    Word,
    bracket_cells,
    column_missing,
    eps_phi,
    label_cells,
    ssyt_count,
    word_apply,
)
from helpers import (
    ClassicalCrystal,
    all_ssyt,
    enumerate_crystal,
    flatten_letters,
    highest_weight,
    letter_e,
    letter_f,
    reference_ssyt_count,
    reference_tableau_error,
    rows,
    unmatched_positions,
)


def partitions_up_to(boxes, depth):
    """All partitions with at most `boxes` boxes and at most `depth` rows."""
    out = [()]
    def grow(prefix, remaining, cap):
        for part in range(min(remaining, cap), 0, -1):
            if len(prefix) < depth:
                out.append(prefix + (part,))
                grow(prefix + (part,), remaining - part, part)
    grow((), boxes, boxes)
    return out


words = st.integers(2, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n + 1), max_size=7))
)


def test_letter_operators():
    assert letter_f(1, 1) == 2
    assert letter_f(3, 1) is None
    assert letter_e(3, 2) == 2
    assert letter_e(2, 2) is None


def test_reading_word_examples():
    assert Tableau.from_rows(2, [(2,)]).reading_word() == (2,)
    assert column_missing(2, 3) == (1, 2)
    assert Tableau(2, (column_missing(2, 3),)).reading_word() == (1, 2)
    t = Tableau.from_rows(2, [(1, 2), (2,)])
    assert t.reading_word() == (2, 1, 2)
    assert t.shape == (2, 1)
    assert rows(t) == ((1, 2), (2,))


def test_from_rows_rejects_rows_that_grow_downwards():
    """Rows whose lengths do not weakly decrease would lose a cell (the 3
    beyond the first row's width) or glue cells of different rows into
    one column."""
    for bad in ([(1,), (2, 3)], [(1, 1), (), (3,)]):
        with pytest.raises(ValueError, match="row lengths must weakly decrease top to bottom"):
            Tableau.from_rows(2, bad)
    assert Tableau.from_rows(2, [(1, 1), (2,), ()]).columns == ((1, 2), (1,))


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau(2, ((1, 1),))  # column not strict
    with pytest.raises(ValueError):
        Tableau(2, ((2,), (1,)))  # row decreasing
    with pytest.raises(ValueError):
        Tableau(2, ((1,), (1, 2)))  # column depths increase
    with pytest.raises(ValueError):
        Tableau(2, ((1, 2, 3),))  # depth beyond rank
    with pytest.raises(ValueError):
        Tableau(2, ((4,),))  # letter out of range



@pytest.mark.parametrize("n, columns, message", [
    (0, (), "rank must be positive"),
    (2, ((1,), ()), "empty column"),
    (2, ((1, 2, 3),), "column depth 3 exceeds rank 2"),
    (2, ((1, 4),), "entries must lie in 1..3"),
    (2, ((2, 1),), "column (2, 1) not strictly increasing"),
    (2, ((1,), (1, 2)), "column depths must weakly decrease left to right"),
    (2, ((1, 2), (2, 1)), "column (2, 1) not strictly increasing"),
    (2, ((2,), (1,)), "rows must weakly increase left to right"),
    (2, ((1, 3), (1, 2)), "rows must weakly increase left to right"),
    (2, ((1, 2), (1,)), ""),
    (2, ((0, 0),), "entries must lie in 1..3"),  # range is checked before strictness
    (2, ((2,), (1,), (4,)), "entries must lie in 1..3"),  # every column before any pair
])
def test_tableau_validation_messages(n, columns, message):
    """One input per validation branch, with its exact message.  Column
    (0, 0) is both out of range and not increasing, and ((2,), (1,), (4,))
    has a bad pair before a bad column: the two pin the order of the rules."""
    if not message:
        assert Tableau(n, columns).columns == columns
        return
    with pytest.raises(ValueError) as err:
        Tableau(n, columns)
    assert str(err.value) == message

@pytest.mark.parametrize("n, columns", [
    (2, ((1, 2), (1, 2), (1,), (1,))),
    (2, ((2, 1), (2, 1))),
    (2, ((1, 4), (1, 4), (1,))),
    (2, ((1,), (1,), (1, 2))),
    (2, ((2,), (2,), (1,))),
])
def test_validation_does_not_depend_on_shared_columns(n, columns):
    """Equal columns give one verdict and one message, whether they are one
    object or separate copies."""
    canonical: dict = {}
    shared = tuple(canonical.setdefault(col, col) for col in columns)
    copies = tuple(tuple(list(col)) for col in columns)
    assert shared[0] is shared[1] and copies[0] is not copies[1]
    assert _full_check(n, copies) == _full_check(n, shared)


# (n, tableau) over every shape of at most four boxes, for `Tableau.moved`
SMALL_TABLEAUX = [
    (n, t)
    for n in (2, 3)
    for shape in partitions_up_to(4, n)
    for t in sorted(enumerate_crystal(n, shape), key=lambda t: t.columns)
]


def _full_check(n, columns):
    """The public constructor's verdict: the tableau, or the message it raised."""
    try:
        return Tableau(n, columns)
    except ValueError as err:
        return str(err)


def _message(n, columns):
    """The constructor's message, "" when it accepts."""
    result = _full_check(n, columns)
    return "" if isinstance(result, Tableau) else result


def any_column(n):
    """A column of letters around 1..n+1, often invalid: empty, too deep,
    out of range or not increasing."""
    return st.lists(st.integers(0, n + 2), max_size=n + 1).map(tuple)


def valid_column(n):
    return st.sets(st.integers(1, n + 1), min_size=1, max_size=n).map(lambda c: tuple(sorted(c)))


def column_runs(n):
    """Runs of one to three equal columns, as `_alpha` builds them."""
    column = st.one_of(valid_column(n), valid_column(n), any_column(n))  # mostly valid: pair rules apply
    return st.lists(st.tuples(column, st.integers(1, 3)), max_size=6).map(
        lambda runs: tuple(col for col, count in runs for _ in range(count)))


@given(st.integers(0, 3).flatmap(lambda n: st.tuples(st.just(n), column_runs(max(n, 1)))))
def test_validation_matches_the_reference(n_columns):
    """The memoised verdicts give the reference's verdict and message on
    any column sequence, valid or not."""
    n, columns = n_columns
    assert _message(n, columns) == reference_tableau_error(n, columns)


@given(st.sampled_from(SMALL_TABLEAUX), st.data())
def test_validation_after_a_valid_tableau_with_shared_columns(nt, data):
    """A valid tableau with repeated columns, then a tableau made from its
    columns with one column inserted or replaced: each gets the reference's
    verdict, whatever the first left in the memo."""
    n, t = nt
    counts = data.draw(st.lists(st.integers(1, 3), min_size=len(t.columns),
                                max_size=len(t.columns)))
    valid = tuple(col for col, count in zip(t.columns, counts) for _ in range(count))
    assert _message(n, valid) == reference_tableau_error(n, valid) == ""
    pos = data.draw(st.integers(0, len(valid)))
    col = data.draw(st.one_of(any_column(n), st.sampled_from(valid or ((1,),))))
    for columns in (valid[:pos] + (col,) + valid[pos:], valid[:pos] + (col,) + valid[pos + 1:]):
        assert _message(n, columns) == reference_tableau_error(n, columns)


def test_validation_memo_is_bounded():
    for memo in (adjcrys.tableaux._column_error, adjcrys.tableaux._pair_error):
        assert memo.cache_info().maxsize is not None
        assert 0 < memo.cache_info().maxsize <= 4096


@given(st.sampled_from(SMALL_TABLEAUX), st.data())
def test_operator_results_pass_the_full_check(nt, data):
    """An operator's result is the tableau the public constructor builds
    from its columns."""
    n, t = nt
    i = data.draw(st.integers(1, n))
    for result in (t.e(i), t.f(i)):
        if result is not None:
            assert result == Tableau(n, result.columns)


@given(st.sampled_from(SMALL_TABLEAUX), st.data())
def test_one_cell_check_agrees_with_the_full_check(nt, data):
    """Any one cell set to i or i+1 (out of range for i = 0 or n+1):
    `Tableau.moved` accepts exactly when the constructor does, and with the
    same message when both reject."""
    n, t = nt
    if not t.columns:
        return
    word = t.reading_word()
    pos = data.draw(st.integers(0, len(word) - 1))
    i = data.draw(st.integers(0, n + 1))
    letter = data.draw(st.sampled_from((i, i + 1)))
    changed = list(word)
    changed[pos] = letter
    cols, rest = [], changed
    for col in reversed(t.columns):  # the reading word runs from the rightmost column
        cols.insert(0, tuple(rest[:len(col)]))
        rest = rest[len(col):]
    try:
        moved = t.moved(pos, letter)
    except ValueError as err:
        moved = str(err)
    assert moved == _full_check(n, tuple(cols))


def test_one_cell_check_examples():
    t = Tableau.from_rows(2, [(1, 1), (2,)])  # reading word (1, 1, 2)
    assert t.moved(None, 2) is None
    assert rows(t.moved(0, 2)) == ((1, 2), (2,))
    with pytest.raises(ValueError, match=r"column \(2, 2\) not strictly increasing"):
        t.moved(1, 2)
    with pytest.raises(ValueError, match="entries must lie in 1..3"):
        t.moved(0, 4)
    for pos in (3, -1, -3):  # beyond the word, and negative
        with pytest.raises(ValueError, match=f"position {pos} outside the reading word"):
            t.moved(pos, 1)
    row = Tableau.from_rows(2, [(2, 2)])  # reading word (2, 2)
    for pos, letter in ((0, 1), (1, 3)):  # below its left, above its right neighbour
        with pytest.raises(ValueError, match="rows must weakly increase left to right"):
            row.moved(pos, letter)


def test_bracket_cells_chooses_one_cell_for_each_operator():
    assert label_cells((2, 1, 1), 2, 1) == (0, 1)  # nothing cancels: the 2 comes first
    assert label_cells((1, 2), 2, 1) == (None, None)  # a cancelling pair
    assert label_cells((2, 2, 1, 2), 2, 1) == (1, None)  # the last 2 cancels the 1
    assert label_cells((3, 3), 2, 1) == (None, None)
    # each letter is the i of its own label and the i+1 of the label below
    assert bracket_cells((2, 3, 1, 2), 2) == [(0, None), (None, 3)]
    assert bracket_cells((), 3) == [(None, None)] * 3
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"label {i} out of range 1..2"):
            label_cells((1, 2), 2, i)


def test_signature_rule_on_two_letter_tensors():
    assert word_apply((1, 1), 2, 1, "f") == (2, 1)
    assert word_apply((2, 1), 2, 1, "f") == (2, 2)
    assert word_apply((1, 2), 2, 1, "f") is None  # cancelling pair
    assert word_apply((2, 2), 2, 1, "e") == (2, 1)


def test_lowering_highest_weight_tableau():
    hw = highest_weight(2, (2, 1))
    assert rows(hw) == ((1, 1), (2,))
    low = hw.f(1)
    assert rows(low) == ((1, 2), (2,))
    # weight drops by alpha_1 in content coordinates
    assert [a - b for a, b in zip(low.content(), hw.content())] == [-1, 1, 0]


def test_eps_phi_examples():
    one = Word(2, (1,))
    assert eps_phi(one, 1) == (0, 1)
    assert eps_phi(Word(2, (3,)), 1) == (0, 0)
    assert eps_phi(highest_weight(2, (2, 1)), 1) == (0, 1)


def test_enumerate_crystal_sizes():
    assert len(enumerate_crystal(2, (1,))) == 3
    assert len(enumerate_crystal(2, ())) == 1
    assert len(enumerate_crystal(2, (2, 1))) == 8


def test_enumeration_matches_backtracking_and_count():
    for n in (2, 3):
        for shape in partitions_up_to(6, n):
            generated = enumerate_crystal(n, shape)
            direct = set(all_ssyt(n, shape))
            assert generated == direct
            assert {t.shape for t in direct} == {shape}
            assert len(generated) == ssyt_count(shape, n + 1)


def test_crystal_axioms_on_small_shapes():
    for n in (2, 3):
        for shape in partitions_up_to(6, n):
            for t in enumerate_crystal(n, shape):
                for i in range(1, n + 1):
                    low = t.f(i)
                    if low is not None:
                        assert low.e(i) == t
                    high = t.e(i)
                    if high is not None:
                        assert high.f(i) == t


def test_weight_step_and_string_lengths():
    for n in (2, 3):
        for shape in partitions_up_to(5, n):
            for t in enumerate_crystal(n, shape):
                content = t.content()
                for i in range(1, n + 1):
                    low = t.f(i)
                    if low is not None:
                        delta = [a - b for a, b in zip(low.content(), content)]
                        expected = [0] * (n + 1)
                        expected[i - 1] = -1
                        expected[i] = 1
                        assert delta == expected
                    eps, phi = eps_phi(t, i)
                    assert phi - eps == content[i - 1] - content[i]


def test_highest_weight_is_unique_source():
    for n in (2, 3):
        for shape in partitions_up_to(5, n):
            crystal = enumerate_crystal(n, shape)
            sources = [
                t for t in crystal if all(t.e(i) is None for i in range(1, n + 1))
            ]
            assert sources == [highest_weight(n, shape)]


def _op_table(element, i, direction):
    out = getattr(element, direction)(i)
    return None if out is None else flatten_letters(out)


def test_tensor_associativity():
    n = 2
    for a, b, c in product(range(1, n + 2), repeat=3):
        wa, wb, wc = (Word(n, (v,)) for v in (a, b, c))
        left = TensorPair(TensorPair(wa, wb), wc)
        right = TensorPair(wa, TensorPair(wb, wc))
        flat = Word(n, (a, b, c))
        for i in range(1, n + 1):
            for direction in ("e", "f"):
                expect = _op_table(flat, i, direction)
                assert _op_table(left, i, direction) == expect
                assert _op_table(right, i, direction) == expect


def test_tensor_of_tableaux_matches_concatenated_word():
    # the reading word of a tensor is the concatenation of factor words
    n = 2
    crystal1 = enumerate_crystal(n, (2,))
    crystal2 = enumerate_crystal(n, (1, 1))
    for t1 in crystal1:
        for t2 in crystal2:
            pair = TensorPair(t1, t2)
            flat = Word(n, t1.reading_word() + t2.reading_word())
            for i in range(1, n + 1):
                for direction in ("e", "f"):
                    assert _op_table(pair, i, direction) == _op_table(flat, i, direction)


@given(words)
def test_word_axioms_random(data):
    n, letters = data
    w = Word(n, tuple(letters))
    for i in range(1, n + 1):
        low = w.f(i)
        if low is not None:
            assert low.e(i) == w
        high = w.e(i)
        if high is not None:
            assert high.f(i) == w


def _per_label(word, n):
    """`bracket_cells` computed one label at a time."""
    out = []
    for i in range(1, n + 1):
        raisable, lowerable = unmatched_positions(word, i)
        out.append(((raisable[-1] if raisable else None), (lowerable[0] if lowerable else None)))
    return out


@given(words)
def test_one_pass_bracketing_equals_per_label_bracketing(data):
    n, letters = data
    assert bracket_cells(tuple(letters), n) == _per_label(tuple(letters), n)


def test_one_pass_bracketing_on_every_small_reading_word():
    for n, t in SMALL_TABLEAUX:
        word = t.reading_word()
        assert bracket_cells(word, n) == _per_label(word, n)


@given(words)
def test_word_stats_match_bracketing_counts(data):
    n, letters = data
    w = Word(n, tuple(letters))
    for i in range(1, n + 1):
        raisable, lowerable = unmatched_positions(w.letters, i)
        assert eps_phi(w, i) == (len(raisable), len(lowerable))


def test_classical_model_adapter():
    model = ClassicalCrystal(2, (1,))
    assert [model.element_id(t) for t in model.elements()] == [
        "T2:w=1", "T2:w=2", "T2:w=3",
    ]
    assert ClassicalCrystal(2, (2, 1)).component(highest_weight(2, (2, 1))) == 1
    assert ClassicalCrystal(2, (3, 1)).component(highest_weight(2, (3, 1))) is None
    assert ClassicalCrystal(3, ()).component(Tableau(3, ())) == 0


def test_ssyt_count_examples():
    assert ssyt_count((2, 1), 3) == 8
    assert ssyt_count((), 5) == 1
    assert ssyt_count((1,), 4) == 4
    assert ssyt_count((2, 1, 1), 4) == 15  # adjoint of rank 3


@pytest.mark.parametrize("shape", [(1, 2), (-1,), (2, 0, 1)])
def test_ssyt_count_refuses_a_shape_that_is_not_a_partition(shape):
    with pytest.raises(ValueError, match="not a partition"):
        ssyt_count(shape, 3)


def test_ssyt_count_matches_the_rational_hook_content_product():
    """Every partition with at most 4 parts, each at most 5, trailing zeros
    kept, against a Fraction product, for max_entry 0..8."""
    for parts in combinations_with_replacement(range(6), 4):
        shape = parts[::-1]
        for max_entry in range(9):
            assert ssyt_count(shape, max_entry) == reference_ssyt_count(shape, max_entry), (
                shape, max_entry)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_shape_table_against_direct_enumeration(n, k):
    """The component crystals B((2k, k^(n-1))) that alpha maps onto: the
    f-generated set matches the backtracking enumeration and the
    hook-content count, and every e_i/f_i slot stays inside it."""
    shape = shape_component(n, k)
    elems = enumerate_crystal(n, shape)
    assert elems == set(all_ssyt(n, shape))
    assert len(elems) == ssyt_count(shape, n + 1)
    for t in elems:
        for i in range(1, n + 1):
            for op, inverse in (("f", "e"), ("e", "f")):
                moved = getattr(t, op)(i)
                if moved is not None:
                    assert moved in elems and getattr(moved, inverse)(i) == t


def test_tableau_oracle_imports_nothing_from_the_package():
    """The alpha oracle checks the models, so it must share no code with them."""
    with open(adjcrys.tableaux.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "adjcrys"
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "adjcrys" for alias in node.names)
