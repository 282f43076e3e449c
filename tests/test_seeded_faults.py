"""Seeded faults: each plants one bug and asserts the named check FAILs.

A check that cannot fail proves nothing, so every fault here was chosen to
break exactly the statement its check names.  The faults are monkeypatched
into the models, the family specs or the check helpers; the rest of the
report is not asserted.
"""

import pytest

from adjcrys import affine_a, affine_c, affine_d2, crystal_graph, tableaux
from adjcrys.cli import _verification_report, main
from adjcrys.crystal_graph import all_passed, axiom_checks
from adjcrys.root_data import Family, ShellStep
from helpers import reference_c1_moved, unmatched_positions


def _failed(family, n, l):
    report = _verification_report(family, n, l, "all")
    return {f"{c.category}/{c.name}" for c in report if not c.passed}


def _failures(family, n, l, check="all"):
    report = _verification_report(family, n, l, check)
    return {f"{c.category}/{c.name}": (c.cases, c.details) for c in report if not c.passed}


def test_eps0_off_by_one(monkeypatch):
    original = affine_c.KERNEL.eps
    monkeypatch.setattr(affine_c.KERNEL, "eps", lambda x, i, l: original(x, i, l) + (i == 0))
    assert "axioms/stats-closed-vs-iteration" in _failed("c1", 2, 2)


def test_d2_eps_n_drops_x0(monkeypatch):
    original = affine_d2.KERNEL.eps

    def eps(b, i, l):
        n = len(b) // 2
        return original(b, i, l) - (b[n] if i == n else 0)  # the model adds x_0 to eps_n

    monkeypatch.setattr(affine_d2.KERNEL, "eps", eps)
    assert _failures("d2", 2, 2) == {"axioms/stats-closed-vs-iteration": (
        60, "closed statistics wrong at D2:x=0,0;x0=1;xb=0,0, i=2")}


def _patch_strict_f0(monkeypatch):
    original = affine_c.KERNEL.f

    def f(x, i, l):
        if i != 0:
            return original(x, i, l)
        x1, xb1 = x[0], x[-1]
        if x1 > xb1:  # the model has >=
            return reference_c1_moved(x, l, 0, +2)
        if x1 == xb1 - 1:
            return reference_c1_moved(x, l, 0, +1, -1, -1)
        return reference_c1_moved(x, l, -1, -2)

    monkeypatch.setattr(affine_c.KERNEL, "f", f)


def test_f0_strict_comparison(monkeypatch):
    _patch_strict_f0(monkeypatch)
    failed = _failed("c1", 2, 2)
    assert "axioms/ef-inverse" in failed
    assert "f0-landing/vanishing-criterion" in failed


def test_fault_found_after_a_clean_run(monkeypatch):
    """No operator table outlives the call that built it, so clean library
    runs of the same instance cannot hide a fault planted afterwards."""
    assert all_passed(axiom_checks(affine_c.CrystalC(2, 2)))
    assert all_passed(affine_c.verify_theorems(2, 2))
    _patch_strict_f0(monkeypatch)
    assert "axioms/ef-inverse" in _failed("c1", 2, 2)


def test_f0_strict_comparison_is_not_inverted(monkeypatch):
    _patch_strict_f0(monkeypatch)
    assert _failures("c1", 2, 2, "axioms")["axioms/ef-inverse"] == (
        276, "e_0 not inverted at C2:x=2,0;xb=0,0")


def test_f0_ignoring_the_level_bound_leaves_the_crystal(monkeypatch):
    original = affine_c.KERNEL.f

    def f(x, i, l):
        if i == 0 and x[0] >= x[-1]:
            return (x[0] + 2,) + x[1:]  # the model refuses a coordinate sum above 2l
        return original(x, i, l)

    monkeypatch.setattr(affine_c.KERNEL, "f", f)
    assert _failures("c1", 2, 2, "axioms")["axioms/ef-inverse"] == (
        276, "f_0 leaves the crystal at C2:x=0,0;xb=4,0")


def test_closed_size_off_by_one(monkeypatch):
    original = affine_c.KERNEL.size
    monkeypatch.setattr(affine_c.KERNEL, "size", lambda n, l: original(n, l) + 1)
    assert _failures("c1", 2, 2, "axioms") == {
        "axioms/element-count": (1, "enumerated 46, closed form gives 47")}


def test_no_zero_arrows_disconnects_the_graph(monkeypatch):
    for op in ("f", "e"):
        original = getattr(affine_c.KERNEL, op)
        monkeypatch.setattr(
            affine_c.KERNEL, op,
            lambda x, i, l, original=original: None if i == 0 else original(x, i, l),
        )
    assert _failures("c1", 2, 2, "axioms")["axioms/connected"] == (
        46, "crystal graph is disconnected")


def test_row_eps_1_off_by_one(monkeypatch):
    original = affine_a.ROW_KERNEL.eps
    monkeypatch.setattr(
        affine_a.ROW_KERNEL, "eps", lambda x, i, l=None: original(x, i, l) + (i == 1))
    assert _failures("a1", 2, 2, "axioms")["axioms/row-stats-closed-vs-iteration"] == (
        18, "closed statistics wrong at A2:x=0,0,2, i=1")


def test_phi_map_wrong_xbar_index(monkeypatch):
    def phi_map(j, x):
        out = list(x)
        out[j - 1] += 1
        out[len(x) - j - 1] += 1  # the model bumps 2n - j, that is xbar_j
        return tuple(out)

    monkeypatch.setattr(affine_c, "SPEC", affine_c.SPEC._replace(raise_map=phi_map))
    assert "commute/phij-weight-preserving" in _failed("c1", 2, 2)


def test_inclusion_without_an_image_is_not_an_embedding(monkeypatch):
    """A level value the inclusion gives no image (None) maps outside the
    target, though the table's index dict holds None for vanishing operators."""
    original = affine_c.SPEC.include
    spec = affine_c.SPEC._replace(include=lambda x: None if x == (0, 0, 1, 1) else original(x))
    monkeypatch.setattr(affine_c, "SPEC", spec)
    assert _failures("c1", 2, 2, "embedding") == {"embedding/level-inclusion-full-subgraph": (
        0, "C2:x=0,0;xb=1,1 maps outside the target")}


def test_level_map_without_an_image_breaks_the_component_shift(monkeypatch):
    original = affine_c.SPEC.raise_map

    def phi_map(j, x):
        return None if (j, x) == (2, (0, 1, 1, 0)) else original(j, x)

    monkeypatch.setattr(affine_c, "SPEC", affine_c.SPEC._replace(raise_map=phi_map))
    failures = _failures("c1", 2, 2, "commute")
    assert failures["commute/phij-component-shift"] == (
        22, "level map 2 does not raise the component by 1 at C2:x=0,1;xb=1,0")


def test_classify_shift_up_for_minus_one(monkeypatch):
    original = crystal_graph.classify_shift

    def classify_shift(family, mu, k):
        step = original(family, mu, k)
        if family is Family.C and mu[0] == -1:
            return ShellStep.UP
        return step

    monkeypatch.setattr(crystal_graph, "classify_shift", classify_shift)
    assert "f0-landing/landing-component" in _failed("c1", 2, 2)


def test_psi_map_n_bumps_x1(monkeypatch):
    original = affine_d2.SPEC.raise_map

    def psi_map(j, b):
        n = len(b) // 2
        if j != n or b[n] == 0:
            return original(j, b)
        out = list(b)
        out[0] += 1  # the model bumps x_n
        out[n] = 0
        out[n + 1] += 1  # xbar_n
        return tuple(out)

    monkeypatch.setattr(affine_d2, "SPEC", affine_d2.SPEC._replace(raise_map=psi_map))
    assert "commute/psij-weight-preserving" in _failed("d2", 3, 3)


def test_d2_without_the_one_level_map_misses_images(monkeypatch):
    spec = affine_d2.SPEC._replace(steps=lambda n: [(j, 2) for j in range(1, n)])  # drops psi_n
    monkeypatch.setattr(affine_d2, "SPEC", spec)
    assert _failures("d2", 2, 2, "boundary") == {
        "boundary/image-equality": (7, "image description fails in component k=1")}


def test_theta_3_bumps_the_wrong_column(monkeypatch):
    original = affine_a.SPEC.raise_map

    def theta(j, b):
        if j != 3:
            return original(j, b)
        x, y = b
        return x[:2] + (x[2] + 1,), (y[0] + 1,) + y[1:]  # the model adds a column missing 3

    monkeypatch.setattr(affine_a, "SPEC", affine_a.SPEC._replace(raise_map=theta))
    failures = _failures("a1", 2, 2)
    expected = {
        "commute/thetaj-component-shift": (
            18, "level map 3 does not raise the component by 1 at A2:x=1,0,0;y=0,0,1"),
        "commute/thetaj-weight-preserving": (
            18, "level map 3 changes the weight at A2:x=0,0,1;y=0,0,1"),
        "commute/thetaj-classical-commute-nonzero": (
            24, "e_1 does not commute with the map at A2:x=0,1,0;y=0,0,1"),
        "commute/thetaj-affine-commute": (
            19, "f_0 vanishes on A2:x=0,0,1;y=0,0,1 but not on its image"),
        "multiplicity/weight-injective-off-images": (
            19, "weight (0,0,0) repeats 2 times off the images"),
        "f0-landing/landing-unique-by-weight": (
            9, "f_0 image of A2:x=1,1,0;y=2,0,0 is not unique of its weight"),
    }
    assert {name: failures.get(name) for name in expected} == expected


def test_psi_n_clears_x0_without_the_bump(monkeypatch):
    original = affine_d2.SPEC.raise_map

    def psi(j, b):
        n = len(b) // 2
        if j != n or b[n] == 0:
            return original(j, b)
        return b[:n] + (0,) + b[n + 1:]  # the model also bumps x_n and xbar_n

    monkeypatch.setattr(affine_d2, "SPEC", affine_d2.SPEC._replace(raise_map=psi))
    failures = _failures("d2", 2, 2, "commute")
    assert failures == {
        "commute/psij-component-shift": (
            7, "level map 2 does not raise the component by 1 at"
               " D2:x=0,0;x0=1;xb=0,0"),
        "commute/psij-classical-commute-nonzero": (
            3, "e_2 does not commute with the map at D2:x=0,0;x0=0;xb=1,0"),
        "commute/psij-affine-commute": (
            13, "f_0 vanishes on D2:x=0,0;x0=1;xb=0,0 but not on its image"),
    }


def test_theta_1_as_theta_2_breaks_the_boundary_step(monkeypatch):
    spec = affine_a.SPEC._replace(include=lambda b: affine_a._theta(2, b))  # the model adds 1s
    monkeypatch.setattr(affine_a, "SPEC", spec)
    failures = _failures("a1", 2, 2, "embedding")
    assert failures["embedding/theta1-boundary-step"] == (
        10, "f_0 boundary step wrong above A2:x=0,0,1;y=0,0,1")


def test_coordinate_boundary_reads_only_the_first_pair(monkeypatch):
    # the model asks min(x_j, xbar_j) == 0 for every j
    spec = affine_c.SPEC._replace(coordinate_boundary=lambda x: min(x[0], x[-1]) == 0)
    monkeypatch.setattr(affine_c, "SPEC", spec)
    assert _failures("c1", 2, 2, "boundary") == {"boundary/coordinate-criterion": (
        46, "coordinate boundary criterion fails at C2:x=0,1;xb=1,0")}


def _patch_weight_adds_xbar_n(monkeypatch):
    original = affine_c.KERNEL.weight

    def weight(x):
        n = len(x) // 2
        out = list(original(x))
        out[n - 1] += 2 * x[n]  # the model subtracts xbar_n
        return tuple(out)

    monkeypatch.setattr(affine_c.KERNEL, "weight", weight)


def test_c1_weight_in_no_shell(monkeypatch):
    original = affine_c.KERNEL.weight

    def weight(x):
        out = list(original(x))
        out[0] += x[0] == 1  # the model has mu_1 = x_1 - xbar_1; the extra unit makes |mu| odd
        return tuple(out)

    monkeypatch.setattr(affine_c.KERNEL, "weight", weight)
    assert _failures("c1", 2, 2, "boundary") == {
        "boundary/image-equality": (12, "image description fails in component k=1"),
        "boundary/coordinate-criterion": (46, "coordinate boundary criterion fails at C2:x=1,0;xb=1,0"),
    }
    assert _failures("c1", 2, 2, "f0-landing") == {"f0-landing/landing-component": (
        16, "C2:x=1,0;xb=1,0 escapes the level-raising images but is not on its boundary shell")}


def test_c1_weight_adds_xbar_n(monkeypatch):
    _patch_weight_adds_xbar_n(monkeypatch)
    failures = _failures("c1", 2, 2, "multiplicity")
    assert failures["multiplicity/boundary-weights-free"] == (
        11, "weight (-1,1) has multiplicity 2 in component k=1")


def test_c1_weight_adds_xbar_n_breaks_the_weight_step(monkeypatch):
    _patch_weight_adds_xbar_n(monkeypatch)
    assert _failures("c1", 2, 2, "axioms") == {
        "axioms/weight-step": (160, "e_1 weight step wrong at C2:x=0,0;xb=0,2")}


def test_row_f_n_vanishes_breaks_the_twist(monkeypatch):
    original = affine_a.ROW_KERNEL.f
    monkeypatch.setattr(
        affine_a.ROW_KERNEL, "f",
        lambda x, i, l=None: None if i == len(x) - 1 else original(x, i, l),
    )
    assert _failures("a1", 2, 2, "promotion") == {
        "promotion/twist": (72, "twist fails at A2:x=0,1,1, f_2")}


def test_promotion_reverses_the_slots(monkeypatch):
    monkeypatch.setattr(affine_a, "promote", lambda v: v[::-1])
    assert _failures("a1", 2, 2, "promotion")["promotion/order"] == (
        12, "promotion order wrong at A2:x=0,0,2")


def _patch_content_counts_one_twice(monkeypatch):
    original = tableaux.Tableau.content

    def content(self):
        counts = original(self)
        return (counts[0] + 1,) + counts[1:]

    monkeypatch.setattr(tableaux.Tableau, "content", content)


def test_content_counts_letter_one_twice(monkeypatch):
    _patch_content_counts_one_twice(monkeypatch)
    failures = _failures("a1", 2, 2)
    assert set(failures) == {"alpha/weight-preserving"}
    assert failures["alpha/weight-preserving"] == (
        36, "alpha changes the weight at A2:x=0,0,2;y=0,0,2")


def test_alpha_inverse_moves_a_column(monkeypatch):
    original = affine_a._alpha_inverse

    def alpha_inverse(n, l, t):
        x, y = original(n, l, t)
        y = list(y)
        if y[0]:
            y[0] -= 1  # one column missing 1 becomes a column missing 2
            y[1] += 1
        return x, tuple(y)

    monkeypatch.setattr(affine_a, "_alpha_inverse", alpha_inverse)
    expected = (39, "alpha round trip fails at A2:x=0,0,2;y=1,0,1")
    assert _failures("a1", 2, 2, "alpha") == {"alpha/bijection": expected}
    assert _failures("a1", 2, 2)["alpha/bijection"] == expected


def test_alpha_collision_is_not_injective(monkeypatch):
    """Two elements of component 2 sharing one image: the injectivity
    statement names the element and the earlier owner of the image."""
    original = affine_a._alpha
    src, dst = ((0, 2, 0), (0, 1, 1)), ((0, 1, 1), (0, 1, 1))
    monkeypatch.setattr(affine_a, "_alpha", lambda b, l: original(dst if b == src else b, l))
    failures = _failures("a1", 2, 2, "alpha")
    assert failures == {
        "alpha/bijection": (39, "alpha not injective: A2:x=0,2,0;y=0,1,1"
                                " and A2:x=0,1,1;y=0,1,1"),
        "alpha/weight-preserving": (
            36, "alpha changes the weight at A2:x=0,2,0;y=0,1,1"),
        "alpha/intertwines-classical": (
            144, "alpha does not intertwine e_2 at A2:x=0,1,1;y=0,1,1"),
    }


def test_adj_e_strict_tie_rule(monkeypatch):
    row, col = affine_a.ROW_KERNEL, affine_a.COL_KERNEL

    def e(b, i, l):
        x, y = b
        if row.phi(x, i, l) > col.eps(y, i, l):  # the model has >=
            new = row.e(x, i, l)
            return None if new is None else (new, y)
        new = col.e(y, i, l)
        return None if new is None else (x, new)

    monkeypatch.setattr(affine_a.KERNEL, "e", e)
    failures = _failures("a1", 2, 2)
    assert failures["alpha/intertwines-classical"] == (
        144, "alpha breaks vanishing of e_2 at A2:x=0,0,2;y=0,0,2")
    assert "alpha/bijection" not in failures
    assert "alpha/weight-preserving" not in failures


def test_adj_f_non_strict_tie_rule(monkeypatch):
    row, col = affine_a.ROW_KERNEL, affine_a.COL_KERNEL

    def f(b, i, l):
        x, y = b
        if row.phi(x, i, l) >= col.eps(y, i, l):  # the model has >
            new = row.f(x, i, l)
            return None if new is None else (new, y)
        new = col.f(y, i, l)
        return None if new is None else (x, new)

    monkeypatch.setattr(affine_a.KERNEL, "f", f)
    assert _failures("a1", 2, 2) == {
        "axioms/ef-inverse": (216, "f_0 not inverted at A2:x=0,0,2;y=0,0,2"),
        "axioms/stats-closed-vs-iteration": (
            108, "closed statistics wrong at A2:x=0,0,2;y=0,0,2, i=0"),
        "axioms/connected": (36, "crystal graph is disconnected"),
        "embedding/theta1-classical-commute": (
            1, "f_1 vanishes on A2:x=0,0,1;y=0,0,1 but not on its image"),
        "embedding/theta1-boundary-step": (
            11, "f_0 boundary step wrong above A2:x=0,1,0;y=0,1,0"),
        "commute/thetaj-affine-commute": (
            27, "f_0 vanishes on A2:x=0,1,0;y=0,1,0 but not on its image"),
        "f0-landing/vanishing-criterion": (19, "vanishing criterion wrong at A2:x=0,2,0;y=2,0,0"),
        "alpha/intertwines-classical": (
            144, "alpha breaks vanishing of f_2 at A2:x=0,0,2;y=0,0,2"),
    }


def test_tableau_fault_found_after_a_clean_alpha_run(monkeypatch):
    """Nothing alpha_checks computes outlives the call, so a clean run of
    the same instance cannot hide a tableau fault planted afterwards."""
    assert all_passed(affine_a.alpha_checks(2, 2))
    _patch_content_counts_one_twice(monkeypatch)
    failed = {c.name for c in affine_a.alpha_checks(2, 2) if not c.passed}
    assert failed == {"weight-preserving"}


def _verify_a1_failures(capsys):
    """Exit code and {label: (cases, detail)} of each FAIL line printed."""
    code = main(["verify", "--family", "a1", "--rank", "2", "--level", "2"])
    lines = capsys.readouterr().out.splitlines()
    fails = {}
    for line, detail in zip(lines, lines[1:] + [""]):
        if line.startswith("FAIL  "):
            label, cases = line[6:].split(maxsplit=1)
            fails[label] = (cases, detail.strip())
    return code, fails


def _patch_bracket_cells(monkeypatch, choose_raise=None, choose_lower=None):
    """Replace the e_i cell or the f_i cell of every label i by choose(word, i)."""
    original = tableaux.bracket_cells

    def bracket_cells(word, n):
        return [(choose_raise(word, i) if choose_raise else raise_pos,
                 choose_lower(word, i) if choose_lower else lower_pos)
                for i, (raise_pos, lower_pos) in enumerate(original(word, n), 1)]

    monkeypatch.setattr(tableaux, "bracket_cells", bracket_cells)


def test_e_on_leftmost_unmatched_letter_is_a_failure(monkeypatch, capsys):
    """A non-semistandard result of e_i is reported, not raised."""
    def leftmost_raisable(word, i):  # the rule raises the rightmost unmatched i+1
        raisable, _ = unmatched_positions(word, i)
        return raisable[0] if raisable else None

    _patch_bracket_cells(monkeypatch, choose_raise=leftmost_raisable)
    code, fails = _verify_a1_failures(capsys)
    assert code == 1
    detail = ("e_2 of alpha(A2:x=0,0,2;y=0,0,2) is not a tableau:"
              " rows must weakly increase left to right")
    assert fails == {"alpha/intertwines-classical": ("(144 cases)", detail)}


def test_column_factor_in_increasing_order_is_a_failure(monkeypatch, capsys):
    """A non-semistandard image of alpha is reported, not raised."""
    def alpha(b, l):
        x, y = b
        n = len(x) - 1
        strip = min(x[0], y[0])
        cols = []
        for j in range(1, n + 2):  # the model runs j downwards
            cols.extend([tableaux.column_missing(n, j)] * (y[j - 1] - strip * (j == 1)))
        for c in range(1, n + 2):
            cols.extend([(c,)] * (x[c - 1] - strip * (c == 1)))
        return l - strip, tableaux.Tableau(n, tuple(cols))

    monkeypatch.setattr(affine_a, "_alpha", alpha)
    code, fails = _verify_a1_failures(capsys)
    assert code == 1
    detail = ("alpha(A2:x=0,0,2;y=0,1,1) is not a tableau:"
              " rows must weakly increase left to right")
    assert fails["alpha/bijection"] == ("(39 cases)", detail)
    assert fails["alpha/weight-preserving"] == ("(36 cases)", detail)
    assert set(fails) == {"alpha/bijection", "alpha/weight-preserving",
                          "alpha/intertwines-classical"}


def test_pair_f_1_with_a_negative_multiplicity_is_a_failure(monkeypatch, capsys):
    """An invalid value from the pair kernel fails the intertwining check."""
    original = affine_a.KERNEL.f

    def f(b, i, l=None):
        x, y = b
        if i != 1 or affine_a.ROW_KERNEL.phi(x, 1) > affine_a.COL_KERNEL.eps(y, 1):
            return original(b, i, l)
        return x, (y[0] + 1, y[1] - 1) + y[2:]  # the model needs a column missing 2

    monkeypatch.setattr(affine_a.KERNEL, "f", f)
    code, fails = _verify_a1_failures(capsys)
    assert code == 1
    assert fails["alpha/intertwines-classical"] == (
        "(144 cases)", "alpha does not intertwine f_1 at A2:x=0,0,2;y=0,0,2")


def test_row_f_0_with_a_negative_multiplicity_is_a_failure(monkeypatch, capsys):
    """An invalid value from the row kernel fails the promotion checks."""
    original = affine_a.ROW_KERNEL.f

    def f(x, i, l=None):
        if i != 0:
            return original(x, i, l)
        return (x[0] + 1,) + x[1:-1] + (x[-1] - 1,)  # the model needs a letter n+1

    monkeypatch.setattr(affine_a.ROW_KERNEL, "f", f)
    code, fails = _verify_a1_failures(capsys)
    assert code == 1
    assert fails["promotion/zero-node-conjugation"] == (
        "(24 cases)", "zero-node conjugation fails at A2:x=0,2,0 (f)")


def test_f_on_rightmost_unmatched_letter_is_a_failure(monkeypatch):
    """A non-semistandard result of f_i fails the intertwining check."""
    def rightmost_lowerable(word, i):  # the rule lowers the leftmost unmatched i
        _, lowerable = unmatched_positions(word, i)
        return lowerable[-1] if lowerable else None

    _patch_bracket_cells(monkeypatch, choose_lower=rightmost_lowerable)
    fails = _failures("a1", 2, 2)
    detail = ("f_2 of alpha(A2:x=0,0,2;y=0,0,2) is not a tableau:"
              " rows must weakly increase left to right")
    assert fails["alpha/intertwines-classical"] == (144, detail)
    assert "alpha/bijection" not in fails  # each check fails only for its own statement


def test_f_on_first_letter_ignoring_cancellation_is_a_failure(monkeypatch):
    """A result that breaks column strictness fails the intertwining check:
    lowering the first i of the word, cancelled or not, can put i+1 right
    under i+1."""
    # the rule lowers the leftmost i that no later i+1 cancels
    _patch_bracket_cells(
        monkeypatch, choose_lower=lambda word, i: word.index(i) if i in word else None)
    detail = ("f_1 of alpha(A2:x=0,0,2;y=0,0,2) is not a tableau:"
              " column (2, 2) not strictly increasing")
    assert _failures("a1", 2, 2) == {"alpha/intertwines-classical": (144, detail)}


def test_pair_f_2_to_a_sibling_of_its_result_is_a_failure(monkeypatch):
    """A model result in the right component with the right weight, but not
    the element alpha maps the tableau result to, fails the intertwining
    check: alpha images compare cell by cell, not by component and weight."""
    original = affine_a.KERNEL.f
    src, wrong = ((0, 0, 2), (0, 0, 2)), ((0, 1, 1), (0, 2, 0))  # the model gives (0,0,2),(0,1,1)

    def f(b, i, l=None):
        return wrong if (b, i) == (src, 2) else original(b, i, l)

    monkeypatch.setattr(affine_a.KERNEL, "f", f)
    assert _failures("a1", 2, 2) == {
        "axioms/ef-inverse": (216, "f_2 not inverted at A2:x=0,0,2;y=0,0,2"),
        "axioms/stats-closed-vs-iteration": (
            108, "closed statistics wrong at A2:x=0,0,2;y=0,0,2, i=2"),
        "commute/thetaj-classical-commute-nonzero": (
            17, "f_2 does not commute with the map at A2:x=0,0,1;y=0,0,1"),
        "alpha/intertwines-classical": (
            144, "alpha does not intertwine f_2 at A2:x=0,0,2;y=0,0,2"),
    }


def test_f_beyond_the_reading_word_is_a_failure(monkeypatch, capsys):
    """A cell outside the reading word is reported, not raised."""
    _patch_bracket_cells(monkeypatch, choose_lower=lambda word, i: len(word))
    code, fails = _verify_a1_failures(capsys)
    assert code == 1
    detail = "f_1 of alpha(A2:x=0,0,2;y=0,0,2) is not a tableau: position 6 outside the reading word"
    assert fails == {"alpha/intertwines-classical": ("(144 cases)", detail)}


# A kernel wrong in two labels at two elements: f_2 at A, which comes first
# in the enumeration, and f_1 at the later B.  Each axiom reports the first
# failure in (element, label, direction) order, so it names A and f_2; a
# walk label by label would name B and f_1 first.
_A, _B = (0, 1, 0, 1), (1, 0, 0, 1)
_A_ID = "C2:x=0,1;xb=0,1"


def _patch_at_a_and_b(monkeypatch, op, wrong):
    """Replace the kernel's `op` by wrong(x, i, l, original) at (A, 2) and (B, 1)."""
    original = getattr(affine_c.KERNEL, op)

    def patched(x, i, l):
        if (x, i) in ((_A, 2), (_B, 1)):
            return wrong(x, i, l, original)
        return original(x, i, l)

    monkeypatch.setattr(affine_c.KERNEL, op, patched)


def test_ef_inverse_reports_the_first_element(monkeypatch):
    # e_i vanishes at f_i(A) and f_i(B), so f_2 at A and f_1 at B are not inverted
    targets = {(affine_c.KERNEL.f(x, i, 2), i) for x, i in ((_A, 2), (_B, 1))}
    original = affine_c.KERNEL.e
    monkeypatch.setattr(
        affine_c.KERNEL, "e", lambda x, i, l: None if (x, i) in targets else original(x, i, l))
    assert _failures("c1", 2, 2, "axioms")["axioms/ef-inverse"] == (
        276, f"f_2 not inverted at {_A_ID}")


def test_weight_step_reports_the_first_element(monkeypatch):
    _patch_at_a_and_b(monkeypatch, "f", lambda x, i, l, original: x)  # a loop: no weight change
    assert _failures("c1", 2, 2, "axioms")["axioms/weight-step"] == (
        160, f"f_2 weight step wrong at {_A_ID}")


def test_closed_statistics_report_the_first_element(monkeypatch):
    _patch_at_a_and_b(monkeypatch, "eps", lambda x, i, l, original: original(x, i, l) + 1)
    assert _failures("c1", 2, 2, "axioms") == {"axioms/stats-closed-vs-iteration": (
        138, f"closed statistics wrong at {_A_ID}, i=2")}


def test_closed_statistic_on_a_cycle_is_a_failure(monkeypatch):
    # f_1 is a self-loop at C, so no phi_1 value there is a chain length;
    # the closed phi_1 reads -4, a value no chain length takes either
    c = (0, 0, 2, 0)
    f, phi = affine_c.KERNEL.f, affine_c.KERNEL.phi
    monkeypatch.setattr(affine_c.KERNEL, "f", lambda x, i, l: x if (x, i) == (c, 1) else f(x, i, l))
    monkeypatch.setattr(affine_c.KERNEL, "phi", lambda x, i, l: -4 if (x, i) == (c, 1) else phi(x, i, l))
    failures = _failures("c1", 2, 1, "axioms")
    assert failures["axioms/stats-closed-vs-iteration"] == (
        33, "closed statistics wrong at C2:x=0,0;xb=2,0, i=1")
    assert failures["axioms/ef-inverse"] == (66, "e_1 not inverted at C2:x=0,0;xb=1,1")


def test_theta1_on_a_rotated_column_factor(monkeypatch):
    # the model adds the letter 1 and the column missing 1 to (x, y) itself
    original = affine_a.SPEC.include
    spec = affine_a.SPEC._replace(include=lambda b: original((b[0], b[1][1:] + b[1][:1])))
    monkeypatch.setattr(affine_a, "SPEC", spec)
    assert _failures("a1", 2, 2, "embedding") == {
        "embedding/theta1-component": (
            9, "component changed by the level map at A2:x=1,0,0;y=0,1,0"),
        "embedding/theta1-classical-commute": (
            1, "f_1 vanishes on A2:x=0,0,1;y=0,0,1 but not on its image"),
        "embedding/theta1-affine-commute-nonzero": (
            2, "f_0 does not commute with the map at A2:x=0,0,1;y=1,0,0"),
        "embedding/theta1-boundary-step": (
            10, "f_0 boundary step wrong above A2:x=0,0,1;y=0,0,1"),
        "embedding/theta1-full-subgraph": (
            1, "extra arrow f_0 inside the image at A2:x=0,0,1;y=0,0,1"),
    }


def test_phi_2_also_moves_a_unit_from_x1_to_x2(monkeypatch):
    original = affine_c.SPEC.raise_map

    def phi_map(j, x):
        out = original(j, x)
        if j != 2 or out[0] == 0:
            return out
        return (out[0] - 1, out[1] + 1) + out[2:]  # the model bumps x_2 and xbar_2 only

    monkeypatch.setattr(affine_c, "SPEC", affine_c.SPEC._replace(raise_map=phi_map))
    failures = _failures("c1", 2, 2, "commute")
    assert failures["commute/phij-classical-commute-nonzero"] == (
        28, "e_1 does not commute with the map at C2:x=0,1;xb=0,1")
    assert failures["commute/phij-affine-commute"] == (
        23, "f_0 does not commute with the map at C2:x=0,0;xb=0,0")


def test_d2_inclusion_reversing_tuples_without_x0(monkeypatch):
    # the model includes every tuple as it is
    spec = affine_d2.SPEC._replace(include=lambda b: b[::-1] if b[len(b) // 2] == 0 else b)
    monkeypatch.setattr(affine_d2, "SPEC", spec)
    assert _failures("d2", 2, 2, "embedding") == {"embedding/level-inclusion-full-subgraph": (
        1, "arrow f_0 at D2:x=0,0;x0=0;xb=0,0 not preserved")}


FACTORS = (("row", affine_a.ROW_KERNEL), ("col", affine_a.COL_KERNEL))


@pytest.mark.parametrize("prefix, kernel", FACTORS)
def test_factor_weight_reversed_breaks_the_weight_step(prefix, kernel, monkeypatch):
    original = kernel.weight
    monkeypatch.setattr(kernel, "weight", lambda v: original(v)[::-1])
    detail = {"row": "f_0 weight step wrong at A2:x=0,0,2",
              "col": "e_0 weight step wrong at A2:y=0,0,2"}[prefix]
    assert _failures("a1", 2, 2, "axioms") == {f"axioms/{prefix}-weight-step": (18, detail)}


@pytest.mark.parametrize("prefix, kernel", FACTORS)
def test_factor_size_off_by_one(prefix, kernel, monkeypatch):
    original = kernel.size
    monkeypatch.setattr(kernel, "size", lambda n, l: original(n, l) + 1)
    assert _failures("a1", 2, 2, "axioms") == {
        f"axioms/{prefix}-element-count": (1, "enumerated 6, closed form gives 7")}


@pytest.mark.parametrize("prefix, kernel", FACTORS)
def test_factor_e_1_as_f_1_is_not_inverted(prefix, kernel, monkeypatch):
    e, f = kernel.e, kernel.f
    monkeypatch.setattr(kernel, "e", lambda v, i, l=None: (f if i == 1 else e)(v, i, l))
    factor_id = {"row": "A2:x=1,0,1", "col": "A2:y=0,1,1"}[prefix]
    assert _failures("a1", 2, 2, "axioms")[f"axioms/{prefix}-ef-inverse"] == (
        36, f"f_1 not inverted at {factor_id}")


@pytest.mark.parametrize("prefix, kernel", FACTORS)
def test_factor_without_labels_0_and_1_is_disconnected(prefix, kernel, monkeypatch):
    # labels 0..n shift the n+1 slots in one cycle: dropping two labels cuts it
    for op in ("e", "f"):
        original = getattr(kernel, op)
        monkeypatch.setattr(
            kernel, op,
            lambda v, i, l=None, original=original: None if i in (0, 1) else original(v, i, l),
        )
    assert _failures("a1", 2, 2, "axioms")[f"axioms/{prefix}-connected"] == (
        6, "crystal graph is disconnected")


def test_pair_without_label_0_is_disconnected(monkeypatch):
    # without the 0-arrows only the classical components remain, one per k
    for op in ("e", "f"):
        original = getattr(affine_a.KERNEL, op)
        monkeypatch.setattr(
            affine_a.KERNEL, op,
            lambda b, i, l, original=original: None if i == 0 else original(b, i, l),
        )
    assert _failures("a1", 2, 2, "axioms") == {
        "axioms/connected": (36, "crystal graph is disconnected"),
        "axioms/stats-closed-vs-iteration": (
            108, "closed statistics wrong at A2:x=0,0,2;y=0,1,1, i=0"),
    }


def test_col_eps_1_off_by_one(monkeypatch):
    original = affine_a.COL_KERNEL.eps
    monkeypatch.setattr(
        affine_a.COL_KERNEL, "eps", lambda y, i, l=None: original(y, i, l) + (i == 1))
    assert _failures("a1", 2, 2, "axioms")["axioms/col-stats-closed-vs-iteration"] == (
        18, "closed statistics wrong at A2:y=0,0,2, i=1")


def test_a1_closed_size_off_by_one(monkeypatch):
    original = affine_a.KERNEL.size
    monkeypatch.setattr(affine_a.KERNEL, "size", lambda n, l: original(n, l) + 1)
    assert _failures("a1", 2, 2, "axioms") == {
        "axioms/element-count": (1, "enumerated 36, closed form gives 37")}


def test_a1_boundary_shell_that_also_takes_the_shell_below(monkeypatch):
    original = crystal_graph.on_boundary
    monkeypatch.setattr(  # the model takes shell k only
        crystal_graph, "on_boundary",
        lambda family, mu, k: original(family, mu, k) or original(family, mu, k - 1),
    )
    assert _failures("a1", 2, 2, "multiplicity") == {"multiplicity/boundary-weights-free": (
        9, "weight (0,0,0) has multiplicity 2 in component k=1")}


def test_d2_closed_size_off_by_one(monkeypatch):
    original = affine_d2.KERNEL.size
    monkeypatch.setattr(affine_d2.KERNEL, "size", lambda n, l: original(n, l) + 1)
    assert _failures("d2", 2, 2, "axioms") == {
        "axioms/element-count": (1, "enumerated 20, closed form gives 21")}


def test_d2_weight_reversed_breaks_the_weight_step(monkeypatch):
    original = affine_d2.KERNEL.weight
    monkeypatch.setattr(affine_d2.KERNEL, "weight", lambda b: original(b)[::-1])
    assert _failures("d2", 2, 2, "axioms") == {
        "axioms/weight-step": (60, "f_0 weight step wrong at D2:x=0,0;x0=0;xb=0,0")}


def test_d2_e_1_as_f_1_is_not_inverted(monkeypatch):
    e, f = affine_d2.KERNEL.e, affine_d2.KERNEL.f
    monkeypatch.setattr(affine_d2.KERNEL, "e", lambda b, i, l: (f if i == 1 else e)(b, i, l))
    assert _failures("d2", 2, 2, "axioms")["axioms/ef-inverse"] == (
        120, "f_1 not inverted at D2:x=0,0;x0=0;xb=1,0")


def test_d2_without_labels_0_and_n_is_disconnected(monkeypatch):
    # labels 1..n-1 keep x_0 and the component; only 0 and n change them
    for op in ("e", "f"):
        original = getattr(affine_d2.KERNEL, op)
        monkeypatch.setattr(
            affine_d2.KERNEL, op,
            lambda b, i, l, original=original:
                None if i in (0, len(b) // 2) else original(b, i, l),
        )
    assert _failures("d2", 2, 2, "axioms")["axioms/connected"] == (
        20, "crystal graph is disconnected")


def test_d2_coordinate_boundary_ignores_x0(monkeypatch):
    # the model also asks x_0 == 0
    spec = affine_d2.SPEC._replace(coordinate_boundary=lambda b: all(
        min(b[j], b[-1 - j]) == 0 for j in range(len(b) // 2)))
    monkeypatch.setattr(affine_d2, "SPEC", spec)
    assert _failures("d2", 2, 2, "boundary") == {"boundary/coordinate-criterion": (
        20, "coordinate boundary criterion fails at D2:x=0,0;x0=1;xb=0,0")}


def test_d2_component_without_x0(monkeypatch):
    # the model's component is the sum of every coordinate, x_0 included
    monkeypatch.setattr(affine_d2.KERNEL, "component", lambda b, l: sum(b) - b[len(b) // 2])
    assert _failures("d2", 2, 2, "multiplicity") == {"multiplicity/boundary-weights-free": (
        2, "weight (0,0) has multiplicity 2 in component k=0")}


@pytest.mark.parametrize("family", ["c1", "d2"])
def test_move_right_out_of_an_empty_slot(family, monkeypatch):
    # the move refuses an empty slot x[a]; this one takes it below 0
    module = {"c1": affine_c, "d2": affine_d2}[family]
    monkeypatch.setattr(
        module, "move_right", lambda x, a: x[:a] + (x[a] - 1, x[a + 1] + 1) + x[a + 2:])
    prefix, commute, arrows, slots = {
        "c1": ("C2:x=0,0;xb=0,0", "phij", 276, 138),
        "d2": ("D2:x=0,0;x0=0;xb=0,0", "psij", 120, 60),
    }[family]
    assert _failures(family, 2, 2) == {
        "axioms/ef-inverse": (arrows, f"f_1 leaves the crystal at {prefix}"),
        "axioms/stats-closed-vs-iteration": (slots, f"closed statistics wrong at {prefix}, i=1"),
        "embedding/level-inclusion-full-subgraph": (3, f"arrow f_1 at {prefix} not preserved"),
        f"commute/{commute}-classical-commute-nonzero": (
            2, f"f_1 does not commute with the map at {prefix}"),
    }
