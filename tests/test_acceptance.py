"""Acceptance suite: one test per criterion, one printed line per criterion.

Exhaustive bounds are n in {2, 3} and l in {0, ..., 3} unless a criterion
narrows them; every check demands zero violations.
"""

import json
import time
from itertools import product

from adjcrys import affine_a, affine_c, affine_d2
from adjcrys.cli import main
from adjcrys.crystal_graph import all_passed, render_report
from adjcrys.tableaux import eps_phi

RANKS = (2, 3)
LEVELS = (0, 1, 2, 3)


def _elements():
    for n, l in product(RANKS, LEVELS):
        for module in (affine_a, affine_c, affine_d2):
            yield from module.elements(n, l)


def _factor_elements():
    for n, l in product(RANKS, LEVELS):
        yield from affine_a.row_elements(n, l) + affine_a.col_elements(n, l)


def _section_reports():
    for n, l in product(RANKS, LEVELS):
        yield ("a1", n, l, affine_a.verify_theorems(n, l))
        yield ("c1", n, l, affine_c.verify_theorems(n, l))
        yield ("d2", n, l, affine_d2.verify_theorems(n, l))


def _assert_categories(categories):
    for family, n, l, report in _section_reports():
        selected = [c for c in report if c.category in categories]
        assert all_passed(selected), (
            f"{family} n={n} l={l}\n" + render_report(selected)
        )


def test_criterion_01_crystal_axioms():
    start = time.time()
    violations = 0
    for b in _elements():
        for i in range(b.n + 1):
            low = b.f(i)
            if low is not None and low.e(i) != b:
                violations += 1
            high = b.e(i)
            if high is not None and high.f(i) != b:
                violations += 1
    elapsed = time.time() - start
    assert violations == 0
    assert elapsed < 10.0
    print(f"criterion 01 (crystal axioms, {elapsed:.2f}s): PASS")


def test_criterion_02_closed_statistics():
    violations = 0
    for b in list(_elements()) + list(_factor_elements()):
        for i in range(b.n + 1):
            if (b.eps(i), b.phi(i)) != eps_phi(b, i):
                violations += 1
    assert violations == 0
    print("criterion 02 (closed statistics): PASS")


def test_criterion_03_alpha_isomorphism():
    for n, l in product(RANKS, (1, 2)):
        report = affine_a.alpha_checks(n, l)
        assert all_passed(report), f"n={n} l={l}\n" + render_report(report)
    print("criterion 03 (component isomorphism): PASS")


def test_criterion_04_promotion_twist():
    for n, l in product(RANKS, LEVELS):
        report = affine_a.promotion_checks(n, l)
        assert all_passed(report), f"n={n} l={l}\n" + render_report(report)
    print("criterion 04 (promotion twist): PASS")


def test_criterion_05_embedding_theorems():
    _assert_categories({"embedding"})
    print("criterion 05 (embedding theorems): PASS")


def test_criterion_06_commutation():
    _assert_categories({"commute"})
    print("criterion 06 (level-raising maps commute): PASS")


def test_criterion_07_boundary_structure():
    _assert_categories({"boundary", "multiplicity"})
    print("criterion 07 (boundary structure): PASS")


def test_criterion_08_f0_landing():
    _assert_categories({"f0-landing"})
    print("criterion 08 (zero-node landing): PASS")


def test_criterion_09_cardinalities():
    # independent brute-force oracles, no model code involved
    ssyt = 0
    for cells in product(range(1, 4), repeat=3):  # shape (2, 1): cells (a,b)/(c)
        a, b, c = cells
        if a <= b and a < c:
            ssyt += 1
    assert ssyt == 8
    assert [affine_a.KERNEL.component(b, 1) for b in affine_a.KERNEL.values(2, 1)].count(1) == 8

    c_level_one = [
        t for t in product(range(3), repeat=4)
        if sum(t) % 2 == 0 and sum(t) <= 2
    ]
    assert len(c_level_one) == 11
    assert len(affine_c.elements(2, 1)) == 11

    c_shell_one = [t for t in product(range(3), repeat=4) if sum(t) == 2]
    assert len(c_shell_one) == 10
    assert [affine_c.KERNEL.component(b, 1) for b in affine_c.KERNEL.values(2, 1)].count(1) == 10

    d_shell_one = [
        t for t in product(range(2), repeat=5) if t[2] in (0, 1) and sum(t) == 1
    ]
    assert len(d_shell_one) == 5
    assert [affine_d2.KERNEL.component(b, 1) for b in affine_d2.KERNEL.values(2, 1)].count(1) == 5
    print("criterion 09 (cardinalities): PASS")


def test_criterion_10_determinism(capsys, tmp_path):
    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out.encode()

    for argv in (
        ["graph", "--family", "c1", "--rank", "2", "--level", "2", "--format", "json"],
        ["graph", "--family", "a1", "--rank", "3", "--level", "2", "--format", "dot"],
        ["verify", "--family", "d2", "--rank", "2", "--level", "2"],
    ):
        assert run(argv) == run(argv)

    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for target in (first, second):
        assert main(["graph", "--family", "d2", "--rank", "2", "--level", "3",
                     "--out", str(target)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert len(payload["nodes"]) == affine_d2.expected_size(2, 3)
    print("criterion 10 (determinism): PASS")
