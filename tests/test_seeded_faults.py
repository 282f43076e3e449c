"""Seeded faults: each plants one bug and asserts the named check FAILs.

A check that cannot fail proves nothing, so every fault here was chosen to
break exactly the statement its check names.  The faults are monkeypatched
into the models, the family specs or the check helpers; the rest of the
report is not asserted.
"""

from adjcrys import affine_c, affine_d2, crystal_graph
from adjcrys.affine_c import ElemC
from adjcrys.affine_d2 import ElemD
from adjcrys.cli import _verification_report
from adjcrys.crystal_graph import all_passed, axiom_checks
from adjcrys.root_data import Family, ShellShift, ShellStep


def _failed(family, n, l):
    report = _verification_report(family, n, l, "all")
    return {f"{c.category}/{c.name}" for c in report if not c.passed}


def test_eps0_off_by_one(monkeypatch):
    original = ElemC.eps
    monkeypatch.setattr(ElemC, "eps", lambda self, i: original(self, i) + (i == 0))
    assert "axioms/stats-closed-vs-iteration" in _failed("c1", 2, 2)


def _patch_strict_f0(monkeypatch):
    original = ElemC.f

    def f(self, i):
        if i != 0:
            return original(self, i)
        x1, xb1 = self.x(1), self.xbar(1)
        if x1 > xb1:  # the model has >=
            return self._moved({0: +2})
        if x1 == xb1 - 1:
            return self._moved({0: +1, 2 * self.n - 1: -1})
        return self._moved({2 * self.n - 1: -2})

    monkeypatch.setattr(ElemC, "f", f)


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


def test_phi_map_wrong_xbar_index(monkeypatch):
    def phi_map(j, b):
        out = list(b.coords)
        out[j - 1] += 1
        out[2 * b.n - j - 1] += 1  # the model bumps 2n - j, that is xbar_j
        return ElemC(tuple(out), b.level + 1)

    monkeypatch.setattr(affine_c, "SPEC", affine_c.SPEC._replace(raise_map=phi_map))
    assert "commute/phij-weight-preserving" in _failed("c1", 2, 2)


def test_classify_shift_up_for_minus_one(monkeypatch):
    original = crystal_graph.classify_shift

    def classify_shift(mu, k):
        shift = original(mu, k)
        if mu.datum.family is Family.C and mu.coeffs[0] == -1:
            return ShellShift(ShellStep.UP)
        return shift

    monkeypatch.setattr(crystal_graph, "classify_shift", classify_shift)
    assert "f0-landing/landing-component" in _failed("c1", 2, 2)


def test_psi_map_n_bumps_x1(monkeypatch):
    original = affine_d2.psi_map

    def psi_map(j, b):
        if j != b.n or b.x0 == 0:
            return original(j, b)
        x, xbar = list(b.x), list(b.xbar)
        x[0] += 1  # the model bumps x_n
        xbar[0] += 1
        return ElemD(tuple(x), 0, tuple(xbar), b.level + 1)

    monkeypatch.setattr(affine_d2, "SPEC", affine_d2.SPEC._replace(raise_map=psi_map))
    assert "commute/psij-weight-preserving" in _failed("d2", 3, 3)
