"""Shared fixtures."""

from collections import Counter

import pytest

from adjcrys.affine_c import ElemC


@pytest.fixture
def elemc_calls(monkeypatch):
    """Counts of ElemC.e/ElemC.f calls, keyed by (op, element, label)."""
    calls = Counter()
    for op in ("e", "f"):
        def counted(self, i, op=op, original=getattr(ElemC, op)):
            calls[op, self, i] += 1
            return original(self, i)
        monkeypatch.setattr(ElemC, op, counted)
    return calls
