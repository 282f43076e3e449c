"""Shared fixtures."""

from collections import Counter

import pytest

from adjcrys.affine_c import KERNEL


@pytest.fixture
def elemc_calls(monkeypatch):
    """Counts of the C kernel's e/f calls, keyed by (op, coords, label)."""
    calls = Counter()
    for op in ("e", "f"):
        def counted(x, i, l, op=op, original=getattr(KERNEL, op)):
            calls[op, x, i] += 1
            return original(x, i, l)
        monkeypatch.setattr(KERNEL, op, counted)
    return calls
