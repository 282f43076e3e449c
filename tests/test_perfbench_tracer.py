"""The benchmark tracer's patch points exist in the package.

`perfbench/traced.py` wraps named functions, and the `e`, `f` and
`__post_init__` of named classes, reading each from its owner's own `vars`.
A renamed function, or an `e`/`f` moved into a base class, breaks the
benchmark; this test notices it in the tier-1 suite.
"""

import importlib.util
import sys
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path  # the tracer puts its source tree first
    return module


def test_tracer_installs_counts_and_restores():
    traced = _load_traced()
    owners = (
        *traced.FAMILY_MODULES.values(), traced.crystal_graph, traced.root_data.RootDatum,
        *traced.ELEMENT_CLASSES, *traced.TABLEAU_CLASSES,
    )
    before = [dict(vars(owner)) for owner in owners]
    tracer = traced.Tracer()
    try:
        traced.install(tracer)
        traced.run_verify(tracer, "a1", 2, 2)
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in owners] == before
    # alpha builds one tableau for each of the comb(4, 2) ** 2 elements
    assert tracer.counts["tableaux.tableau_constructed"] == 36
    assert tracer.counts["checks.cases"] > 0
