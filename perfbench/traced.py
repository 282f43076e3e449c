"""Traced in-process run of adjcrys invocations, for the per-layer metrics.

    python3 perfbench/traced.py '[["verify", "c1", 3, 5], ["graph", "a1", 2, 2]]'

Each invocation is (command, family, rank, level) and is run by calling the
package's public functions in the order `adjcrys verify --check all` and
`adjcrys graph --format json` call them.  Spans are recorded around each
layer's entry points and counters are installed on the element classes; both
are patched in from this file and restored before it exits, so the package
itself is not changed.  Prints one JSON object: the spans, the counts and the
sha256 of the bytes each invocation produced (the rendered report for verify,
without the CLI header line; the exported graph for graph).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from adjcrys import affine_a, affine_c, affine_d2, crystal_graph, root_data, tableaux  # noqa: E402

FAMILY_MODULES = {"a1": affine_a, "c1": affine_c, "d2": affine_d2}
MODELS = {"a1": affine_a.CrystalA, "c1": affine_c.CrystalC, "d2": affine_d2.CrystalD2}
ELEMENT_CLASSES = (
    affine_a.RowElem, affine_a.ColElem, affine_a.AdjElemA, affine_c.ElemC, affine_d2.ElemD,
)
TABLEAU_CLASSES = (tableaux.Tableau, tableaux.Word, tableaux.TensorPair)


class Tracer:
    """Spans and counters patched onto module functions and class methods."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._t0 = time.perf_counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def region(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter() - self._t0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._t0
            record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def span(self, name: str, owner, attr: str, tally=None) -> None:
        """Record a span named `name` around every call of owner.attr.

        `tally`, if given, is (counter, fn) and adds fn(result) to the counter.
        """
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.region(name):
                result = fn(*args, **kwargs)
            if tally is not None:
                self.counts[tally[0]] += tally[1](result)
            return result

        self._patch(owner, attr, traced)

    def count(self, counter: str, owner, attr: str) -> None:
        """Count calls of owner.attr, leaving out calls nested in a counted call."""
        fn = getattr(owner, attr)
        counts, depth = self.counts, self._depth

        def counted(*args):
            if depth[counter]:
                return fn(*args)
            counts[counter] += 1
            depth[counter] += 1
            try:
                return fn(*args)
            finally:
                depth[counter] -= 1

        self._patch(owner, attr, counted)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    for module in (affine_a, affine_c, affine_d2):
        tracer.span("enumerate", module, "elements")
    tracer.span("enumerate", affine_a, "row_elements")
    tracer.span("enumerate", affine_a, "col_elements")
    tracer.span("crystal_graph.axiom_checks", crystal_graph, "axiom_checks")
    for module in (affine_a, affine_c, affine_d2):
        layer = module.__name__.rsplit(".", 1)[1]
        tracer.span(f"{layer}.verify_theorems", module, "verify_theorems")
    tracer.span("affine_a.promotion_checks", affine_a, "promotion_checks")
    tracer.span("affine_a.alpha_checks", affine_a, "alpha_checks")
    tracer.span("crystal_graph.build_graph", crystal_graph, "build_graph",
                ("crystal_graph.build_graph.edges", lambda graph: len(graph.edges)))
    tracer.span("crystal_graph.export", crystal_graph, "export",
                ("crystal_graph.export.bytes", len))

    for cls in ELEMENT_CLASSES:
        tracer.count("elem.constructed", cls, "__post_init__")
        tracer.count("ops.calls", cls, "e")
        tracer.count("ops.calls", cls, "f")
    tracer.count("tableaux.tableau_constructed", tableaux.Tableau, "__post_init__")
    for cls in TABLEAU_CLASSES:
        tracer.count("tableaux.ops.calls", cls, "e")
        tracer.count("tableaux.ops.calls", cls, "f")
    tracer.count("root_data.datum_constructed", root_data.RootDatum, "__post_init__")
    tracer.count("root_data.weight_calls", root_data.RootDatum, "weight")


def run_verify(tracer: Tracer, family: str, rank: int, level: int) -> bytes:
    """The report of `adjcrys verify --check all`, rendered without its header."""
    report = list(crystal_graph.axiom_checks(MODELS[family](rank, level)))
    if family == "a1":
        for prefix, factor in (
            ("row", affine_a.RowCrystal(rank, level)),
            ("col", affine_a.ColCrystal(rank, level)),
        ):
            report.extend(
                replace(c, name=f"{prefix}-{c.name}")
                for c in crystal_graph.axiom_checks(factor)
            )
    report.extend(FAMILY_MODULES[family].verify_theorems(rank, level))
    if family == "a1":
        report.extend(affine_a.promotion_checks(rank, level))
        report.extend(affine_a.alpha_checks(rank, level))
    tracer.counts["checks.cases"] += sum(c.cases for c in report)
    return crystal_graph.render_report(report).encode("utf-8")


def run_graph(tracer: Tracer, family: str, rank: int, level: int) -> bytes:
    """The output of `adjcrys graph --format json`."""
    graph = crystal_graph.build_graph(MODELS[family](rank, level))
    return crystal_graph.export(graph, "json")


RUNNERS = {"verify": run_verify, "graph": run_graph}


def main(argv: list[str]) -> int:
    invocations = json.loads(argv[1])
    tracer = Tracer()
    digests = []
    try:
        install(tracer)
        for index, (command, family, rank, level) in enumerate(invocations):
            tracer.run_id = f"{index}:{command}-{family}-{rank}-{level}"
            with tracer.region("invocation"):
                data = RUNNERS[command](tracer, family, rank, level)
            digests.append(hashlib.sha256(data).hexdigest())
            del data
    finally:
        tracer.restore()
    print(json.dumps({"spans": tracer.spans, "counts": dict(tracer.counts), "digests": digests}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
