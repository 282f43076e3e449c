"""Finite crystal graphs: operator tables, exhaustive checks, DOT/JSON export.

A model has the shape of `LevelModel`: `family`, `rank`, `level`,
`index_set`, `elements()` (its values: hashable, and for the level-l models
plain coordinate tuples), `kernel`, a `Kernel` of pure functions on the
values that take the level as an argument, and `element_id` (the name every
message and export gives a value), `component`, `sort_key`, `root_step(i)`
(the expected weight change of f_i) and `expected_size()`.  Each family
writes its crystal once, as a kernel, and the element classes call the same
kernel.

The graph and the checks run on tables, not on the operators.  An
`OperatorTable` enumerates a model's values once and calls the kernel's `f`
and `e` at most once per value and label; rows `f[i]`/`e[i]` hold the index
of the result, found through one dict from value to index that also maps
None to UNDEFINED, where the operator vanishes, and OUTSIDE where it
returns a value missing from the enumeration (an ef-inverse failure).  Each
row is recorded by `map` calls alone.  The `f` rows are recorded when the
table is built and the `e` rows on their first read, so graph export, which
reads only `f`, calls no e_i.  The table also holds each index's weight
coordinates and component.  The checks build no element object: a failure
names its elements by id.  `axiom_checks` and `run_theorems` take the
level-l table as an argument, so one `verify` builds it once.  The axioms
run one bulk pass per (label, direction) slot and one list comparison per
label and statistic; each check reports the least of the slots' first
failures.

`stream_graph` formats the DOT or JSON export straight from the table rows
and yields it in batches of a few thousand records, so it holds the table and
one token per element but no `Vertex`, `Edge` or whole document.  Nodes come
in `sort_key` order; edges by source id, then by label.  Each f_i is a
function and the ids are distinct, so that is the (src, label, dst) order
without sorting the edges.  Every `f` row is checked for OUTSIDE before the
first chunk.  `build_graph` and `export` give the same bytes as values, and
`export` runs the same record formatter.

`run_theorems` checks one family's structure theorems from a `TheoremSpec`:
the model class, the level embedding `B_{l-1} -> B_l`, the level-raising
maps with the step by which each raises level and component, an optional
coordinate boundary and an extras hook for family-specific embedding checks.
It builds the tables of levels l-1 and, for maps raising two levels, l-2,
turns each map into an index map, and computes only the category asked.
The shell predicates of `root_data` read the table's weight tuples, and the
f_0 landing adds theta to them as the tuple `model.root_step(0)`, so a
passing run calls `RootDatum.weight` for the root steps, not per element.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress, count, islice, repeat
from operator import add, ne, neg
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .root_data import Family, RootDatum, classify_shift, in_shell, on_boundary


# ---------------------------------------------------------------------------
# check results


@dataclass(frozen=True)
class CheckResult:
    name: str
    category: str
    passed: bool
    cases: int
    details: str = ""


def all_passed(report: Iterable[CheckResult]) -> bool:
    return all(c.passed for c in report)


def merge_checks(name: str, category: str, parts: Sequence[CheckResult]) -> CheckResult:
    """Collapse per-map results for one statement into a single line."""
    failed = [p for p in parts if not p.passed]
    details = failed[0].details if failed else ""
    return CheckResult(name, category, not failed, sum(p.cases for p in parts), details)


def render_report(report: Sequence[CheckResult]) -> str:
    lines = []
    for c in report:
        label = f"{c.category}/{c.name}"
        line = f"{'PASS' if c.passed else 'FAIL'}  {label:<46} ({c.cases} cases)"
        if not c.passed and c.details:
            line += f"\n      {c.details}"
        lines.append(line)
    npass = sum(1 for c in report if c.passed)
    lines.append(f"result: {npass} passed, {len(report) - npass} failed")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph construction and export


@dataclass(frozen=True)
class Vertex:
    id: str
    k: Optional[int]
    weight: tuple[int, ...]


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    label: int


@dataclass(frozen=True)
class CrystalGraph:
    family: str
    rank: int
    level: Optional[int]
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]


def build_graph(model) -> CrystalGraph:
    """Every f_i arrow of the model, read from its operator table.

    Raises ValueError when an f_i result is missing from the enumeration.
    """
    table, ids = _graph_table(model)
    vertices = tuple(
        Vertex(ids[b], table.comp[b], table.weight[b]) for b in _node_order(model, table)
    )
    edges = tuple(Edge(*e) for e in _edges(table, _id_order(ids), ids))
    return CrystalGraph(model.family, model.rank, model.level, vertices, edges)


def export(graph: CrystalGraph, fmt: str) -> bytes:
    """Serialize a graph to 'dot' or 'json'; deterministic byte output."""
    name, chunks = _format(fmt)
    nodes = ((name(v.id), v.k, v.weight) for v in graph.vertices)
    edges = ((name(e.src), name(e.dst), e.label) for e in graph.edges)
    return "".join(chunks(graph.family, graph.rank, graph.level, nodes, edges)).encode("utf-8")


def stream_graph(model, fmt: str) -> Iterator[str]:
    """The text of `export(build_graph(model), fmt)`, in chunks of a few
    thousand records formatted straight from the operator table.

    Builds no `Vertex`, `Edge` or whole document.  Raises ValueError when an
    f_i result is missing from the enumeration, before the first chunk.
    """
    name, chunks = _format(fmt)
    table, ids = _graph_table(model)
    by_id = _id_order(ids)
    names = ids  # each id gives way to its token, so the two lists never coexist
    for b, s in enumerate(names):
        names[b] = name(s)
    nodes = ((names[b], table.comp[b], table.weight[b]) for b in _node_order(model, table))
    return chunks(model.family, model.rank, model.level, nodes, _edges(table, by_id, names))


def _graph_table(model) -> tuple[OperatorTable, list[str]]:
    """The model's table and element ids; ValueError at the first f_i row
    (in label order) that leaves the enumeration, at its first element."""
    table = OperatorTable(model)
    ids = [model.element_id(b) for b in table.elems]
    for i, row in table.f.items():
        if OUTSIDE in row:
            raise ValueError(f"f_{i} leaves the enumeration at {ids[row.index(OUTSIDE)]}")
    return table, ids


def _node_order(model, table: OperatorTable) -> list[int]:
    elems = table.elems
    return sorted(range(len(elems)), key=lambda b: model.sort_key(elems[b]))


def _id_order(ids: list[str]) -> list[int]:
    return sorted(range(len(ids)), key=ids.__getitem__)


def _edges(table: OperatorTable, by_id: list[int], names: list) -> Iterator[tuple]:
    """(src, dst, i) for every f_i arrow, sources in `by_id` order, each
    source's arrows by ascending i.  Each f_i is a function and the ids are
    distinct, so this is the (src, i, dst) order of the ids without a sort."""
    rows = sorted(table.f.items())
    for b in by_id:
        src = names[b]
        for i, row in rows:
            c = row[b]
            if c >= 0:
                yield src, names[c], i


# The record formatter of each export format, shared by `export` and
# `stream_graph`: `name` turns an element id into the token the format
# writes, `chunks(family, rank, level, nodes, edges)` yields the text, with
# nodes (name, k, weight) and edges (src name, dst name, label).

_BATCH = 4096


def _batches(records: Iterable[tuple], line: Callable[..., str]) -> Iterator[list[str]]:
    records = iter(records)
    while batch := [line(*r) for r in islice(records, _BATCH)]:
        yield batch


def _fmt_weight(weight: tuple[int, ...]) -> str:
    return "(" + ",".join(str(c) for c in weight) + ")"


def _dot_node(name: str, k: Optional[int], weight: tuple[int, ...]) -> str:
    return f'  "{name}" [label="{name}\\nwt={_fmt_weight(weight)} k={"-" if k is None else k}"];\n'


def _dot_edge(src: str, dst: str, label: int) -> str:
    return f'  "{src}" -> "{dst}" [label="{label}"];\n'


def _dot_chunks(family, rank, level, nodes, edges) -> Iterator[str]:
    yield "digraph crystal {\n"
    for records, line in ((nodes, _dot_node), (edges, _dot_edge)):
        for batch in _batches(records, line):
            yield "".join(batch)
    yield "}\n"


def _json_node(name: str, k: Optional[int], weight: tuple[int, ...]) -> str:
    coords = "[\n        " + ",\n        ".join(map(str, weight)) + "\n      ]" if weight else "[]"
    return f'    {{\n      "id": {name},\n      "k": {json.dumps(k)},\n      "weight": {coords}\n    }}'


def _json_edge(src: str, dst: str, label: int) -> str:
    return f'    {{\n      "src": {src},\n      "dst": {dst},\n      "i": {label}\n    }}'


def _json_records(records, line) -> Iterator[str]:
    """A list of records as `json.dumps(..., indent=2)` lays out a top-level value."""
    sep = "\n"
    for batch in _batches(records, line):
        yield sep + ",\n".join(batch)
        sep = ",\n"
    yield "]" if sep == "\n" else "\n  ]"


def _json_chunks(family, rank, level, nodes, edges) -> Iterator[str]:
    yield (
        f'{{\n  "family": {json.dumps(family)},\n  "rank": {json.dumps(rank)},\n'
        f'  "level": {json.dumps(level)},\n  "nodes": ['
    )
    yield from _json_records(nodes, _json_node)
    yield ',\n  "edges": ['
    yield from _json_records(edges, _json_edge)
    yield "\n}\n"


_FORMATS = {"dot": (str, _dot_chunks), "json": (json.dumps, _json_chunks)}


def _format(fmt: str):
    if fmt not in _FORMATS:
        raise ValueError(f"unknown export format {fmt!r}")
    return _FORMATS[fmt]


@dataclass
class Kernel:
    """One crystal as pure functions on its values, hashable coordinate
    tuples; `n` is the rank, `l` the level, `i` a label.

    `values(n, l)` lists the values; `f`/`e(b, i, l)` give a value or None
    and `eps`/`phi(b, i, l)` the closed statistics; `weight(b)` is the tuple
    of weight coordinates, `component(b, l)` the component or None;
    `contains(b, l)` whether a coordinate tuple of the values' shape is an
    element at level l; `element_id(b, n)` is the id that names b in
    messages; `size(n, l)` the closed-form count.  Tables read the fields
    when built, so assigning one replaces it for every model, table and
    element.
    """

    values: Callable
    f: Callable
    e: Callable
    eps: Callable
    phi: Callable
    weight: Callable
    component: Callable
    contains: Callable
    element_id: Callable
    size: Callable


class LevelModel:
    """The crystal of `kernel` at rank n and level l, as a model: the whole
    crystal, or with `component=k` its classical component k over labels
    1..n.  Subclasses set `family`, `datum_family` and `kernel`."""

    family: str
    datum_family: Family
    kernel: Kernel

    def __init__(self, n: int, l: int, component: Optional[int] = None):
        self.rank = n
        self.level = l
        self.restriction = component
        self.index_set = tuple(range(0 if component is None else 1, n + 1))
        self._datum = RootDatum(self.datum_family, n)

    def elements(self) -> list:
        values = self.kernel.values(self.rank, self.level)
        if self.restriction is None:
            return values
        return [b for b in values if self.component(b) == self.restriction]

    def component(self, b) -> Optional[int]:
        return self.kernel.component(b, self.level)

    def element_id(self, b) -> str:
        return self.kernel.element_id(b, self.rank)

    def sort_key(self, b):
        return b

    def root_step(self, i: int) -> tuple[int, ...]:
        return self._datum.theta() if i == 0 else tuple(map(neg, self._datum.simple_root(i)))

    def expected_size(self) -> Optional[int]:
        if self.restriction is not None:
            return None
        return self.kernel.size(self.rank, self.level)


def restrict_to_component(model: LevelModel, k: int) -> LevelModel:
    """Component k of the model, over the classical labels 1..n."""
    return type(model)(model.rank, model.level, k)


# ---------------------------------------------------------------------------
# operator tables

UNDEFINED = -1  # the operator vanishes
OUTSIDE = -2  # the operator returned a value missing from the enumeration


class OperatorTable:
    """A model's values enumerated once, and its kernel's operators recorded
    by `map` calls alone as rows of indices, through one dict from value to
    index that also maps None, a vanishing operator, to UNDEFINED."""

    def __init__(self, model):
        self.model = model
        kernel, level = model.kernel, model.level
        self.elems = elems = list(model.elements())
        self.index = dict(zip(elems, range(len(elems))))
        self.index[None] = UNDEFINED
        self.labels = tuple(model.index_set)
        self.f = {i: self._record(kernel.f, i) for i in self.labels}
        self.weight = list(map(kernel.weight, elems))
        self.comp = list(map(kernel.component, elems, repeat(level)))

    def _record(self, op, i: int) -> tuple[int, ...]:
        results = map(op, self.elems, repeat(i), repeat(self.model.level))
        return tuple(map(self.index.get, results, repeat(OUTSIDE)))

    @cached_property
    def e(self) -> dict[int, tuple[int, ...]]:
        """The e rows, recorded on first read: a table read only for `f`
        calls no e_i."""
        return {i: self._record(self.model.kernel.e, i) for i in self.labels}

    def row(self, direction: str, i: int) -> tuple[int, ...]:
        return self.f[i] if direction == "f" else self.e[i]

    def element_id(self, b: int) -> str:
        """The id of index b, which names it in every message."""
        return self.model.element_id(self.elems[b])


def compile_map(domain: OperatorTable, target: OperatorTable, vmap) -> list[int]:
    """`vmap` as an index map: the target index of vmap(b), or a negative code, per value b."""
    return list(map(target.index.get, map(vmap, domain.elems), repeat(OUTSIDE)))


# ---------------------------------------------------------------------------
# checks on tables


def check_map(domain: OperatorTable, imap, ok, message: str, *,
              name: str, category: str) -> CheckResult:
    """ok(b, imap[b]) at every domain index; `message` names the first failure."""
    bad = next(
        (message.format(domain.element_id(b)) for b, c in enumerate(imap) if c < 0 or not ok(b, c)),
        "",
    )
    return CheckResult(name, category, not bad, len(imap), bad)


def check_commutation(domain: OperatorTable, target: OperatorTable, imap, ops, *,
                      name: str, category: str) -> CheckResult:
    """Verify imap(op(b)) == op(imap(b)) over the domain.

    `ops` is a sequence of (direction, label, only_when_defined).  With
    only_when_defined the statement is checked just where op(b) is defined;
    otherwise vanishing must agree on both sides as well.
    """
    rows = [(d, i, only, domain.row(d, i), target.row(d, i)) for d, i, only in ops]
    cases = 0
    for b, c in enumerate(imap):
        for direction, i, only_when_defined, inner, outer in rows:
            a, other = inner[b], outer[c] if c >= 0 else OUTSIDE
            if a == UNDEFINED and only_when_defined:
                continue
            cases += 1
            if a == UNDEFINED:
                bad = other != UNDEFINED and "vanishes on {} but not on its image"
            else:
                bad = (a < 0 or imap[a] < 0 or other != imap[a]) and "does not commute with the map at {}"
            if bad:
                detail = f"{direction}_{i} " + bad.format(domain.element_id(b))
                return CheckResult(name, category, False, cases, detail)
    return CheckResult(name, category, True, cases)


def check_embedding(domain: OperatorTable, target: OperatorTable, imap, labels, *,
                    name: str, category: str) -> CheckResult:
    """Verify imap identifies the domain with a full subgraph of the target.

    Injectivity, then arrow-for-arrow correspondence: a present arrow maps to
    the corresponding arrow; an absent arrow must be absent on the image or
    escape the image set.
    """
    fail = partial(CheckResult, name, category, False)
    image: dict[int, int] = {}
    for b, c in enumerate(imap):
        if c < 0:
            return fail(0, f"{domain.element_id(b)} maps outside the target")
        if c in image:
            return fail(0, f"map not injective: {domain.element_id(b)} and {domain.element_id(image[c])}")
        image[c] = b
    rows = [(d, i, domain.row(d, i), target.row(d, i)) for i in labels for d in ("f", "e")]
    cases = 0
    for b, c in enumerate(imap):
        for direction, i, inner_row, outer_row in rows:
            cases += 1
            inner, outer = inner_row[b], outer_row[c]
            if inner != UNDEFINED:
                if inner < 0 or outer != imap[inner]:
                    return fail(
                        cases, f"arrow {direction}_{i} at {domain.element_id(b)} not preserved")
            elif outer in image:
                return fail(
                    cases, f"extra arrow {direction}_{i} inside the image at {domain.element_id(b)}")
    return CheckResult(name, category, True, cases)


def _chain_lengths(step: Sequence[int]) -> list[int]:
    """How often `step` applies from each index before it vanishes.

    Each chain is walked once.  An OUTSIDE result ends a chain after one
    step; indices that walk into a cycle get -4, which no statistic equals.
    """
    unknown, on_path, cycle = -2, -3, -4
    out = [unknown] * len(step)
    for start in range(len(step)):
        if out[start] != unknown:
            continue
        path, cur = [], start
        while cur >= 0 and out[cur] == unknown:
            out[cur] = on_path
            path.append(cur)
            cur = step[cur]
        run = -2 - cur if cur < 0 else out[cur]  # after the path; UNDEFINED -1, OUTSIDE 0
        for node in reversed(path):
            run = cycle if run < -1 else run + 1  # below -1: on this path or a cycle
            out[node] = run
    return out


def _connected(table: OperatorTable) -> bool:
    """Connectivity of the f-arrows, taken undirected, by breadth-first search."""
    size = len(table.elems)
    if size <= 1:
        return True
    adjacent: list[list[int]] = [[] for _ in range(size)]
    for row in table.f.values():
        for b, c in enumerate(row):
            if c >= 0:
                adjacent[b].append(c)
                adjacent[c].append(b)
    seen = [False] * size
    seen[0] = True
    queue = [0]
    for b in queue:
        for c in adjacent[b]:
            if not seen[c]:
                seen[c] = True
                queue.append(c)
    return len(queue) == size


def _first_difference(a: list, b: list) -> Optional[int]:
    """The first position where the equal-length lists differ, or None."""
    return None if a == b else list(map(ne, a, b)).index(True)


def axiom_checks(model, table: Optional[OperatorTable] = None) -> list[CheckResult]:
    """Inverse pairing, closed statistics, weight steps, count, connectivity,
    on the model's table: `table` if the caller shares one, else built here.

    Each (label, direction) slot is one bulk pass over its rows; the weight
    step maps interned weight ids to the id of that weight plus the step.
    Each label compares the kernel's closed `eps`/`phi`, as whole lists,
    with the chain lengths of its rows.  A check reports the least of the
    slots' first failures in (element, label, direction) order.
    """
    if table is None:
        table = OperatorTable(model)
    kernel, level, elems = model.kernel, model.level, table.elems
    ids = dict(zip(dict.fromkeys(table.weight), count()))
    weight_ids = list(map(ids.__getitem__, table.weight))
    failures = {"ef-inverse": [], "stats-closed-vs-iteration": [], "weight-step": []}
    inverse, stats, steps = failures.values()  # (index, label position, direction, message)
    arrows = 0
    for pos, i in enumerate(table.labels):
        f, e, step = table.f[i], table.e[i], tuple(model.root_step(i))
        up = {a: ids.get(tuple(map(add, w, step))) for w, a in ids.items()}
        down = dict(zip(up.values(), up))  # its inverse, and None to some id, never asked
        for d, op, fwd, back, shifted in ((0, f"f_{i}", f, e, up), (1, f"e_{i}", e, f, down)):
            defined = list(map(UNDEFINED.__lt__, fwd))
            sources = list(compress(range(len(fwd)), defined))
            targets = list(compress(fwd, defined))
            arrows += len(targets)
            bad = _first_difference(sources, list(map(back.__getitem__, targets)))
            if bad is not None:
                inverse.append((sources[bad], pos, d, f"{op} not inverted at {{}}"))
            if OUTSIDE in fwd:
                inverse.append((fwd.index(OUTSIDE), pos, d, f"{op} leaves the crystal at {{}}"))
            bad = _first_difference(list(map(shifted.get, compress(weight_ids, defined))),
                                    list(map(weight_ids.__getitem__, targets)))
            if bad is not None:
                steps.append((sources[bad], pos, d, f"{op} weight step wrong at {{}}"))
        for closed, row in ((kernel.eps, e), (kernel.phi, f)):
            bad = _first_difference(list(map(closed, elems, repeat(i), repeat(level))),
                                    _chain_lengths(row))
            if bad is not None:
                stats.append((bad, pos, 0, f"closed statistics wrong at {{}}, i={i}"))
    size = len(elems) * len(table.labels)
    checks = []
    for (name, found), cases in zip(failures.items(), (2 * size, size, arrows)):
        b, *_, message = min(found, default=(0, ""))
        detail = message.format(model.element_id(elems[b])) if found else ""
        checks.append(CheckResult(name, "axioms", not found, cases, detail))
    expected = model.expected_size()
    if expected is not None:
        ok = len(elems) == expected
        checks.append(CheckResult(
            "element-count", "axioms", ok, 1,
            "" if ok else f"enumerated {len(elems)}, closed form gives {expected}",
        ))

    connected = _connected(table)
    checks.append(CheckResult(
        "connected", "axioms", connected, len(elems),
        "" if connected else "crystal graph is disconnected",
    ))
    return checks


# ---------------------------------------------------------------------------
# the structure theorems of one family


class TheoremSpec(NamedTuple):
    """What `run_theorems` needs to know about one family.

    The maps and predicates act on the model's values.  `include(b)` embeds
    a value of level l-1 into level l.  Each level-raising map is
    `raise_map(j, b)`; `steps(n)` lists (j, step) for the map that takes
    level l-step to level l and raises the component by step.  The shell
    predicates run on `model.datum_family`.  `coordinate_boundary(b)` is the
    coordinate form of the boundary shell, where the family has one.
    `extras(run)` returns embedding checks reported before the embedding.
    """

    model: type
    embedding: str
    include: Callable
    prefix: str
    raise_map: Callable
    steps: Callable[[int], Sequence[tuple[int, int]]]
    coordinate_boundary: Optional[Callable] = None
    extras: Optional[Callable] = None


SECTIONS = ("embedding", "commute", "boundary", "multiplicity", "f0-landing")


class TheoremRun:
    """One family's theorems at (n, l) on the level-l table `big`; the
    lower tables and the maps are built on first use, once per run."""

    def __init__(self, spec: TheoremSpec, n: int, l: int, big: OperatorTable):
        self.spec, self.n, self.l, self.big = spec, n, l, big
        self.family = spec.model.datum_family
        self.labels0 = tuple(range(1, n + 1))
        self._lower: dict[int, OperatorTable] = {}

    def table(self, step: int) -> OperatorTable:
        """The table of level l - step; a negative level gives the empty table."""
        if step not in self._lower:
            self._lower[step] = OperatorTable(self.spec.model(self.n, self.l - step))
        return self._lower[step]

    @cached_property
    def small(self) -> OperatorTable:
        return self.table(1)

    @cached_property
    def embedding(self) -> list[int]:
        return compile_map(self.small, self.big, self.spec.include)

    @cached_property
    def level_maps(self) -> list[tuple[int, int, OperatorTable, list[int]]]:
        """(j, step, domain table, index map) for each level-raising map."""
        out = []
        for j, step in self.spec.steps(self.n):
            domain = self.table(step)
            imap = compile_map(domain, self.big, partial(self.spec.raise_map, j))
            out.append((j, step, domain, imap))
        return out

    @cached_property
    def complement(self) -> list[int]:
        """Indices of level l off the images of the level-raising maps."""
        images = {c for *_, imap in self.level_maps for c in imap}
        return [b for b in range(len(self.big.elems)) if b not in images]

    def embedding_checks(self) -> list[CheckResult]:
        checks = list(self.spec.extras(self)) if self.spec.extras else []
        checks.append(check_embedding(
            self.small, self.big, self.embedding, self.big.labels,
            name=f"{self.spec.embedding}-full-subgraph", category="embedding",
        ))
        return checks

    def commute_checks(self) -> list[CheckResult]:
        big = self.big
        shift, weight, classical, affine = [], [], [], []
        for j, step, domain, imap in self.level_maps:
            name = f"j={j}"
            shift.append(check_map(
                domain, imap, lambda b, c: big.comp[c] == domain.comp[b] + step,
                f"level map {j} does not raise the component by {step} at {{}}",
                name=name, category="commute",
            ))
            weight.append(check_map(
                domain, imap, lambda b, c: big.weight[c] == domain.weight[b],
                f"level map {j} changes the weight at {{}}", name=name, category="commute",
            ))
            classical.append(check_commutation(
                domain, big, imap, [(d, i, True) for d in ("f", "e") for i in self.labels0],
                name=name, category="commute",
            ))
            affine.append(check_commutation(
                domain, big, imap, [("f", 0, False), ("e", 0, False)],
                name=name, category="commute",
            ))
        prefix = self.spec.prefix
        return [
            merge_checks(f"{prefix}-component-shift", "commute", shift),
            merge_checks(f"{prefix}-weight-preserving", "commute", weight),
            merge_checks(f"{prefix}-classical-commute-nonzero", "commute", classical),
            merge_checks(f"{prefix}-affine-commute", "commute", affine),
        ]

    def boundary_checks(self) -> list[CheckResult]:
        big, l, family = self.big, self.l, self.family
        images = [set() for _ in range(l + 1)]  # by source component + step
        for _, step, domain, imap in self.level_maps:
            for b, c in enumerate(imap):
                k = domain.comp[b] + step
                if k <= l:
                    images[k].add(c)
        inner = [set() for _ in range(l + 1)]  # level-l weights inside (k-1)*theta
        for b, k in enumerate(big.comp):
            if in_shell(family, big.weight[b], k - 1):
                inner[k].add(b)
        bad = next(
            (f"image description fails in component k={k}"
             for k in range(l + 1) if images[k] != inner[k]),
            "",
        )
        checks = [CheckResult(
            "image-equality", "boundary", not bad, sum(len(s) for s in inner), bad,
        )]
        coordinate = self.spec.coordinate_boundary
        if coordinate is not None:
            bad = next(
                (f"coordinate boundary criterion fails at {big.element_id(b)}"
                 for b, value in enumerate(big.elems)
                 if coordinate(value) != on_boundary(family, big.weight[b], big.comp[b])),
                "",
            )
            checks.append(CheckResult(
                "coordinate-criterion", "boundary", not bad, len(big.elems), bad,
            ))
        return checks

    def multiplicity_checks(self) -> list[CheckResult]:
        big, l = self.big, self.l
        bad, cases = "", 0
        for k in range(l + 1):
            counts = Counter(w for w, kb in zip(big.weight, big.comp) if kb == k)
            cases += sum(counts.values())
            bad = next(
                (f"weight {_fmt_weight(w)} has multiplicity {count} in component k={k}"
                 for w, count in counts.items()
                 if count != 1 and on_boundary(self.family, w, k)),
                "",
            )
            if bad:
                break
        checks = [CheckResult("boundary-weights-free", "multiplicity", not bad, cases, bad)]
        counts = Counter(big.weight[b] for b in self.complement)
        bad = next(
            (f"weight {_fmt_weight(w)} repeats {count} times off the images"
             for w, count in counts.items() if count != 1),
            "",
        )
        checks.append(CheckResult(
            "weight-injective-off-images", "multiplicity", not bad, len(self.complement), bad,
        ))
        return checks

    def f0_landing_checks(self) -> list[CheckResult]:
        """The f_0 action on elements outside the level-raising images.

        Checks the vanishing criterion (k = l and weight + theta off the top
        shell), the landing component predicted by the shell classification,
        and uniqueness of the landing element by weight.
        """
        big, l, family = self.big, self.l, self.family
        complement = self.complement
        off_images = set(complement)
        weight_counts = Counter(big.weight[b] for b in complement)
        theta = big.model.root_step(0)
        f0 = big.f[0]

        kill_bad = comp_bad = uniq_bad = ""
        kill_cases = comp_cases = uniq_cases = 0
        for b in complement:
            mu, k, z = big.weight[b], big.comp[b], f0[b]
            kill_cases += 1
            expect_dead = k == l and not in_shell(family, tuple(map(add, mu, theta)), l)
            if (z == UNDEFINED) != expect_dead:
                kill_bad = kill_bad or f"vanishing criterion wrong at {big.element_id(b)}"
                continue
            if z == UNDEFINED:
                continue
            comp_cases += 1
            if not on_boundary(family, mu, k):
                comp_bad = comp_bad or f"{big.element_id(b)} escapes the level-raising images but is not on its boundary shell"
                continue
            target = k + classify_shift(family, mu, k).value
            landed = big.comp[z] if z >= 0 else None
            if landed != target:
                comp_bad = comp_bad or f"f_0 lands in k={landed} at {big.element_id(b)}, classification says {target}"
                continue
            uniq_cases += 1
            if z not in off_images:
                uniq_bad = uniq_bad or f"f_0 image of {big.element_id(b)} lies in the level-raising images"
            elif weight_counts[big.weight[z]] != 1:
                uniq_bad = uniq_bad or f"f_0 image of {big.element_id(b)} is not unique of its weight"
        return [
            CheckResult("vanishing-criterion", "f0-landing", not kill_bad, kill_cases, kill_bad),
            CheckResult("landing-component", "f0-landing", not comp_bad, comp_cases, comp_bad),
            CheckResult("landing-unique-by-weight", "f0-landing", not uniq_bad, uniq_cases, uniq_bad),
        ]


def run_theorems(spec: TheoremSpec, n: int, l: int, category: str = "all",
                 table: Optional[OperatorTable] = None) -> list[CheckResult]:
    """The theorem checks of one family at (n, l): every section, or just
    `category`, on the table of `spec.model(n, l)` (`table` if given)."""
    if table is None:
        table = OperatorTable(spec.model(n, l))
    run = TheoremRun(spec, n, l, table)
    sections = (run.embedding_checks, run.commute_checks, run.boundary_checks,
                run.multiplicity_checks, run.f0_landing_checks)
    return [
        c for name, checks in zip(SECTIONS, sections) if category in ("all", name)
        for c in checks()
    ]
