"""Finite crystal graphs: operator tables, exhaustive checks, DOT/JSON export.

A model has the shape of `LevelModel`: `family`, `rank`, `level`,
`index_set`, `elements()` (its values: hashable, and for the level-l models
plain coordinate tuples), `kernel`, a `Kernel` of pure functions on the
values that take the level as an argument, and `element_id` (the name every
message and export gives a value), `component`, `sort_key`, `root_step(i)`
(the expected weight change of f_i) and `expected_size()`.  Each family
writes its crystal once, as a kernel, and `element_class` builds its element
classes, a kernel value and its level each, over the same kernel.

The graph and the checks run on tables, not on the operators.  An
`OperatorTable` enumerates a model's values once and calls the kernel's `f`
and `e` at most once per value and label; rows `f[i]`/`e[i]` hold the index
of the result, found through one dict from value to index that also maps
None to UNDEFINED, where the operator vanishes, and OUTSIDE where it
returns a value missing from the enumeration (an ef-inverse failure).  Each
row is recorded by `map` calls alone.  The `f` rows are recorded when the
table is built and the `e` rows on their first read, so graph export, which
reads only `f`, calls no e_i.  The table also holds each index's weight
coordinates and component, and `indices`, one int object per index.  The
dict's values are those objects, and so is every row and index-map entry;
every index list the package builds takes its entries from `indices` or
from the rows, so it holds pointers, not new ints.  The checks build no
element object: a failure names its elements by id.  `axiom_checks` and
`run_theorems` take the level-l table as an argument, so one `verify`
builds it once.  The axioms run one bulk pass per (label, direction) slot
and one comparison per label and statistic; each check reports the
least of the slots' first failures.

`stream_graph` formats the DOT or JSON export straight from the table rows
and yields it in batches of a few hundred records.  It keeps only what the
export reads, in this order: the table, with its value -> index dict, is
let go first; the node order is sorted by `sort_key` while only the values
exist; then each value gives way to its id in the one list, so the values
and the ids never all exist at once; the id order is sorted; and for JSON
each id gives way to its token.  From then on it holds the `f` rows,
components, weights, one token per element and two orders of the shared
indices, but no `Vertex`, `Edge` or whole document.  Only the JSON layout
imports `json`.  Nodes come in `sort_key` order; edges by source id, then
by label.  Each f_i is a function and the ids are distinct, so that is the
(src, label, dst) order without sorting the edges.  An edge line is its
source's prefix, the destination's token and its label's suffix, and each
call formats each distinct k, weight and label once, so the text work
grows with the distinct values, not with the records.  Every `f` row is
checked for OUTSIDE before the first chunk.  `build_graph` reads the same
parts of the table through the same helper, `export` runs the same record
formatter, and the two give the same bytes as values.

`run_theorems` checks one family's structure theorems from a `TheoremSpec`:
the model class, the level embedding `B_{l-1} -> B_l`, the level-raising
maps with the step by which each raises level and component, an optional
coordinate boundary and an extras hook for family-specific embedding checks.
It builds the tables of levels l-1 and, for maps raising two levels, l-2,
turns each map into an index map and counts the weights off the maps'
images, all once per run, then reports the category asked.  The map checks
compare data: `check_map` a target column read through the index map with
an expected column, and `check_commutation` each (element, operator) case
by one comparison.  Every boundary-shell read is a read of one shell
mask, made by one `root_data.shell` call per distinct level-l weight;
theta, for the f_0 landing, is the tuple `model.root_step(0)`, so a
passing run calls `RootDatum.weight` for the root steps, not per element.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, make_dataclass
from functools import cache, cached_property, partial
from itertools import chain, compress, count, islice, repeat
from math import inf
from operator import add, and_, eq, gt, itemgetter, lt, ne, neg, not_
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .root_data import Family, RootDatum, classify_shift, in_shell, shell


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


def merge_checks(parts: Sequence[CheckResult]) -> CheckResult:
    """Collapse per-map results for one statement, which share its name and
    category, into a single line."""
    failed = [p for p in parts if not p.passed]
    details = failed[0].details if failed else ""
    first = parts[0]
    return CheckResult(first.name, first.category, not failed, sum(p.cases for p in parts), details)


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
    rows, comp, weight, ids, nodes, by_id = _graph_parts(model)
    vertices = tuple(Vertex(ids[b], comp[b], weight[b]) for b in nodes)
    edges = tuple(Edge(ids[b], ids[c], i) for b in by_id for i, row in rows if (c := row[b]) >= 0)
    return CrystalGraph(model.family, model.rank, model.level, vertices, edges)


def export(graph: CrystalGraph, fmt: str) -> bytes:
    """Serialize a graph to 'dot' or 'json'; deterministic byte output."""
    name, node, prefix, suffix, chunks = _layout(fmt)
    nodes = ([node(name(v.id), v.k, v.weight) for v in batch] for batch in _batches(graph.vertices))
    edges = ([prefix(name(e.src)) + name(e.dst) + suffix(e.label) for e in batch]
             for batch in _batches(graph.edges))
    return "".join(chunks(graph.family, graph.rank, graph.level, nodes, edges)).encode("utf-8")


def stream_graph(model, fmt: str) -> Iterator[str]:
    """The text of `export(build_graph(model), fmt)`, in chunks of a few
    hundred records formatted straight from the operator table.

    The parts come from `_graph_parts` (node order, then ids, then id
    order); then each id gives way to its token.  Builds no `Vertex`, `Edge`
    or whole document.  Raises ValueError when an f_i result is missing from
    the enumeration, before the first chunk.
    """
    name, node, prefix, suffix, chunks = _layout(fmt)
    rows, comp, weight, names, by_node, by_id = _graph_parts(model)
    for b, s in enumerate(names):  # each id gives way to its token, so the two lists never coexist
        names[b] = name(s)
    nodes = ([node(names[b], comp[b], weight[b]) for b in batch] for batch in _batches(by_node))
    ends = [(suffix(i), row) for i, row in rows]
    edges = ([pre + names[c] + end
              for b in batch for pre in (prefix(names[b]),) for end, row in ends if (c := row[b]) >= 0]
             for batch in _batches(by_id, len(ends)))
    return chunks(model.family, model.rank, model.level, nodes, edges)


def _graph_parts(model) -> tuple[list, list, list, list[str], list[int], list[int]]:
    """What an export reads of the model's table: the (label, f row) pairs in
    label order, each index's component and weight, the element ids, and
    the table's indices in node (`sort_key`) order and in id order.

    The table is let go first, which frees its value -> index dict.  The
    node order is sorted before any id exists; then each value gives way
    to its id in the one list, so the values and the ids never all exist
    at once; the id order comes last.  ValueError at the first f_i row (in
    label order) that leaves the enumeration, at its first element.
    """
    table = OperatorTable(model)
    rows, comp, weight, indices, elems = table.f, table.comp, table.weight, table.indices, table.elems
    del table
    for i, row in rows.items():
        if OUTSIDE in row:
            first = elems[row.index(OUTSIDE)]
            raise ValueError(f"f_{i} leaves the enumeration at {model.element_id(first)}")
    nodes = sorted(indices, key=lambda b: model.sort_key(elems[b]))
    ids = elems
    for b, value in enumerate(ids):
        ids[b] = model.element_id(value)
    return sorted(rows.items()), comp, weight, ids, nodes, sorted(indices, key=ids.__getitem__)


# The record formatter of each export format, shared by `export` and
# `stream_graph`: `_layout(fmt)` gives (name, node, prefix, suffix, chunks),
# with caches that live for one call.  `name(id)` is the token the format
# writes; a node line is `node(name, k, weight)`, an edge line `prefix(src
# name) + dst name + suffix(label)`; `chunks` yields the text from batches.

_BATCH = 512


def _batches(records: Sequence, per: int = 1) -> Iterator[Sequence]:
    """Slices of about `_BATCH` records, `per` records to an item."""
    step = max(1, _BATCH // max(1, per))
    return (records[start:start + step] for start in range(0, len(records), step))


def _fmt_weight(weight: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, weight)) + ")"


def _dot_chunks(family, rank, level, nodes, edges) -> Iterator[str]:
    yield "digraph crystal {\n"
    yield from map("".join, chain(nodes, edges))
    yield "}\n"


def _dot() -> tuple:
    ks, weights = cache(lambda k: "-" if k is None else str(k)), cache(_fmt_weight)
    return (
        str,
        lambda name, k, weight: f'  "{name}" [label="{name}\\nwt={weights(weight)} k={ks(k)}"];\n',
        lambda src: f'  "{src}" -> "',
        cache(lambda label: f'" [label="{label}"];\n'),
        _dot_chunks,
    )


def _json_coords(weight: tuple[int, ...]) -> str:
    return "[\n        " + ",\n        ".join(map(str, weight)) + "\n      ]" if weight else "[]"


def _json_records(batches) -> Iterator[str]:
    """A list of records as `json.dumps(..., indent=2)` lays out a top-level value."""
    sep = "\n"
    for batch in filter(None, batches):
        yield sep + ",\n".join(batch)
        sep = ",\n"
    yield "]" if sep == "\n" else "\n  ]"


def _json_chunks(dumps, family, rank, level, nodes, edges) -> Iterator[str]:
    yield (
        f'{{\n  "family": {dumps(family)},\n  "rank": {dumps(rank)},\n'
        f'  "level": {dumps(level)},\n  "nodes": ['
    )
    yield from _json_records(nodes)
    yield ',\n  "edges": ['
    yield from _json_records(edges)
    yield "\n}\n"


def _json() -> tuple:
    import json  # here, not at module level: only a JSON export loads json
    from json.encoder import encode_basestring_ascii

    ks, weights = cache(json.dumps), cache(_json_coords)
    return (
        encode_basestring_ascii,  # the escape of json.dumps(str): the same bytes
        lambda name, k, weight:
            f'    {{\n      "id": {name},\n      "k": {ks(k)},\n      "weight": {weights(weight)}\n    }}',
        lambda src: f'    {{\n      "src": {src},\n      "dst": ',
        cache(lambda label: f',\n      "i": {label}\n    }}'),
        partial(_json_chunks, json.dumps),
    )


_FORMATS = {"dot": _dot, "json": _json}


def _layout(fmt: str) -> tuple:
    if fmt not in _FORMATS:
        raise ValueError(f"unknown export format {fmt!r}")
    return _FORMATS[fmt]()


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


def element_class(name: str, kernel: Kernel, module: str) -> type:
    """A frozen element class over `kernel`, named `name` in the family
    module `module`, so that pickle and `repr` find it there.  An element is
    a kernel value and its level, which `kernel.contains` must accept, and
    its `e`/`f` are the kernel's at that level.  No command builds one.  The
    benchmark's tracer (`perfbench/traced.py`) patches `__post_init__`, `e`
    and `f` in each class's own namespace, so each class gets its own."""

    def __post_init__(self) -> None:
        if not kernel.contains(self.value, self.level):
            raise ValueError(f"coordinates do not describe a level-{self.level} element")

    def e(self, i: int):
        out = kernel.e(self.value, i, self.level)
        return None if out is None else type(self)(out, self.level)

    def f(self, i: int):
        out = kernel.f(self.value, i, self.level)
        return None if out is None else type(self)(out, self.level)

    cls = make_dataclass(name, ["value", ("level", int)], frozen=True,
                         namespace={"__post_init__": __post_init__, "e": e, "f": f})
    cls.__module__ = module
    return cls


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


# ---------------------------------------------------------------------------
# operator tables

UNDEFINED = -1  # the operator vanishes
OUTSIDE = -2  # the operator returned a value missing from the enumeration


class OperatorTable:
    """A model's values enumerated once, and its kernel's operators recorded
    by `map` calls alone as rows of indices, through one dict from value to
    index that also maps None, a vanishing operator, to UNDEFINED.  Equal
    weights share one tuple.  `indices` holds one int object per index; the
    dict maps each value to it, so each row and index-map entry is that
    object, and lists built from `indices` or the rows hold no new ints."""

    def __init__(self, model):
        self.model = model
        kernel, level = model.kernel, model.level
        self.elems = elems = list(model.elements())
        self.indices = indices = list(range(len(elems)))
        self.index = dict(zip(elems, indices))
        self.index[None] = UNDEFINED
        self.labels = tuple(model.index_set)
        self.f = {i: self._record(kernel.f, i) for i in self.labels}
        seen: dict = {}
        self.weight = [seen.setdefault(w, w) for w in map(kernel.weight, elems)]
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


def check_map(domain: OperatorTable, imap, column, expected, message: str, *,
              name: str, category: str) -> CheckResult:
    """column[imap[b]] == expected[b] at every domain index b, a negative
    imap[b] failing; `expected` is iterated once, in domain order, and
    `message` names the first failure."""
    negative = next(compress(domain.indices, map(gt, repeat(0), imap)), len(imap))
    got = map(column.__getitem__, islice(imap, negative))  # reads no negative code
    b = next(compress(domain.indices, map(ne, got, expected)), negative)
    bad = message.format(domain.element_id(b)) if b < len(imap) else ""
    return CheckResult(name, category, not bad, len(imap), bad)


def check_commutation(domain: OperatorTable, target: OperatorTable, imap, labels,
                      only_when_defined: bool, *, name: str, category: str) -> CheckResult:
    """Verify imap(op(b)) == op(imap(b)) over the domain, for op f_i at each
    of `labels` and then e_i at each.

    With only_when_defined the statement is checked just where op(b) is
    defined; otherwise vanishing must agree on both sides as well.  Each case
    is one comparison through `image`: imap with its negative codes replaced
    by one that no row holds, then the entries OUTSIDE and UNDEFINED read,
    that code and UNDEFINED.
    """
    rows = [(f"{d}_{i}", domain.row(d, i), target.row(d, i)) for d in ("f", "e") for i in labels]
    unmatched = OUTSIDE - 1  # no row entry and no OUTSIDE equals it
    image = [c if c >= 0 else unmatched for c in imap] + [unmatched, UNDEFINED]
    cases = 0
    for b, c in enumerate(imap):
        for op, inner, outer in rows:
            a = inner[b]
            if a == UNDEFINED and only_when_defined:
                continue
            cases += 1
            if image[a] != (outer[c] if c >= 0 else OUTSIDE):
                bad = ("vanishes on {} but not on its image" if a == UNDEFINED
                       else "does not commute with the map at {}")
                return CheckResult(name, category, False, cases,
                                   f"{op} " + bad.format(domain.element_id(b)))
    return CheckResult(name, category, True, cases)


def check_embedding(domain: OperatorTable, target: OperatorTable, imap, labels, *,
                    name: str, category: str) -> CheckResult:
    """Verify imap identifies the domain with a full subgraph of the target.

    Injectivity, then arrow-for-arrow correspondence: a present arrow maps to
    the corresponding arrow; an absent arrow must be absent on the image or
    escape the image set, so each domain row is the target row pulled back.
    """
    fail = partial(CheckResult, name, category, False)
    preimage = [UNDEFINED] * (len(target.elems) + 2)  # image owners; OUTSIDE, UNDEFINED read the ends
    for b, c in zip(domain.indices, imap):
        if c < 0:
            return fail(0, f"{domain.element_id(b)} maps outside the target")
        if preimage[c] != UNDEFINED:
            return fail(0, f"map not injective: {domain.element_id(b)} and {domain.element_id(preimage[c])}")
        preimage[c] = b
    keys = [(d, i) for i in labels for d in ("f", "e")]
    rows = [domain.row(d, i) for d, i in keys]
    pulled = (tuple(map(preimage.__getitem__, map(target.row(d, i).__getitem__, imap))) for d, i in keys)
    firsts = [(b, r) for r, b in enumerate(map(_first_difference, rows, pulled)) if b is not None]
    if not firsts:
        return CheckResult(name, category, True, len(imap) * len(keys))
    b, r = min(firsts)  # the least failing (element, row) pair
    (d, i), inner = keys[r], rows[r][b]
    message = "arrow {}_{} at {} not preserved" if inner != UNDEFINED else "extra arrow {}_{} inside the image at {}"
    return fail(b * len(keys) + r + 1, message.format(d, i, domain.element_id(b)))


def _chain_length(row: Sequence[int], b: int) -> Optional[int]:
    """How often `row` applies from index b before it vanishes, an OUTSIDE
    result counting as one step; None when b walks into a cycle."""
    for steps in range(len(row) + 1):  # a chain without a cycle ends within len(row) steps
        if b < 0:
            return steps if b == OUTSIDE else steps - 1
        b = row[b]
    return None


def _connected(table: OperatorTable) -> bool:
    """Connectivity of the f-arrows, taken undirected: a union-find that links
    the roots of each arrow's ends, halving each path it walks to a root."""
    parent = list(table.indices)
    for row in table.f.values():
        for b, c in enumerate(row):
            if c >= 0:
                while b != parent[b]:
                    parent[b] = b = parent[parent[b]]
                while c != parent[c]:
                    parent[c] = c = parent[parent[c]]
                parent[b] = c
    return sum(map(eq, parent, table.indices)) <= 1


def _first_difference(a: Sequence, b: Sequence) -> Optional[int]:
    """The first position where the equal-length sequences, of one type, differ, or None."""
    return None if a == b else list(map(ne, a, b)).index(True)


def axiom_checks(model, table: Optional[OperatorTable] = None) -> list[CheckResult]:
    """Inverse pairing, closed statistics, weight steps, count, connectivity,
    on the model's table: `table` if the caller shares one, else built here.

    Each (label, direction) slot is one bulk pass over its rows; the weight
    step maps interned weight ids to the id of that weight plus the step.
    Each label checks the kernel's closed `eps`/`phi`, as whole lists, by
    eps_i(b) = eps_i(e_i b) + 1, 0 where e_i vanishes (phi_i on f_i alike).
    No cycle obeys that, so it holds iff each value is its `_chain_length`,
    and a mismatch names the least element where they differ.  Each check
    reports its least failure in (element, label, direction) order.
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
            sources = list(compress(table.indices, defined))
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
            stat = [*map(closed, elems, repeat(i), repeat(level)), 0, -1]  # read by OUTSIDE, UNDEFINED
            if any(map(ne, stat, map(add, map(stat.__getitem__, row), repeat(1)))):  # builds no 2nd list
                bad = next(b for b in range(len(row)) if stat[b] != _chain_length(row, b))
                stats.append((bad, pos, 0, f"closed statistics wrong at {{}}, i={i}"))
        del stat  # not held through the next label's slot lists, which set the peak
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
    """One family's theorems at (n, l) on the level-l table `big`.  The run
    builds every lower table, the embedding, the level maps and the
    complement of their images once, when it is made."""

    def __init__(self, spec: TheoremSpec, n: int, l: int, big: OperatorTable):
        self.spec, self.l, self.big = spec, l, big
        self.family = spec.model.datum_family
        self.labels0 = tuple(range(1, n + 1))
        steps = spec.steps(n)
        # the table of level l - step for each distinct step; a negative level is empty
        lower = {step: OperatorTable(spec.model(n, l - step))
                 for step in dict.fromkeys([1] + [step for _, step in steps])}
        self.small = lower[1]
        self.embedding = compile_map(self.small, big, spec.include)
        # (j, step, domain table, index map) for each level-raising map
        self.level_maps = [
            (j, step, lower[step], compile_map(lower[step], big, partial(spec.raise_map, j)))
            for j, step in steps
        ]
        self.images = bytearray(len(big.elems))  # 1 at each level-l index a level map hits
        for c in (c for *_, imap in self.level_maps for c in imap if c >= 0):  # a negative code marks none
            self.images[c] = 1
        self.complement = list(compress(big.indices, map(not_, self.images)))
        self.complement_weights = Counter(big.weight[b] for b in self.complement)

    @cached_property
    def shell_masks(self) -> tuple[bytearray, bytearray]:
        """Byte masks over the level-l indices, 1 where the weight lies inside
        (k-1)*theta and where on k*theta, k the component; `shell` runs once
        per distinct weight, and one in no shell is in neither.  Made on
        first read, so the sections that set the run's peak do not hold them."""
        big = self.big
        weights = dict.fromkeys(big.weight)
        shells = {w: inf if s is None else s for w, s in zip(weights, map(shell, repeat(self.family), weights))}
        return (bytearray(map(lt, map(shells.__getitem__, big.weight), big.comp)),
                bytearray(map(eq, map(shells.__getitem__, big.weight), big.comp)))

    def embedding_checks(self) -> list[CheckResult]:
        checks = list(self.spec.extras(self)) if self.spec.extras else []
        checks.append(check_embedding(
            self.small, self.big, self.embedding, self.big.labels,
            name=f"{self.spec.embedding}-full-subgraph", category="embedding",
        ))
        return checks

    def commute_checks(self) -> list[CheckResult]:
        big, prefix = self.big, self.spec.prefix
        parts = [(  # one result per level map and statement, merged by statement below
            check_map(domain, imap, big.comp, map(add, domain.comp, repeat(step)),
                      f"level map {j} does not raise the component by {step} at {{}}",
                      name=f"{prefix}-component-shift", category="commute"),
            check_map(domain, imap, big.weight, domain.weight, f"level map {j} changes the weight at {{}}",
                      name=f"{prefix}-weight-preserving", category="commute"),
            check_commutation(domain, big, imap, self.labels0, True,
                              name=f"{prefix}-classical-commute-nonzero", category="commute"),
            check_commutation(domain, big, imap, (0,), False,
                              name=f"{prefix}-affine-commute", category="commute"),
        ) for j, step, domain, imap in self.level_maps]
        return [merge_checks(column) for column in zip(*parts)]

    def boundary_checks(self) -> list[CheckResult]:
        big, l, comp, (inner, boundary) = self.big, self.l, self.big.comp, self.shell_masks
        reached = bytearray(len(comp))  # 1 at each inner index a level map hits from its component
        differ = set()  # each k whose images (by source component + step) and inner indices differ
        for _, step, domain, imap in self.level_maps:
            for k, c in zip(map(add, domain.comp, repeat(step)), imap):
                if k > l:
                    continue
                if c >= 0 and comp[c] == k and inner[c]:  # a negative code is in no inner set
                    reached[c] = 1
                else:
                    differ.add(k)
        differ.update(compress(comp, map(gt, inner, reached)))
        bad = f"image description fails in component k={min(differ)}" if differ else ""
        checks = [CheckResult(
            "image-equality", "boundary", not bad, sum(inner), bad,
        )]
        coordinate = self.spec.coordinate_boundary
        if coordinate is not None:
            checks.append(check_map(big, big.indices, boundary, map(coordinate, big.elems),
                                    "coordinate boundary criterion fails at {}",
                                    name="coordinate-criterion", category="boundary"))
        return checks

    def multiplicity_checks(self) -> list[CheckResult]:
        big, l, boundary = self.big, self.l, self.shell_masks[1]
        # a (k, weight) pair repeats only if its weight does: the shared weight
        # tuples are counted first, and pairs only for the repeated weights
        repeated = {w for w, count in Counter(compress(big.weight, boundary)).items() if count != 1}
        suspect = map(and_, boundary, map(repeated.__contains__, big.weight)) if repeated else ()
        pairs = Counter(compress(zip(big.comp, big.weight), suspect))
        failures = [(k, w, count) for (k, w), count in pairs.items() if count != 1 and 0 <= k <= l]
        k, w, count = min(failures, key=itemgetter(0), default=(l, None, 1))  # min keeps the first of equal k
        bad = f"weight {_fmt_weight(w)} has multiplicity {count} in component k={k}" if failures else ""
        sizes = Counter(big.comp)
        checks = [CheckResult("boundary-weights-free", "multiplicity", not bad,
                              sum(map(sizes.__getitem__, range(k + 1))), bad)]
        bad = next(
            (f"weight {_fmt_weight(w)} repeats {count} times off the images"
             for w, count in self.complement_weights.items() if count != 1),
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
        images, weight_counts, boundary = self.images, self.complement_weights, self.shell_masks[1]
        theta = big.model.root_step(0)
        f0 = big.f[0]

        kill_bad = comp_bad = uniq_bad = ""
        comp_cases = uniq_cases = 0
        for b in self.complement:
            mu, k, z = big.weight[b], big.comp[b], f0[b]
            expect_dead = k == l and not in_shell(family, tuple(map(add, mu, theta)), l)
            if (z == UNDEFINED) != expect_dead:
                kill_bad = kill_bad or f"vanishing criterion wrong at {big.element_id(b)}"
                continue
            if z == UNDEFINED:
                continue
            comp_cases += 1
            if not boundary[b]:
                comp_bad = comp_bad or f"{big.element_id(b)} escapes the level-raising images but is not on its boundary shell"
                continue
            target = k + classify_shift(family, mu, k).value
            landed = big.comp[z] if z >= 0 else None
            if landed != target:
                comp_bad = comp_bad or f"f_0 lands in k={landed} at {big.element_id(b)}, classification says {target}"
                continue
            uniq_cases += 1
            if images[z]:
                uniq_bad = uniq_bad or f"f_0 image of {big.element_id(b)} lies in the level-raising images"
            elif weight_counts[big.weight[z]] != 1:
                uniq_bad = uniq_bad or f"f_0 image of {big.element_id(b)} is not unique of its weight"
        return [
            CheckResult("vanishing-criterion", "f0-landing", not kill_bad, len(self.complement), kill_bad),
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
