"""Graph construction, structural checks, and the two export formats."""

import copy
import dataclasses
import gc
import json
import math
import pickle
import tracemalloc
from collections import Counter
from functools import cache, partial
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from adjcrys import affine_a, affine_c, affine_d2, crystal_graph
from adjcrys.affine_a import CrystalA
from adjcrys.affine_c import CrystalC
from adjcrys.affine_d2 import CrystalD2
from adjcrys.cli import FORK_MIN_ELEMENTS, main
from adjcrys.crystal_graph import (
    OUTSIDE,
    UNDEFINED,
    CrystalGraph,
    Edge,
    Vertex,
    all_passed,
    axiom_checks,
    build_graph,
    OperatorTable,
    check_commutation,
    check_embedding,
    check_map,
    compile_map,
    export,
    render_report,
    stream_graph,
)
from helpers import (
    ClassicalCrystal,
    reference_chain_lengths,
    reference_check_commutation,
    reference_check_embedding,
    reference_check_map,
    reference_connected,
    reference_dot,
    reference_image_equality,
    reference_stats_check,
)


def graph_as_dict(graph: CrystalGraph) -> dict:
    """The value the JSON export lays out."""
    return {
        "family": graph.family,
        "rank": graph.rank,
        "level": graph.level,
        "nodes": [{"id": v.id, "k": v.k, "weight": list(v.weight)} for v in graph.vertices],
        "edges": [{"src": e.src, "dst": e.dst, "i": e.label} for e in graph.edges],
    }


def graph_from_json(data) -> CrystalGraph:
    """Rebuild a graph from exported JSON (bytes, str, or parsed dict)."""
    if isinstance(data, (bytes, str)):
        data = json.loads(data)
    vertices = tuple(
        Vertex(n["id"], n["k"], tuple(n["weight"])) for n in data["nodes"]
    )
    edges = tuple(Edge(e["src"], e["dst"], e["i"]) for e in data["edges"])
    return CrystalGraph(data["family"], data["rank"], data["level"], vertices, edges)


def test_letter_crystal_graph():
    graph = build_graph(ClassicalCrystal(2, (1,)))
    assert [v.id for v in graph.vertices] == ["T2:w=1", "T2:w=2", "T2:w=3"]
    assert [(e.src, e.dst, e.label) for e in graph.edges] == [
        ("T2:w=1", "T2:w=2", 1),
        ("T2:w=2", "T2:w=3", 2),
    ]


def test_level_zero_graphs_are_single_vertices():
    for model in (CrystalA(2, 0), CrystalC(2, 0), CrystalD2(2, 0)):
        graph = build_graph(model)
        assert len(graph.vertices) == 1
        assert graph.edges == ()


def test_c_level_one_graph_size():
    graph = build_graph(CrystalC(2, 1))
    assert len(graph.vertices) == 11


def test_counts_match_closed_forms_and_connectivity():
    for model in (
        CrystalA(2, 2), CrystalA(3, 2),
        CrystalC(2, 2), CrystalC(3, 2),
        CrystalD2(2, 2), CrystalD2(3, 2),
        ClassicalCrystal(2, (2, 1)),
    ):
        report = axiom_checks(model)
        assert all_passed(report), render_report(report)


def test_tableau_statistics_are_checked_against_the_table(monkeypatch):
    """The tableau's own eps/phi iterate on objects; the table's chain
    lengths are the other route, so a wrong phi_2 fails the comparison."""
    model = ClassicalCrystal(2, (2, 1))
    report = axiom_checks(model)
    assert [(c.name, c.cases) for c in report] == [
        ("ef-inverse", 32), ("stats-closed-vs-iteration", 16), ("weight-step", 16),
        ("element-count", 1), ("connected", 8),
    ]
    monkeypatch.setattr(model.kernel, "phi", lambda t, i, l: t.phi(i) + (i == 2))
    failed = [(c.name, c.details) for c in axiom_checks(model) if not c.passed]
    assert failed == [("stats-closed-vs-iteration", "closed statistics wrong at T2:w=1,1,2, i=2")]


def test_graph_calls_each_f_once_and_no_e(elemc_calls):
    model = CrystalC(2, 2)
    build_graph(model)
    assert elemc_calls == Counter(
        {("f", b, i): 1 for b in model.elements() for i in model.index_set}
    )


def test_graph_rejects_an_arrow_leaving_the_enumeration():
    class Dropped(CrystalC):
        def elements(self):
            return super().elements()[:-1]

    model = Dropped(2, 2)
    dropped = CrystalC(2, 2).elements()[-1]
    i, b = next(
        (i, b) for i in model.index_set for b in model.elements()
        if model.kernel.f(b, i, model.level) == dropped
    )
    with pytest.raises(ValueError) as err:
        build_graph(model)
    assert str(err.value) == f"f_{i} leaves the enumeration at {model.element_id(b)}"


def test_component_restriction():
    model = CrystalD2(2, 1, 1)
    graph = build_graph(model)
    assert len(graph.vertices) == 5
    assert all(v.k == 1 for v in graph.vertices)
    assert all(e.label in (1, 2) for e in graph.edges)
    assert all_passed(axiom_checks(model))


def test_dot_export():
    text = export(build_graph(ClassicalCrystal(2, (1,))), "dot").decode()
    assert text.startswith("digraph crystal {")
    assert '"T2:w=1" [label="T2:w=1\\nwt=(1,0,0) k=-"];' in text
    assert '"T2:w=1" -> "T2:w=2" [label="1"];' in text
    assert text.count("->") == 2


def test_empty_graph_exports():
    empty = CrystalGraph("c1", 2, 0, (), ())
    assert export(empty, "dot").decode() == "digraph crystal {\n}\n"
    assert graph_from_json(export(empty, "json")) == empty


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        export(CrystalGraph("c1", 2, 0, (), ()), "svg")
    with pytest.raises(ValueError):
        stream_graph(CrystalC(2, 0), "svg")


@pytest.mark.parametrize("batch", (1, 2, 4096))
def test_json_layout_matches_json_dumps(batch, monkeypatch):
    """The hand-written layout is that of json.dumps(..., indent=2), also
    for null k and level, empty lists, escaped ids and batch seams."""
    monkeypatch.setattr(crystal_graph, "_BATCH", batch)
    vertices = (
        Vertex('a"\\é', None, ()),
        Vertex("b", 3, (1, -2)),
        Vertex("c\n", 0, (0,)),
    )
    edges = (Edge("b", 'a"\\é', 0), Edge("b", "c\n", 12), Edge("c\n", "b", 1))
    for graph in (
        CrystalGraph("c1", 2, None, (), ()),
        CrystalGraph("d2", 3, 1, vertices, ()),
        CrystalGraph("a1", 4, 2, vertices, edges),
        CrystalGraph("a1", 4, 2, vertices[1:2], edges[:1]),
    ):
        obj = {
            "family": graph.family,
            "rank": graph.rank,
            "level": graph.level,
            "nodes": [{"id": v.id, "k": v.k, "weight": list(v.weight)} for v in graph.vertices],
            "edges": [{"src": e.src, "dst": e.dst, "i": e.label} for e in graph.edges],
        }
        assert export(graph, "json").decode() == json.dumps(obj, indent=2) + "\n"


MODELS = {"a1": CrystalA, "c1": CrystalC, "d2": CrystalD2}


@pytest.mark.parametrize("family", sorted(MODELS))
@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("l", range(4))
def test_streamed_bytes_match_export(family, n, l):
    """stream_graph gives export(build_graph(m), fmt) for the whole model and
    each component, in both formats: 168 cases over the parameters."""
    model = MODELS[family](n, l)
    for m in [model] + [MODELS[family](n, l, k) for k in range(l + 1)]:
        for fmt in ("json", "dot"):
            assert "".join(stream_graph(m, fmt)).encode() == export(build_graph(m), fmt)


# ids with quotes, backslashes, newlines, control and non-ASCII characters
# (one outside the BMP); k, weights and labels from small pools, so they repeat
ID_TEXT = st.text(st.sampled_from('ab"\\\n\t\x00\x7fé€\U0001f600'), max_size=4)
WEIGHTS = st.sampled_from([(), (0,), (1, -2), (1, -2, 0), (-3, 0, 3)])
KS = st.sampled_from([None, 0, 1, 3, -1])
LABELS = st.sampled_from([0, 1, 2, 12])


@st.composite
def graphs(draw) -> CrystalGraph:
    ids = draw(st.lists(ID_TEXT, unique=True, max_size=6))
    vertices = tuple(Vertex(i, draw(KS), draw(WEIGHTS)) for i in ids)
    edges = draw(st.lists(st.builds(Edge, st.sampled_from(ids), st.sampled_from(ids), LABELS),
                          max_size=12)) if ids else []
    return CrystalGraph(draw(st.sampled_from(["a1", "c1"])), draw(st.integers(0, 4)),
                        draw(st.none() | st.integers(0, 3)), vertices, tuple(edges))


@given(graphs())
def test_export_matches_the_reference_layouts_at_every_batch_size(graph):
    """JSON as json.dumps(..., indent=2) lays it out and DOT as one f-string
    per record, across batch seams; a second export gives the same bytes."""
    expected = {
        "json": (json.dumps(graph_as_dict(graph), indent=2) + "\n").encode(),
        "dot": reference_dot(graph),
    }
    for batch in (1, 2, 3, 4096):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(crystal_graph, "_BATCH", batch)
            for fmt, text in expected.items():
                assert export(graph, fmt) == text
                assert export(graph, fmt) == text


@pytest.mark.parametrize("batch", (1, 2, 3))
def test_streamed_bytes_match_the_reference_layouts_at_batch_seams(batch, monkeypatch):
    """Edge batches hold whole sources, and a batch of sources may have no
    arrow at all: the stream still gives the reference bytes."""
    monkeypatch.setattr(crystal_graph, "_BATCH", batch)
    for model in (CrystalA(2, 2), CrystalC(2, 1), CrystalD2(2, 1, 1), ClassicalCrystal(2, (2, 1))):
        graph = build_graph(model)
        assert "".join(stream_graph(model, "dot")).encode() == reference_dot(graph)
        assert "".join(stream_graph(model, "json")) == json.dumps(graph_as_dict(graph), indent=2) + "\n"


def test_export_formats_each_distinct_weight_once(monkeypatch):
    """Each export call makes one weight text per distinct weight, and the
    `a1` ids read at most comb(l+n, n) cached factor texts."""
    calls = Counter()

    def counted(helper):
        original = getattr(crystal_graph, helper)
        return lambda weight: calls.update([(helper, weight)]) or original(weight)

    for helper in ("_json_coords", "_fmt_weight"):
        monkeypatch.setattr(crystal_graph, helper, counted(helper))
    n, l = 3, 3
    model = CrystalA(n, l)
    affine_a._coords.cache_clear()
    weights = set(OperatorTable(model).weight)
    for fmt, helper in (("json", "_json_coords"), ("dot", "_fmt_weight")):
        for route in (lambda: "".join(stream_graph(model, fmt)), lambda: export(build_graph(model), fmt)):
            calls.clear()
            route()
            assert calls == Counter({(helper, w): 1 for w in weights})
    assert 0 < affine_a._coords.cache_info().currsize <= math.comb(l + n, n)


@pytest.mark.parametrize("crystal", [CrystalA, CrystalC, CrystalD2, affine_a.RowCrystal, affine_a.ColCrystal])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_table_holds_one_tuple_per_distinct_weight(crystal, n, l):
    """Equal weights share one object, and each is the kernel's weight of
    its value: every family's level table and both `a1` factor tables."""
    model = crystal(n, l)
    table = OperatorTable(model)
    assert len(set(map(id, table.weight))) == len(set(table.weight))
    assert table.weight == list(map(model.kernel.weight, table.elems))


ELEMENT_CLASSES = [  # (family module, class, enumerator, kernel)
    pytest.param(affine_a, "RowElem", "row_elements", "ROW_KERNEL", id="RowElem"),
    pytest.param(affine_a, "ColElem", "col_elements", "COL_KERNEL", id="ColElem"),
    pytest.param(affine_a, "AdjElemA", "elements", "KERNEL", id="AdjElemA"),
    pytest.param(affine_c, "ElemC", "elements", "KERNEL", id="ElemC"),
    pytest.param(affine_d2, "ElemD", "elements", "KERNEL", id="ElemD"),
]


@pytest.mark.parametrize("module, name, enumerator, kernel", ELEMENT_CLASSES)
@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("l", (0, 1, 2))
def test_element_classes_call_the_kernel(module, name, enumerator, kernel, n, l):
    """An enumerated element is each kernel value at the level, and its
    `e`/`f` are the kernel's at that level on every label."""
    kernel = getattr(module, kernel)
    elements = getattr(module, enumerator)(n, l)
    assert {type(b) for b in elements} == {getattr(module, name)}
    assert [(b.value, b.level) for b in elements] == [(v, l) for v in kernel.values(n, l)]
    for b in elements:
        for i in range(n + 1):
            for direction in ("e", "f"):
                want = getattr(kernel, direction)(b.value, i, l)
                assert getattr(b, direction)(i) == (None if want is None else type(b)(want, l))


@pytest.mark.parametrize("module, name, enumerator, kernel", ELEMENT_CLASSES)
def test_element_classes_own_their_traced_methods_and_pickle(module, name, enumerator, kernel):
    """The benchmark's tracer patches `e`, `f` and `__post_init__` in each
    class's own namespace; pickle finds the class in its family module."""
    cls = getattr(module, name)
    assert {"e", "f", "__post_init__"} <= set(vars(cls))
    assert (cls.__module__, cls.__qualname__) == (module.__name__, name)
    elements = getattr(module, enumerator)(2, 2)
    assert [pickle.loads(pickle.dumps(b)) for b in elements] == elements
    assert repr(elements[0]).startswith(f"{name}(value=")


def test_json_round_trip():
    for model in (CrystalC(2, 1), CrystalA(2, 1), CrystalD2(2, 1)):
        graph = build_graph(model)
        assert graph_from_json(export(graph, "json")) == graph


def test_export_determinism():
    first = export(build_graph(CrystalA(3, 2)), "json")
    second = export(build_graph(CrystalA(3, 2)), "json")
    assert first == second
    assert export(build_graph(CrystalA(3, 2)), "dot") == export(build_graph(CrystalA(3, 2)), "dot")


def test_check_embedding_accepts_true_embeddings():
    small, big = OperatorTable(CrystalA(2, 1)), OperatorTable(CrystalA(2, 2))
    result = check_embedding(
        small, big, compile_map(small, big, affine_a.SPEC.include), (0, 1, 2),
        name="theta1", category="embedding",
    )
    assert result.passed
    small_c, big_c = OperatorTable(CrystalC(2, 1)), OperatorTable(CrystalC(2, 2))
    result = check_embedding(
        small_c, big_c, compile_map(small_c, big_c, affine_c.SPEC.include), (0, 1, 2),
        name="inclusion", category="embedding",
    )
    assert result.passed


def test_check_embedding_flags_corrupted_map():
    # identity inclusion with two images swapped: some arrow must break
    small, big = OperatorTable(CrystalC(2, 1)), OperatorTable(CrystalC(2, 2))
    a = (2, 0, 0, 0)
    b = (0, 0, 0, 2)

    def corrupted(wide):
        if wide == a:
            return b
        if wide == b:
            return a
        return wide

    result = check_embedding(
        small, big, compile_map(small, big, corrupted), (0, 1, 2),
        name="corrupted", category="embedding",
    )
    assert not result.passed
    assert result.details


def test_check_embedding_flags_noninjective_map():
    small, big = OperatorTable(CrystalC(2, 1)), OperatorTable(CrystalC(2, 2))
    collapse = lambda x: (0, 0, 0, 0)
    result = check_embedding(
        small, big, compile_map(small, big, collapse), (0,),
        name="collapse", category="embedding",
    )
    assert not result.passed and "injective" in result.details


def test_check_commutation_side_conditions():
    small, big = OperatorTable(CrystalC(2, 1)), OperatorTable(CrystalC(2, 2))
    phi1 = compile_map(small, big, lambda x: affine_c.SPEC.raise_map(1, x))
    strict = check_commutation(small, big, phi1, (0,), False, name="affine", category="commute")
    assert strict.passed
    # the classical operators only commute where defined; the unconditional
    # variant must fail (phi_1 creates room for f_1 where there was none)
    loose = check_commutation(
        small, big, phi1, (1,), False, name="classical-unconditional", category="commute")
    assert not loose.passed


def test_images_ignore_level_map_values_outside_the_table():
    """A level-map value missing from the level-l table (here a value far
    above the level, with the code OUTSIDE) marks no element, so the
    complement is the one a set of the image codes gives.  No level map of
    `c1` n=2 l=2 hits its second-to-last element, where index -2 would land."""
    original = affine_c.SPEC.raise_map
    spec = affine_c.SPEC._replace(raise_map=lambda j, x: (9,) * len(x) if j == 1 else original(j, x))
    big = OperatorTable(CrystalC(2, 2))
    run = crystal_graph.TheoremRun(spec, 2, 2, big)
    codes = {c for *_, imap in run.level_maps for c in imap}
    expected = [b for b in range(len(big.elems)) if b not in codes]
    assert OUTSIDE in codes and len(big.elems) - 2 in expected
    assert run.complement == expected


@st.composite
def rows(draw, count=1):
    """`count` random rows on one index set: entries UNDEFINED, OUTSIDE or
    any index, so cycles, trees feeding into cycles and several arrows into
    one index all occur, next to rows shaped like crystal strings."""
    size = draw(st.integers(0, 24))
    entry = st.sampled_from((UNDEFINED, OUTSIDE) + tuple(range(size)))
    out = []
    for _ in range(count):
        if size and draw(st.booleans()):  # strings: a permutation cut into chains
            order = draw(st.permutations(range(size)))
            ends = draw(st.lists(st.sampled_from((UNDEFINED, OUTSIDE)), min_size=size,
                                 max_size=size))
            cuts = draw(st.lists(st.booleans(), min_size=size, max_size=size))
            row = [UNDEFINED] * size
            for k, b in enumerate(order):
                last = k + 1 == size or cuts[k]
                row[b] = ends[k] if last else order[k + 1]
        else:
            row = draw(st.lists(entry, min_size=size, max_size=size))
        out.append(tuple(row))
    return out


@given(rows())
@example([(OUTSIDE, 0)])  # index 1 walks to 0 and then leaves the enumeration
@example([(0, 0)])  # a self-loop at 0, and index 1 feeding into it
@example([(OUTSIDE,) + tuple(range(499))])  # 500 steps from the last index, one per entry
def test_chain_lengths_match_the_reference(drawn):
    (row,) = drawn
    expected = [None if n == -4 else n for n in reference_chain_lengths(row)]  # -4 marks a cycle
    assert [crystal_graph._chain_length(row, b) for b in range(len(row))] == expected


STAT_MODELS = {"a1": partial(CrystalA, 2, 2), "c1": partial(CrystalC, 2, 2)}


@cache
def _stat_table(family):
    """The family's table, shared by every example."""
    return OperatorTable(STAT_MODELS[family]())


@st.composite
def stat_offsets(draw):
    """A family and up to three (element, label, statistic, offset) changes
    of its closed statistics."""
    family = draw(st.sampled_from(sorted(STAT_MODELS)))
    table = _stat_table(family)
    change = st.tuples(st.integers(0, len(table.elems) - 1), st.sampled_from(table.labels),
                       st.sampled_from(("eps", "phi")), st.sampled_from((-2, -1, 1, 2)))
    return family, draw(st.lists(change, max_size=3))


@given(stat_offsets())
def test_stats_check_matches_the_reference_rule(drawn):
    family, changes = drawn
    table = _stat_table(family)
    model = copy.copy(table.model)
    shift = Counter()
    for b, i, stat, offset in changes:
        shift[table.elems[b], i, stat] += offset
    model.kernel = dataclasses.replace(model.kernel, **{
        stat: lambda value, i, l, closed=getattr(model.kernel, stat), stat=stat:
            closed(value, i, l) + shift[value, i, stat]
        for stat in ("eps", "phi")})
    (line,) = [c for c in axiom_checks(model, table) if c.name == "stats-closed-vs-iteration"]
    assert (line.passed, line.cases, line.details) == reference_stats_check(model, table)


@st.composite
def embeddings(draw):
    """A fake domain and target table, labels and an index map: the target
    rows follow the domain's through the map, an absent arrow staying
    absent or leaving the image, and then up to two entries of the target
    rows or of the map are drawn afresh."""
    labels = (0, 1)[:draw(st.integers(1, 2))]
    keys = [(d, i) for i in labels for d in ("f", "e")]
    inner = dict(zip(keys, draw(rows(len(keys)))))
    size = len(inner[keys[0]])
    width = size + draw(st.integers(0, 3))
    imap = draw(st.permutations(range(width)))[:size]
    code = st.sampled_from((UNDEFINED, OUTSIDE) + tuple(range(width)))
    off = st.sampled_from((UNDEFINED, OUTSIDE) + tuple(c for c in range(width) if c not in imap))
    outer = {key: [draw(code) for _ in range(width)] for key in keys}
    for key, row in inner.items():
        for b, a in enumerate(row):
            outer[key][imap[b]] = imap[a] if a >= 0 else draw(off)
    for _ in range(draw(st.integers(0, 2))):
        changed = draw(st.sampled_from([imap] + list(outer.values())))
        if changed:
            changed[draw(st.integers(0, len(changed) - 1))] = draw(code)

    def table(rows_by_key, n):
        return SimpleNamespace(elems=range(n), indices=list(range(n)), element_id=str,
                               row=lambda d, i: tuple(rows_by_key[d, i]))

    return table(inner, size), table(outer, width), imap, labels


@given(embeddings())
def test_check_embedding_matches_the_reference(drawn):
    domain, target, imap, labels = drawn
    assert check_embedding(domain, target, imap, labels, name="n", category="c") == (
        reference_check_embedding(domain, target, imap, labels, name="n", category="c"))


@given(embeddings(), st.data())
def test_map_checks_match_the_references(drawn, data):
    """`check_commutation` at both settings, and `check_map` on a column
    through the map, equal the references, negative codes in the map included."""
    domain, target, imap, labels = drawn
    for only_when_defined in (False, True):
        args = (domain, target, imap, labels, only_when_defined)
        assert check_commutation(*args, name="n", category="c") == (
            reference_check_commutation(*args, name="n", category="c"))
    column = [c // 2 for c in target.indices]
    expected = [c // 2 for c in imap]
    if expected and data.draw(st.booleans()):
        expected[data.draw(st.integers(0, len(expected) - 1))] += 1
    result = check_map(domain, imap, column, expected, "at {}", name="n", category="c")
    assert result == reference_check_map(
        domain, imap, lambda b, c: column[c] == expected[b], "at {}", name="n", category="c")


def test_check_map_fails_at_a_negative_code_without_reading_it():
    """OUTSIDE is not read as a position from the end of the column, so a
    one-index target fails at the code and raises no IndexError."""
    domain = SimpleNamespace(indices=[0, 1, 2], element_id=str)
    result = check_map(domain, [0, OUTSIDE, 0], [5], [5, 5, 6], "at {}", name="n", category="c")
    assert result == crystal_graph.CheckResult("n", "c", False, 3, "at 1")


EMBEDDINGS = {"a1": (CrystalA, affine_a.SPEC.include), "c1": (CrystalC, affine_c.SPEC.include)}


@cache
def _embedding_tables(family):
    model, include = EMBEDDINGS[family]
    small, big = OperatorTable(model(2, 1)), OperatorTable(model(2, 2))
    return small, big, compile_map(small, big, include)


@given(st.sampled_from(sorted(EMBEDDINGS)),
       st.sampled_from(("swap", "off-image", "outside", "collide", "vanish")), st.data())
def test_check_embedding_matches_the_reference_on_corrupted_maps(family, corruption, data):
    """`check_embedding`, `check_commutation` as the level maps' and theta_1's
    checks call it, and `check_map` on the component and weight columns
    equal the references on a map with one corruption; "vanish" is a map
    that returns None."""
    small, big, true_map = _embedding_tables(family)
    imap = list(true_map)
    a, b = (data.draw(st.integers(0, len(imap) - 1)) for _ in range(2))
    if corruption == "swap":
        imap[a], imap[b] = imap[b], imap[a]
    elif corruption == "off-image":
        imap[b] = data.draw(st.sampled_from([c for c in big.indices if c not in true_map]))
    elif corruption == "outside":
        imap[b] = OUTSIDE
    elif corruption == "vanish":
        imap[b] = UNDEFINED
    else:
        imap[b] = imap[a]
    labels = big.labels
    result = check_embedding(small, big, imap, labels, name="n", category="c")
    assert result == reference_check_embedding(small, big, imap, labels, name="n", category="c")
    assert result.passed == (imap == true_map)
    for labels, only_when_defined in ((labels[1:], False), (labels[1:], True), ((0,), False), ((0,), True)):
        args = (small, big, imap, labels, only_when_defined)
        assert check_commutation(*args, name="n", category="c") == (
            reference_check_commutation(*args, name="n", category="c"))
    for column in ("comp", "weight"):
        inner, outer = getattr(small, column), getattr(big, column)
        assert check_map(small, imap, outer, inner, "at {}", name="n", category="c") == reference_check_map(
            small, imap, lambda b, c: outer[c] == inner[b], "at {}", name="n", category="c")


HALF = 12
HALVES = tuple(b // HALF * HALF + (b + 1) % HALF for b in range(2 * HALF))  # two cycles
STAR = 12


@given(st.integers(1, 3).flatmap(lambda k: rows(k)))
@example([(UNDEFINED,) + tuple(range(499))])  # a long path, each arrow to the index below
@example([HALVES, (HALF,) + (UNDEFINED,) * (2 * HALF - 1)])  # joined only by the last row
@example([HALVES, (UNDEFINED,) * (2 * HALF)])  # never joined
@example([(k,) + (UNDEFINED,) * STAR for k in range(1, STAR + 1)])  # a star, one row per leaf
def test_connected_matches_the_reference(drawn):
    size = len(drawn[0])
    table = SimpleNamespace(elems=range(size), indices=list(range(size)), f=dict(enumerate(drawn)))
    assert crystal_graph._connected(table) == reference_connected(table)


def _traced_peak(call):
    """The result of `call()` and the tracemalloc peak of the call.  As in
    `test_alpha_checks_memory_per_element`, a full collection first empties
    the free lists, and none runs during the measured call."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    return result, peak


def test_connected_memory_per_element():
    """`_connected` holds one pointer per element: its parent list copies the
    table's shared indices and stores only entries of the rows.  Per element
    of `c1` n=4 l=5, the tracemalloc peak read 8 B, against 40 B with a
    parent list of fresh ints and 239 B with adjacency lists and a
    breadth-first search (Python 3.11)."""
    table = OperatorTable(CrystalC(4, 5))
    connected, peak = _traced_peak(lambda: crystal_graph._connected(table))
    assert connected
    assert peak / len(table.elems) < 16


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_stream_graph_memory_per_element(fmt):
    """The export holds the f rows, components, weights, tokens and two
    orders of the shared indices, not the table's value -> index dict, and
    never the values and the ids at once.  Per element of `c1` n=4 l=5, the
    tracemalloc peak of a whole export read 284/281 B (json/dot); 315/281 B
    with batches of 4096 records, 330 B with the ids built while the values
    lived as well, 375/362 B with orders of fresh ints, 385 B with the table
    held through the ids, and 442 B with both (Python 3.11)."""
    model = CrystalC(4, 5)
    size, peak = _traced_peak(lambda: sum(map(len, stream_graph(model, fmt))))
    assert size > 0
    assert peak / len(model.elements()) < 300


class LoggedC(CrystalC):
    """`CrystalC` that logs each `sort_key` and `element_id` call, in order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []

    def sort_key(self, b):
        self.calls.append("sort_key")
        return super().sort_key(b)

    def element_id(self, b):
        self.calls.append("element_id")
        return super().element_id(b)


@pytest.mark.parametrize("run", [lambda m: "".join(stream_graph(m, "json")), build_graph],
                         ids=["stream_graph", "build_graph"])
def test_export_takes_the_node_order_before_any_id(run):
    """The values and the ids never all exist at once: every `sort_key` call
    comes before the first `element_id` call, in the stream and the graph
    alike, and each runs once per element."""
    model = LoggedC(3, 3)
    run(model)
    size = len(model.elements())
    assert model.calls == ["sort_key"] * size + ["element_id"] * size


@pytest.mark.parametrize("spec", [affine_a.SPEC, affine_c.SPEC, affine_d2.SPEC])
def test_table_entries_are_its_shared_indices(spec):
    """Every entry of every f/e row and of an index map that names an
    element is the table's own int object for that index, so lists built
    from them hold pointers, not new ints."""
    small, big = OperatorTable(spec.model(3, 3)), OperatorTable(spec.model(3, 4))
    assert big.indices == list(range(len(big.elems)))
    rows = [*big.f.values(), *big.e.values(), compile_map(small, big, spec.include)]
    entries = [c for row in rows for c in row if c >= 0]
    assert len(entries) > len(big.elems)
    assert all(c is big.indices[c] for c in entries)


BOUNDARY_RUNS = {
    family: crystal_graph.TheoremRun(spec, n, l, OperatorTable(spec.model(n, l)))
    for family, spec, n, l in (("a1", affine_a.SPEC, 2, 2), ("c1", affine_c.SPEC, 2, 2),
                               ("d2", affine_d2.SPEC, 2, 3))
}


@pytest.mark.parametrize("check", ["boundary", "multiplicity", "all"])
def test_verify_reads_the_shell_of_each_distinct_weight_once(check, monkeypatch, capsys):
    """`verify --check boundary`, `multiplicity`, and `all`, whose boundary,
    multiplicity and f_0 landing sections all read the shell masks, call
    `shell` once per distinct level-l weight, not once per element, and the
    report still passes."""
    calls = Counter()
    original = crystal_graph.shell
    monkeypatch.setattr(crystal_graph, "shell",
                        lambda family, coords: calls.update([coords]) or original(family, coords))
    assert main(["verify", "--family", "c1", "--rank", "3", "--level", "3", "--check", check]) == 0
    assert " 0 failed" in capsys.readouterr().out
    table = OperatorTable(CrystalC(3, 3))
    assert len(table.elems) < FORK_MIN_ELEMENTS  # so no section ran in a forked child, out of sight
    assert len(set(table.weight)) < len(table.elems)
    assert calls == Counter(dict.fromkeys(table.weight, 1))


def _with_level_maps(run, maps):
    moved = copy.copy(run)
    moved.level_maps = maps
    return moved


def _image_equality(run) -> tuple[int, str]:
    (check, *_) = run.boundary_checks()
    assert check.passed == (not check.details)
    return check.cases, check.details


@st.composite
def moved_level_maps(draw):
    """A theorem run whose level maps, and perhaps a copy of one with its
    step raised by 0 or 1, send up to three entries each to another code:
    UNDEFINED, OUTSIDE or any level-l index.  So an index is hit from a
    wrong component, hit twice or not at all."""
    run = BOUNDARY_RUNS[draw(st.sampled_from(sorted(BOUNDARY_RUNS)))]
    maps = list(run.level_maps)
    if draw(st.booleans()):
        j, step, domain, imap = draw(st.sampled_from(maps))
        maps.append((j, step + draw(st.integers(0, 1)), domain, imap))
    code = st.sampled_from((UNDEFINED, OUTSIDE) + tuple(run.big.indices))
    moved = []
    for j, step, domain, imap in maps:
        imap = list(imap)
        for b, c in draw(st.lists(st.tuples(st.integers(0, len(imap) - 1), code), max_size=3)):
            imap[b] = c
        moved.append((j, step, domain, imap))
    return _with_level_maps(run, moved)


@given(moved_level_maps())
def test_image_equality_matches_the_reference_sets(run):
    assert _image_equality(run) == reference_image_equality(run)


@pytest.mark.parametrize("family", sorted(BOUNDARY_RUNS))
def test_image_equality_fails_where_the_reference_sets_differ(family):
    """Level maps that leave the table or hit one index from two components
    give the reference sets' cases and first failing component.  The moves:
    one source of the highest component sent OUTSIDE; a source of the
    lowest and one of the highest sent to each other's image; a copy of the
    last map with its step raised, so every index it hits is in the wrong
    component.  Then a copy whose entries of component comp[-1] are
    UNDEFINED (comp[-2], OUTSIDE): in `d2` the last two indices are hit
    inner indices, so a mask that read a negative code as an index would
    miss the failure there."""
    run = BOUNDARY_RUNS[family]
    assert _image_equality(run) == reference_image_equality(run)
    assert not _image_equality(run)[1]
    big, (j, step, domain, imap) = run.big, run.level_maps[-1]
    by_k = {domain.comp[b] + step: b for b in reversed(range(len(imap)))}  # each k's first source
    low, high = min(by_k), max(by_k)
    assert low < high <= run.l
    failing = []
    for b, c in ((by_k[high], OUTSIDE), (by_k[high], imap[by_k[low]]), (by_k[low], imap[by_k[high]])):
        moved = list(imap)
        moved[b] = c
        failing.append(run.level_maps[:-1] + [(j, step, domain, moved)])
    failing.append(run.level_maps + [(j, step + 1, domain, imap)])
    for maps in failing:
        moved_run = _with_level_maps(run, maps)
        cases, detail = _image_equality(moved_run)
        assert (cases, detail) == reference_image_equality(moved_run)
        assert detail.startswith("image description fails in component k=")
    for code in (UNDEFINED, OUTSIDE):
        coded = [code if k == big.comp[code] else c
                 for k, c in zip(map(step.__add__, domain.comp), imap)]
        moved_run = _with_level_maps(run, run.level_maps + [(j, step, domain, coded)])
        assert _image_equality(moved_run) == reference_image_equality(moved_run)
        assert bool(_image_equality(moved_run)[1]) == (coded != imap)
