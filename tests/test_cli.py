"""Command-line behavior: output shapes, exit codes, determinism."""

import functools
import hashlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from adjcrys import cli
from adjcrys.cli import FAMILIES, SIZE_LIMIT, _too_large, family_module, main

GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())["outputs"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_graph_json_c2_level1(capsys):
    code, out = run_cli(
        capsys, "graph", "--family", "c1", "--rank", "2", "--level", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "c1"
    assert payload["rank"] == 2 and payload["level"] == 1
    assert len(payload["nodes"]) == 11
    assert {"id", "k", "weight"} == set(payload["nodes"][0])
    assert {"src", "dst", "i"} == set(payload["edges"][0])


def test_graph_dot_single_vertex(capsys):
    code, out = run_cli(
        capsys, "graph", "--family", "a1", "--rank", "2", "--level", "0",
        "--format", "dot",
    )
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert out.count("label=") == 1  # one node, no edges


def test_graph_component_d2(capsys):
    code, out = run_cli(
        capsys, "graph", "--family", "d2", "--rank", "2", "--level", "1",
        "--component", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 5
    assert all(node["k"] == 1 for node in payload["nodes"])


def test_graph_out_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code, out = run_cli(
        capsys, "graph", "--family", "c1", "--rank", "2", "--level", "1",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    assert len(json.loads(target.read_text())["nodes"]) == 11


def test_verify_all_families_pass(capsys):
    for family in ("a1", "c1", "d2"):
        code, out = run_cli(
            capsys, "verify", "--family", family, "--rank", "2", "--level", "2",
            "--check", "all",
        )
        assert code == 0, out
        assert "FAIL" not in out
        assert "result:" in out


def test_verify_single_check(capsys):
    code, out = run_cli(
        capsys, "verify", "--family", "c1", "--rank", "2", "--level", "3",
        "--check", "f0-landing",
    )
    assert code == 0
    assert "f0-landing/vanishing-criterion" in out
    assert "axioms/" not in out


@functools.lru_cache(maxsize=None)
def _full_report(family, n, l):
    return tuple(cli._verification_report(family, n, l, "all"))


@pytest.mark.parametrize("family, n, check", [
    (family, n, check)
    for family, ranks in (("a1", (1, 2)), ("c1", (2,)), ("d2", (1, 2)))
    for n in ranks
    for check in cli.CHECK_NAMES[1:]
    if family == "a1" or check not in cli.A1_ONLY_CHECKS
])
@pytest.mark.parametrize("l", range(4))
def test_single_check_is_a_filter_of_all(family, n, check, l):
    """`--check <category>` reports exactly the `all` report's entries of
    that category, at rank 1 and at levels whose lower tables are empty."""
    expected = [c for c in _full_report(family, n, l) if c.category == check]
    assert expected
    assert cli._verification_report(family, n, l, check) == expected


def test_verify_unknown_check_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--family", "c1", "--rank", "2", "--level", "1",
              "--check", "nonsense"])
    assert err.value.code == 2


def test_verify_inapplicable_check_is_usage_error(capsys):
    code = main(["verify", "--family", "c1", "--rank", "2", "--level", "1",
                 "--check", "promotion"])
    assert code == 2


def test_invalid_rank_and_level(capsys):
    assert main(["graph", "--family", "c1", "--rank", "1", "--level", "1"]) == 2
    assert main(["graph", "--family", "c1", "--rank", "2", "--level", "-1"]) == 2
    assert main(["graph", "--family", "c1", "--rank", "2", "--level", "1",
                 "--component", "5"]) == 2


@pytest.mark.parametrize("argv", [
    ["apply", "--family", "a1", "--level", "1", "--start", "highest-of"],
    ["apply", "--family", "d2", "--level", "1", "--start", "highest-of"],
    ["verify", "--family", "c1", "--level", "1", "--force"],
    ["graph", "--family", "d2", "--level", "0", "--force"],
])
def test_huge_rank_exits_2_before_any_tuple(argv, capsys):
    """A rank whose values could not fit in memory is refused with one line
    before any tuple is built; this one used to end in an OverflowError
    traceback.  No smaller huge rank is tried: it would allocate its tuple."""
    rank = "99999999999999999999"
    assert main([*argv, "--rank", rank]) == 2
    assert capsys.readouterr() == ("", f"error: rank must be at most {cli.MAX_RANK}, got {rank}\n")


def test_size_guard_requires_force(capsys):
    # rank 3, level 40 gives far more than 10^6 elements
    assert main(["graph", "--family", "a1", "--rank", "3", "--level", "40"]) == 2


@pytest.mark.parametrize("family", ["a1", "c1", "d2"])
def test_size_guard_refuses_huge_instances_quickly(family):
    """The guard decides without forming the exact count, which here has
    tens of thousands of digits: one stderr line and exit 2, no traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "adjcrys", "verify", "--family", family,
         "--rank", "100000", "--level", "100000"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: crystal has more than {SIZE_LIMIT} elements; pass --force to proceed\n"


def test_size_guard_agrees_with_the_closed_forms():
    for family, module in ((f, family_module(f)) for f in FAMILIES):
        for n in range(2 if family == "c1" else 1, 10):
            for l in range(60):
                assert _too_large(family, n, l) == (module.expected_size(n, l) > SIZE_LIMIT), (
                    family, n, l)


def test_force_skips_the_size_guard(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("size computed under --force")

    monkeypatch.setattr(cli, "_too_large", refuse)
    assert main(["verify", "--family", "c1", "--rank", "2", "--level", "1", "--force"]) == 0


def test_apply_runs_beyond_the_size_guard(capsys, monkeypatch):
    """apply walks one word from one value, so no size guard runs."""
    def refuse(*args):
        raise AssertionError("size computed for apply")

    monkeypatch.setattr(cli, "_too_large", refuse)
    code, out = run_cli(
        capsys, "apply", "--family", "c1", "--rank", "2", "--level", "1000",
        "--start", "highest-of", "--word", "f1",
    )
    assert code == 0
    assert out == "(2000,0,0,0)\n(1999,1,0,0)\n"
    assert main(["apply", "--family", "c1", "--rank", "1", "--level", "1000",
                 "--start", "highest-of"]) == 2
    assert main(["apply", "--family", "c1", "--rank", "2", "--level", "-1",
                 "--start", "highest-of"]) == 2
    assert main(["apply", "--family", "c1", "--rank", "2", "--level", "1000",
                 "--start", "highest-of", "--k", "1001"]) == 2


def test_apply_zero_node_step(capsys):
    code, out = run_cli(
        capsys, "apply", "--family", "c1", "--rank", "2", "--level", "1",
        "--start", "0,0,0,0", "--word", "f0",
    )
    assert code == 0
    assert out == "(0,0,0,0)\n(2,0,0,0)\n"


def test_apply_empty_word_echoes(capsys):
    code, out = run_cli(
        capsys, "apply", "--family", "c1", "--rank", "2", "--level", "1",
        "--start", "(0,1,0,1)", "--word", "",
    )
    assert code == 0
    assert out == "(0,1,0,1)\n"


def test_apply_d2_two_steps(capsys):
    code, out = run_cli(
        capsys, "apply", "--family", "d2", "--rank", "2", "--level", "1",
        "--start", "0,0,0,0,0", "--word", "f0 f1",
    )
    assert code == 0
    assert out == "(0,0,0,0,0)\n(1,0,0,0,0)\n(0,1,0,0,0)\n"


def test_apply_prints_zero_and_stops(capsys):
    code, out = run_cli(
        capsys, "apply", "--family", "a1", "--rank", "2", "--level", "1",
        "--start", "highest-of", "--k", "0", "--word", "f0 f0 f1",
    )
    assert code == 0
    assert out == "(1,0,0,1,0,0)\n(1,0,0,0,0,1)\n0\n"


def test_apply_parse_failures(capsys):
    assert main(["apply", "--family", "c1", "--rank", "2", "--level", "1",
                 "--start", "0,0,0", "--word", "f0"]) == 2
    assert main(["apply", "--family", "c1", "--rank", "2", "--level", "1",
                 "--start", "0,0,0,1", "--word", "f0"]) == 2  # odd sum
    assert main(["apply", "--family", "c1", "--rank", "2", "--level", "1",
                 "--start", "0,0,0,0", "--word", "g1"]) == 2
    assert main(["apply", "--family", "c1", "--rank", "2", "--level", "1",
                 "--start", "0,0,0,0", "--word", "f9"]) == 2


@pytest.mark.parametrize("token", ["f\u00b2", "f\u0663", "e1\u0663", "f\uff11"])
def test_apply_takes_ascii_digits_only(capsys, token):
    """A superscript, Arabic-Indic or fullwidth digit is not an index:
    str.isdigit() accepts each, and int() reads some of them."""
    assert main(["apply", "--family", "a1", "--rank", "2", "--level", "2",
                 "--start", "highest-of", "--word", token]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot parse operator token {token!r}\n"


NOT_INTEGERS = ["٢", "２", "1_0", "+2", " 2", "2 ", "", "-", "--2", "2.0", "0x2"]


@pytest.mark.parametrize("option", ["--rank", "--level", "--k", "--component"])
@pytest.mark.parametrize("text", NOT_INTEGERS)
def test_integer_options_take_ascii_digits_only(capsys, option, text):
    """int() reads '٢', '1_0', '+2' and ' 2'; an option takes an optional
    '-' and ASCII digits only, and any other form is a parse error."""
    arg = f"{option}={text}"  # one token, so '-' and '--2' are not taken for options
    argv = {"--rank": ["verify", "--family", "a1", arg, "--level", "1"],
            "--level": ["verify", "--family", "a1", "--rank", "2", arg],
            "--k": ["apply", "--family", "a1", "--rank", "2", "--level", "1",
                    "--start", "highest-of", arg],
            "--component": ["graph", "--family", "a1", "--rank", "2", "--level", "1", arg]}
    with pytest.raises(SystemExit) as exit_:
        main(argv[option])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: invalid integer value: {text!r}" in captured.err


@pytest.mark.parametrize("text", NOT_INTEGERS)
def test_apply_start_coordinates_take_ascii_digits_only(capsys, text):
    start = f"1,{text},0,1,0,0"  # inside the text, which is stripped of spaces first
    assert main(["apply", "--family", "a1", "--rank", "2", "--level", "1",
                 f"--start={start}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot parse coordinates from {start!r}\n"


def test_integer_options_keep_the_minus_sign(capsys):
    """A leading '-' parses, so a negative level meets its range check."""
    assert main(["verify", "--family", "a1", "--rank", "2", "--level", "-1"]) == 2
    assert capsys.readouterr().err == "error: level must be >= 0, got -1\n"
    assert cli.integer("-12") == -12 and cli.integer("007") == 7


@pytest.mark.parametrize("start", ["0,0,0,0", "2,0,0,0"])
def test_apply_rejects_an_out_of_range_index_from_every_start(capsys, start):
    """The word is checked before the walk, so an operator that vanishes
    earlier (f0 on 2,0,0,0) does not hide a bad index after it."""
    assert main(["apply", "--family", "c1", "--rank", "2", "--level", "1",
                 "--start", start, "--word", "f0 f9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: operator index 9 out of range 0..2\n"

@pytest.mark.parametrize("family", ["a1", "c1", "d2"])
def test_apply_start_takes_every_element_id(capsys, family):
    """Any id a failure message prints replays through apply."""
    kernel = family_module(family).KERNEL
    common = ["apply", "--family", family, "--rank", "2", "--level", "2", "--word", ""]
    for b in kernel.values(2, 2):
        coords = b[0] + b[1] if family == "a1" else b
        assert main(common + ["--start", ",".join(map(str, coords))]) == 0
        by_coords = capsys.readouterr().out
        assert main(common + ["--start", kernel.element_id(b, 2)]) == 0
        assert capsys.readouterr().out == by_coords


@pytest.mark.parametrize("family, start", [
    ("c1", "A1:x=0,2;y=0,2"),  # an a1 id of rank 1 with the coordinate count of c1 rank 2
    ("c1", "C3:x=0,0;xb=0,0"),
    ("c1", "C2:x=0,0;y=0,0"),
    ("d2", "B2:x=0,0;x0=0;xb=0,0"),
    ("d2", "D2:x=0,0;xb=0;x0=0,0"),
    ("a1", "A2:y=2,0,0;x=2,0,0"),
])
def test_apply_rejects_the_id_of_another_family_or_rank(capsys, family, start):
    code = main(["apply", "--family", family, "--rank", "2", "--level", "2", "--start", start])
    assert code == 2
    assert capsys.readouterr().err == f"error: {start!r} is not the id of a {family} rank-2 element\n"


def test_apply_rejects_an_id_of_another_coordinate_count(capsys):
    assert main(["apply", "--family", "c1", "--rank", "2", "--level", "2",
                 "--start", "C3:x=0,0,0;xb=0,0,0"]) == 2
    assert capsys.readouterr().err == "error: expected 4 coordinates, got 6\n"


@pytest.mark.parametrize("family, start", [
    ("a1", "1,0,0,2,0,0"),  # the row factor at level 1
    ("a1", "2,0,-1,1,1,0"),
    ("c1", "0,0,0,1"),  # odd sum
    ("c1", "2,2,2,0"),  # sum beyond 2l
    ("c1", "-2,0,0,2"),
    ("d2", "0,0,2,0,0"),  # x_0 beyond {0, 1}
    ("d2", "1,1,1,0,0"),  # sum beyond l
    ("d2", "D2:x=0,0;x0=2;xb=0,0"),
])
def test_apply_rejects_a_start_that_is_not_an_element(capsys, family, start):
    code = main(["apply", "--family", family, "--rank", "2", "--level", "2", f"--start={start}"])
    assert code == 2
    assert capsys.readouterr().err == "error: coordinates do not describe a level-2 element\n"


def test_verify_exit_one_on_check_failure(capsys, monkeypatch):
    # the real models never fail, so force a failing report through the seam
    from adjcrys import cli
    from adjcrys.crystal_graph import CheckResult

    monkeypatch.setattr(
        cli, "_verification_report",
        lambda *args: [CheckResult("forced", "axioms", False, 1, "synthetic")],
    )
    code, out = run_cli(capsys, "verify", "--family", "c1", "--rank", "2",
                        "--level", "1")
    assert code == 1
    assert "FAIL" in out


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out = run_cli(
        capsys, "verify", "--family", "c1", "--rank", "2", "--level", "1",
        "--check", "axioms", "--out", str(target),
    )
    assert code == 0 and out == ""
    assert "axioms/ef-inverse" in target.read_text()


def test_repeated_invocations_byte_identical(capsys):
    argv = ["graph", "--family", "d2", "--rank", "3", "--level", "2",
            "--format", "dot"]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    argv = ["verify", "--family", "a1", "--rank", "2", "--level", "1"]
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "adjcrys", "graph", "--family", "c1",
         "--rank", "2", "--level", "0", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["nodes"]) == 1


def test_graph_into_a_closed_pipe_ends_quietly():
    """A reader that stops early, as `| head` does, gets no traceback."""
    with subprocess.Popen(
        [sys.executable, "-m", "adjcrys", "graph", "--family", "c1", "--rank", "3",
         "--level", "5", "--format", "dot"],  # 1.2 MB, more than a pipe holds
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(10) == b"digraph cr"
        proc.stdout.close()
        assert proc.stderr.read() == b""
    assert proc.returncode == 0


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a full device")
@pytest.mark.parametrize("command", ["verify", "graph"])
def test_full_stdout_is_an_output_error(command):
    """A failed write to stdout exits 2 with one stderr line, as --out does."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "adjcrys", command, "--family", "c1", "--rank", "2",
             "--level", "1"],
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.txt"
    for argv in (
        ["verify", "--family", "c1", "--rank", "2", "--level", "1"],
        ["graph", "--family", "c1", "--rank", "2", "--level", "1"],
        ["apply", "--family", "c1", "--rank", "2", "--level", "1",
         "--start", "0,0,0,0", "--word", "f0"],
    ):
        assert main(argv + ["--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write")
    assert not target.parent.exists()


def test_graph_reports_an_arrow_leaving_the_enumeration(capsys, monkeypatch):
    """A model fault in graph exits 1 with a message, as a failed check does."""
    from adjcrys.affine_c import CrystalC

    original = CrystalC.elements
    monkeypatch.setattr(CrystalC, "elements", lambda self: original(self)[:-1])
    assert main(["graph", "--family", "c1", "--rank", "2", "--level", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: f_0 leaves the enumeration at C2:x=2,0;xb=0,0\n"


def test_graph_fault_creates_no_out_file(tmp_path, capsys, monkeypatch):
    """The model fault is found before the --out file is opened."""
    from adjcrys.affine_c import CrystalC

    original = CrystalC.elements
    monkeypatch.setattr(CrystalC, "elements", lambda self: original(self)[:-1])
    target = tmp_path / "g.json"
    assert main(["graph", "--family", "c1", "--rank", "2", "--level", "2",
                 "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: f_0 leaves the enumeration at C2:x=2,0;xb=0,0\n"
    assert not target.exists()


@pytest.mark.parametrize("invocation", (
    "graph --family a1 --rank 3 --level 3 --format json",
    "graph --family c1 --rank 3 --level 3 --format dot",
    "graph --family d2 --rank 3 --level 3 --format json --component 2",
))
@pytest.mark.parametrize("to_file", (False, True))
def test_graph_streams_without_building_the_graph(invocation, to_file, tmp_path, capsys,
                                                   monkeypatch):
    """graph writes the golden bytes with build_graph, export and the graph
    value classes made to raise: it formats straight from the operator table."""
    from adjcrys import cli, crystal_graph

    def refuse(*args, **kwargs):
        raise AssertionError("the graph was materialised")

    for name in ("build_graph", "export", "CrystalGraph", "Vertex", "Edge"):
        monkeypatch.setattr(crystal_graph, name, refuse)
        monkeypatch.setattr(cli, name, refuse, raising=False)
    target = tmp_path / "graph.out"
    argv = invocation.split() + (["--out", str(target)] if to_file else [])
    code = main(argv)
    out = capsys.readouterr().out
    if to_file:
        assert out == ""
        data = target.read_bytes()
    else:
        data = out.encode("utf-8")
    want = GOLDEN[invocation]
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == (
        want["exit"], want["bytes"], want["sha256"]
    )


@pytest.mark.parametrize("component", (None, 1))
def test_graph_cli_calls_each_f_once_and_no_e(component, elemc_calls, capsys):
    from adjcrys.affine_c import CrystalC

    argv = ["graph", "--family", "c1", "--rank", "2", "--level", "2"]
    model = CrystalC(2, 2)
    elems, labels = model.elements(), model.index_set
    if component is not None:
        argv += ["--component", str(component)]
        elems = [b for b in elems if model.component(b) == component]
        labels = labels[1:]
    assert main(argv) == 0
    assert elemc_calls == Counter({("f", b, i): 1 for b in elems for i in labels})


@pytest.fixture
def constructed(monkeypatch):
    """Counts of element objects built, by class name, through __post_init__,
    and of weights checked through `RootDatum.weight`, under "weight"."""
    from adjcrys.affine_a import AdjElemA, ColElem, RowElem
    from adjcrys.affine_c import ElemC
    from adjcrys.affine_d2 import ElemD
    from adjcrys.root_data import RootDatum

    counts = Counter()
    for cls in (RowElem, ColElem, AdjElemA, ElemC, ElemD):
        def counted(self, name=cls.__name__, original=cls.__post_init__):
            counts[name] += 1
            original(self)
        monkeypatch.setattr(cls, "__post_init__", counted)

    def weight(self, coeffs, original=RootDatum.weight):
        counts["weight"] += 1
        return original(self, coeffs)

    monkeypatch.setattr(RootDatum, "weight", weight)
    return counts


@pytest.mark.parametrize("family", ("a1", "c1", "d2"))
def test_clean_verify_builds_no_element_objects(family, constructed):
    """Every check of a passing report reads coordinate tuples: it builds
    no element object, and its weights checked through `RootDatum.weight`
    (the root steps, not one per element) do not grow with the level."""
    from adjcrys.cli import FORK_MIN_ELEMENTS, _verification_report
    from adjcrys.crystal_graph import all_passed

    weights = []
    for level in (2, 4):
        size = sum(family_module(family).shell_size(2, k) for k in range(level + 1))
        assert size < FORK_MIN_ELEMENTS  # a forked section's counts would not reach this process
        constructed.clear()
        assert all_passed(_verification_report(family, 2, level, "all"))
        weights.append(constructed.pop("weight", 0))
        assert constructed == Counter()
    assert weights[0] == weights[1] > 0


def test_graph_a1_builds_no_elements(constructed, capsys):
    assert main(["graph", "--family", "a1", "--rank", "2", "--level", "2"]) == 0
    assert constructed["AdjElemA"] == 0
