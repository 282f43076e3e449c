"""Which package modules a command loads, and the lazy package exports.

Each probe runs in a fresh interpreter, since the test session itself has
imported every module already."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import adjcrys

README = Path(__file__).resolve().parent.parent / "README.md"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(adjcrys.__file__).parents[1]), os.environ.get("PYTHONPATH")])))

PROBE = """
import os, sys
{setup}
print(repr((sorted(m for m in sys.modules if m.startswith("adjcrys.")),
            "fractions" in sys.modules, "json" in sys.modules, "pickle" in sys.modules)))
"""
RUN_CLI = """
from contextlib import redirect_stdout
from adjcrys.cli import main
with open(os.devnull, "w") as null, redirect_stdout(null):
    assert main({argv!r}) == 0
"""

BASE = ["adjcrys.cli", "adjcrys.crystal_graph", "adjcrys.root_data"]


def loaded(setup: str) -> tuple[list[str], bool, bool, bool]:
    """The sorted adjcrys.* modules and whether fractions, json and pickle
    are loaded, after setup."""
    proc = subprocess.run([sys.executable, "-c", PROBE.format(setup=setup)],
                          capture_output=True, text=True, env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_bare_import_loads_no_submodule():
    assert loaded("import adjcrys") == ([], False, False, False)


def test_cli_import_loads_only_what_every_command_runs():
    assert loaded("import adjcrys.cli") == (BASE, False, False, False)


@pytest.mark.parametrize(("argv", "family"), [
    ("verify --family c1 --rank 2 --level 1", "affine_c"),
    ("verify --family d2 --rank 2 --level 1", "affine_d2"),
    ("verify --family a1 --rank 2 --level 1", "affine_a"),
    ("graph --family d2 --rank 2 --level 1", "affine_d2"),
    ("graph --family c1 --rank 2 --level 1 --format dot", "affine_c"),
    ("apply --family c1 --rank 2 --level 1 --start highest-of --word f1", "affine_c"),
])
def test_a_command_loads_only_its_own_family(argv, family):
    """Only a1 needs the tableau oracle, only a JSON export (the `graph`
    default) loads json, and no command loads fractions.  A crystal this
    small runs `verify` in one process, which loads no pickle."""
    extra = ["adjcrys.tableaux"] if family == "affine_a" else []
    want = sorted(BASE + ["adjcrys.counting", f"adjcrys.{family}"] + extra)
    json = argv.startswith("graph") and "--format dot" not in argv
    assert loaded(RUN_CLI.format(argv=argv.split())) == (want, False, json, False)


EXPORTS = {  # name in the package -> (submodule, name there)
    **{name: ("affine_a", name) for name in ("CrystalA", "alpha_checks", "promotion_checks")},
    "verify_theorems_a": ("affine_a", "verify_theorems"),
    "CrystalC": ("affine_c", "CrystalC"),
    "verify_theorems_c": ("affine_c", "verify_theorems"),
    "CrystalD2": ("affine_d2", "CrystalD2"),
    "verify_theorems_d2": ("affine_d2", "verify_theorems"),
    **{name: ("crystal_graph", name) for name in (
        "CheckResult", "CrystalGraph", "all_passed", "axiom_checks", "build_graph", "export",
        "render_report", "stream_graph")},
    **{name: ("root_data", name) for name in (
        "Family", "RootDatum", "ShellStep", "classify_shift", "in_shell", "on_boundary")},
    **{name: ("tableaux", name) for name in (
        "Tableau", "TensorPair", "Word", "column_missing", "eps_phi", "ssyt_count")},
}


def test_every_export_is_its_submodule_attribute():
    assert sorted(adjcrys.__all__) == sorted(EXPORTS)
    for name, (module, attr) in EXPORTS.items():
        assert getattr(adjcrys, name) is getattr(sys.modules[f"adjcrys.{module}"], attr), name
        assert name in dir(adjcrys)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        adjcrys.no_such_name


def test_from_import_of_a_submodule_gives_the_submodule():
    from adjcrys import affine_a

    assert isinstance(affine_a, ModuleType)
    assert affine_a is sys.modules["adjcrys.affine_a"]


def test_readme_library_snippet_runs(tmp_path):
    snippet = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(),
                        re.S | re.M).group(1)
    proc = subprocess.run([sys.executable, "-c", snippet], cwd=tmp_path,
                          capture_output=True, text=True, env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("digraph")
    assert (tmp_path / "c1.json").stat().st_size > 0
