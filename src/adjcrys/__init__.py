"""Adjoint-type affine crystal models with exhaustive structural verification.

Three coordinate models of level-l affine crystals whose classical
decomposition runs over the multiples k*theta of a distinguished root,
together with the type-A tableau crystals they are checked against, the
weight-shell arithmetic, crystal-graph export, and machine verification of
the structure theorems (level embeddings, commuting level-raising maps,
boundary descriptions, and the zero-node landing rule).

`import adjcrys` loads no submodule: each name below is imported from its
submodule on first use (PEP 562).
"""

import importlib

# submodule -> the names it exports here; verify_theorems_<x> is its verify_theorems
_NAMES = {
    "affine_a": ("CrystalA", "alpha_checks", "promotion_checks", "verify_theorems_a"),
    "affine_c": ("CrystalC", "verify_theorems_c"),
    "affine_d2": ("CrystalD2", "verify_theorems_d2"),
    "crystal_graph": ("CheckResult", "CrystalGraph", "all_passed", "axiom_checks",
                      "build_graph", "export", "render_report", "stream_graph"),
    "root_data": ("Family", "RootDatum", "ShellStep", "classify_shift", "in_shell"),
    "tableaux": ("Tableau", "TensorPair", "Word", "column_missing", "eps_phi", "ssyt_count"),
}
_SUBMODULE = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
    return getattr(module, "verify_theorems" if name.startswith("verify_theorems_") else name)


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
