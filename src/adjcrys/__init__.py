"""Adjoint-type affine crystal models with exhaustive structural verification.

Three coordinate models of level-l affine crystals whose classical
decomposition runs over the multiples k*theta of a distinguished root,
together with the type-A tableau crystals they are checked against, the
weight-shell arithmetic, crystal-graph export, and machine verification of
the structure theorems (level embeddings, commuting level-raising maps,
boundary descriptions, and the zero-node landing rule).
"""

from .affine_a import (
    AdjElemA,
    ColElem,
    CrystalA,
    RowElem,
    alpha_checks,
    promotion_checks,
    verify_theorems as verify_theorems_a,
)
from .affine_c import CrystalC, ElemC, verify_theorems as verify_theorems_c
from .affine_d2 import CrystalD2, ElemD, verify_theorems as verify_theorems_d2
from .crystal_graph import (
    CheckResult,
    CrystalGraph,
    all_passed,
    axiom_checks,
    build_graph,
    export,
    render_report,
    restrict_to_component,
    stream_graph,
)
from .root_data import (
    Family,
    RootDatum,
    ShellStep,
    classify_shift,
    in_shell,
    on_boundary,
)
from .tableaux import (
    Tableau,
    TensorPair,
    Word,
    column_missing,
    eps_phi,
    ssyt_count,
)

__version__ = "0.1.0"
