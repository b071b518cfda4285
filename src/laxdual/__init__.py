"""Symbolic engine for integrable hierarchies built on the sl(2) loop algebra.

The package derives, from a single constraint map per hierarchy time, the
polynomial Lax matrices, the zero-curvature PDE systems, the ultralocal field
Poisson brackets with their r-matrix algebra, the commuting Hamiltonians of
the monodromy expansion, and the equivalence of the dual Hamiltonian
formulations of one and the same PDE.  All arithmetic is exact rational.
"""

from .diffpoly import DiffPoly, FieldVar, equal_mod_total_derivative, parse_poly
from .loopalg import (
    DepthExhausted,
    LaurentMatrix,
    Sl2Poly,
    lm_commutator,
    project_plus,
    shift,
    trace_pair,
)
from .fnr import (
    PsiTable,
    build_psi,
    casimir_closure_a,
    diag_consistency,
    extend_offdiagonal,
    lax_matrix,
    trace_square_check,
)
from .zerocurv import (
    DualityResult,
    EliminationFailure,
    PdeSystem,
    ResidualNonZero,
    commuting_flows_check,
    dual_equivalence,
    dual_table_map_check,
    strong_zc_check,
    zero_curvature,
)
from .poisson import (
    BracketTable,
    WZExpansion,
    field_bracket_table,
    flow_from_hamiltonian,
    flow_matches_zc,
    hamiltonian_density,
    hamiltonians_commute,
    resolvent_check,
    sklyanin_check,
)
from .report import CheckItem, CheckReport

__version__ = "0.1.0"
