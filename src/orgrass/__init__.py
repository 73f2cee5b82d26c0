"""Exact mod-2 computations for oriented Grassmann manifolds.

The package computes, exactly over GF(2): dual Stiefel-Whitney classes of
the canonical bundle and their variable-killing reductions, per-degree
cohomology of G(n,k) from its Schubert basis (with the polynomial
presentation as an independent second route), Betti numbers of the
oriented double cover through the Gysin sequence, the characteristic rank
of the pulled-back canonical bundle, and cup-length bounds for the cover.
The last two take the `GrassmannCohomology` engine they compute with.
"""

from .cohomology import (
    DegreeSlice,
    GrassmannCohomology,
    GrassmannContext,
    GysinReport,
    GysinRow,
    ideal_rows,
)
from .duals import (
    DualTable,
    ReductionScan,
    dual_class,
    dual_table,
    g,
    reduced_dual_class,
    reduced_dual_classes,
    scan_vanishing,
    verify_iterated_recurrence_batch,
)
from .gf2poly import (
    Exponents,
    Poly,
    enumerate_monomials,
    monomial_count,
    monomial_degree,
    parse_poly,
)
from .rank_cup import (
    CharrankResult,
    ClosedForm,
    CupBoundReport,
    InconsistencyError,
    Prediction,
    SwLowerBound,
    charrank_oriented,
    charrank_prediction,
    cup_closed_form,
    cup_lower_sw,
    cup_report,
    cup_upper,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Exponents",
    "Poly",
    "enumerate_monomials",
    "monomial_count",
    "monomial_degree",
    "parse_poly",
    "DualTable",
    "ReductionScan",
    "dual_class",
    "dual_table",
    "g",
    "reduced_dual_class",
    "reduced_dual_classes",
    "scan_vanishing",
    "verify_iterated_recurrence_batch",
    "DegreeSlice",
    "GrassmannCohomology",
    "GrassmannContext",
    "GysinReport",
    "GysinRow",
    "ideal_rows",
    "CharrankResult",
    "ClosedForm",
    "CupBoundReport",
    "InconsistencyError",
    "Prediction",
    "SwLowerBound",
    "charrank_oriented",
    "charrank_prediction",
    "cup_closed_form",
    "cup_lower_sw",
    "cup_report",
    "cup_upper",
]
