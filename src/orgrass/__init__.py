"""Exact mod-2 computations for oriented Grassmann manifolds.

The package computes, exactly over GF(2): dual Stiefel-Whitney classes of
the canonical bundle and their variable-killing reductions, per-degree
cohomology of G(n,k) from its Schubert basis (with the polynomial
presentation as an independent second route), Betti numbers of the
oriented double cover through the Gysin sequence, the characteristic rank
of the pulled-back canonical bundle, and cup-length bounds for the cover.
The last two take the `GrassmannCohomology` engine they compute with.

Submodules load on first use: each public name below is imported from its
module when it is first read (PEP 562), so `import orgrass.duals` loads
only `duals` and `gf2poly`.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names of each submodule
_EXPORTS = {
    "gf2poly": (
        "Exponents",
        "Poly",
        "enumerate_monomials",
        "monomial_count",
        "monomial_degree",
        "parse_poly",
    ),
    "duals": (
        "DualTable",
        "ReductionScan",
        "dual_class",
        "dual_table",
        "g",
        "reduced_dual_class",
        "reduced_dual_classes",
        "scan_vanishing",
        "verify_iterated_recurrence_batch",
    ),
    "cohomology": (
        "DegreeSlice",
        "GrassmannCohomology",
        "GrassmannContext",
        "GysinReport",
        "GysinRow",
        "ideal_rows",
    ),
    "rank_cup": (
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
    ),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCES]


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
