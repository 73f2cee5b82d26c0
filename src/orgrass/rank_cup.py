"""Characteristic rank of the oriented canonical bundle and cup-length bounds.

The characteristic rank of the pulled-back canonical bundle over the
oriented double cover is the largest q such that the pullback is onto in
every degree <= q; by Gysin exactness that is one less than the first
degree where cup product with w1 has a kernel, so `charrank_oriented` is a
straight kernel scan.

`charrank_prediction` is the known case table for k = 3 and k = 4 (exact
values at n = 2^t - i for small i, lower bounds otherwise) and the general
lower bound n-k+1 for k >= 5; `CharrankResult.agrees` compares a scan
against it.

The cup-length bound is 1 + floor((d - j - 1) / r), where j is any degree
up to the characteristic rank such that all top-dimensional monomials in
the bundle's classes vanish (they always do here, and the implementation
checks it rather than assuming it), and r is the first positive degree with
nonzero cover cohomology.  `cup_closed_form` is the corresponding case
table; feeding the case-table characteristic rank back through the bound
must reproduce it, and a mismatch raises `InconsistencyError`.

The cup-length lower bound searches monomials in w2..wk only: w1 pulls
back to zero, so a w1-free monomial that survives the pullback is a product
of positive-degree classes witnessing its factor count.

`charrank_oriented`, `cup_upper`, `cup_lower_sw` and `cup_report` take the
`GrassmannCohomology` engine they compute with and read the context from
`engine.ctx`, so a result can only be labelled with the Grassmannian its
numbers come from.  Build one engine per context and pass it to each call
that should share its cached ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from .cohomology import GrassmannCohomology, GrassmannContext
from .gf2poly import Exponents, Poly, monomial_degree

__all__ = [
    "Prediction",
    "CharrankResult",
    "ClosedForm",
    "SwLowerBound",
    "CupBoundReport",
    "InconsistencyError",
    "charrank_prediction",
    "charrank_oriented",
    "cup_closed_form",
    "cup_upper",
    "cup_lower_sw",
    "cup_report",
]


class InconsistencyError(RuntimeError):
    """An identity that must hold by construction failed to hold."""


@dataclass(frozen=True)
class Prediction:
    """Case-table value for the characteristic rank: exact or a lower bound."""

    kind: str  # "exact" | "lower_bound" | "not_covered"
    value: int | None


def _pow2_gap(n: int) -> int:
    """i such that n = 2^t - i with 2^(t-1) < n <= 2^t."""
    t = (n - 1).bit_length()
    return (1 << t) - n


def charrank_prediction(n: int, k: int) -> Prediction:
    """Known characteristic rank of the oriented canonical bundle over G(n,k).

    k = 3: exact n-2 at n = 2^t; exact n-5+i at n = 2^t - i for i in 1..3;
    at least n-2 otherwise.  k = 4: exact n-5+i at n = 2^t - i for i in
    0..3; at least n-3 otherwise.  k >= 5: at least n-k+1.
    """
    if k < 3:
        raise ValueError("case table covers k >= 3 only")
    if k > n - k:
        raise ValueError(f"need k <= n-k, got (n, k) = ({n}, {k})")
    if k >= 5:
        return Prediction("lower_bound", n - k + 1)
    i = _pow2_gap(n)
    if k == 3:
        if i == 0:
            return Prediction("exact", n - 2)
        if i in (1, 2, 3):
            return Prediction("exact", n - 5 + i)
        return Prediction("lower_bound", n - 2)
    if i in (0, 1, 2, 3):
        return Prediction("exact", n - 5 + i)
    return Prediction("lower_bound", n - 3)


@dataclass(frozen=True)
class CharrankResult:
    """Outcome of the kernel scan, with the case-table comparison.

    `exact` is False only when a cap stopped the scan early, in which case
    `value` is a proven lower bound ("at least value").  `agrees` is None
    when a capped scan cannot settle the comparison.  For odd n the value
    is also the characteristic rank of the cover manifold itself
    (`applies_to_manifold`).
    """

    context: GrassmannContext
    value: int
    exact: bool
    first_kernel_degree: int | None
    prediction: Prediction
    agrees: bool | None
    applies_to_manifold: bool


def _agreement(value: int, exact: bool, pred: Prediction) -> bool | None:
    if pred.kind == "not_covered":
        return None
    assert pred.value is not None
    if pred.kind == "exact":
        if exact:
            return value == pred.value
        if value > pred.value:
            return False  # a proven lower bound already beats the exact claim
        return None
    if value >= pred.value:
        return True
    return False if exact else None


def charrank_oriented(engine: GrassmannCohomology, cap: int | None = None) -> CharrankResult:
    """Scan cup-by-w1 kernels upward; charrank is one less than the first hit.

    With a cap the scan stops at degree `cap` and reports "at least cap"
    when no kernel appeared.  Uncapped scans always terminate: the kernel in
    the top degree contains the fundamental class.
    """
    ctx = engine.ctx
    d = ctx.d
    limit = d if cap is None else min(cap, d)
    if limit < 0:
        raise ValueError("cap must be non-negative")
    first_kernel = None
    for j in range(limit + 1):
        if engine.ker_dim(j) > 0:
            first_kernel = j
            break
    if first_kernel is not None:
        value, exact = first_kernel - 1, True
    else:
        value, exact = limit, limit == d
    try:
        pred = charrank_prediction(ctx.n, ctx.k)
    except ValueError:
        pred = Prediction("not_covered", None)
    return CharrankResult(
        context=ctx,
        value=value,
        exact=exact,
        first_kernel_degree=first_kernel,
        prediction=pred,
        agrees=_agreement(value, exact, pred),
        applies_to_manifold=ctx.n % 2 == 1,
    )


# -- cup-length ------------------------------------------------------------


@dataclass(frozen=True)
class ClosedForm:
    """Case-table cup-length value: exact or an upper bound (floored)."""

    kind: str  # "exact" | "upper"
    value: int


def cup_closed_form(n: int, k: int) -> ClosedForm | None:
    """Known cup-length case table for the oriented cover, None where silent.

    k = 3: exact n-3 at n = 2^t; floor((2n-3-i)/2) at n = 2^t - i for
    i in {2, 3}; n-3 otherwise except n = 2^t - 1 (not covered).  k = 4:
    floor((3n-10-i)/2) at n = 2^t - i for i in 0..3, else floor((3n-12)/2).
    k >= 5: floor((k-1)(n-k)/2).
    """
    if k < 3:
        raise ValueError("case table covers k >= 3 only")
    if k > n - k:
        raise ValueError(f"need k <= n-k, got (n, k) = ({n}, {k})")
    if k >= 5:
        return ClosedForm("upper", ((k - 1) * (n - k)) // 2)
    i = _pow2_gap(n)
    if k == 3:
        if i == 0:
            return ClosedForm("exact", n - 3)
        if i == 1:
            return None
        if i in (2, 3):
            return ClosedForm("upper", (2 * n - 3 - i) // 2)
        return ClosedForm("upper", n - 3)
    if i in (0, 1, 2, 3):
        return ClosedForm("upper", (3 * n - 10 - i) // 2)
    return ClosedForm("upper", (3 * n - 12) // 2)


@dataclass(frozen=True)
class SwLowerBound:
    """Best factor count found among surviving w1-free monomials."""

    value: int
    capped: bool
    witness: Exponents | None
    tested: int


@dataclass(frozen=True)
class CupBoundReport:
    """Cup-length bounds for the oriented cover.

    `upper` uses the characteristic rank of an uncapped scan (`j_used`;
    `j_source` is always "scan"); `upper_from_prediction` redoes
    the bound with the case-table rank and must match `closed_form`.
    `exact` is set when the search closes the gap or the case table states
    an exact value (`exact_source` distinguishes the two).
    """

    context: GrassmannContext
    d: int
    j_used: int
    j_source: str
    r_used: int
    upper: int
    upper_from_prediction: int | None
    closed_form: ClosedForm | None
    lower_sw: int | None
    lower_capped: bool
    exact: int | None
    exact_source: str | None


def cup_upper(engine: GrassmannCohomology) -> CupBoundReport:
    """Upper bound 1 + floor((d - j - 1)/r) with the vanishing hypothesis checked."""
    ctx = engine.ctx
    cr = charrank_oriented(engine)
    pred = cr.prediction
    j_used, j_source = cr.value, "scan"  # uncapped, so exact: ker_dim(d) = 1
    if not engine.top_monomials_die():
        raise InconsistencyError(
            f"{ctx}: a top-degree monomial class survives the pullback; "
            "the vanishing hypothesis of the cup bound failed"
        )
    r = engine.r_first_nonzero()
    d = ctx.d
    upper = 1 + (d - j_used - 1) // r
    upper_from_pred = None
    if pred.kind in ("exact", "lower_bound"):
        upper_from_pred = 1 + (d - pred.value - 1) // r
    try:
        cf = cup_closed_form(ctx.n, ctx.k)
    except ValueError:
        cf = None
    if cf is not None and upper_from_pred is not None and cf.value != upper_from_pred:
        raise InconsistencyError(
            f"{ctx}: case-table cup bound {cf.value} != recomputed bound {upper_from_pred}"
        )
    exact = exact_source = None
    if cf is not None and cf.kind == "exact":
        if cf.value != upper:
            raise InconsistencyError(
                f"{ctx}: case-table exact cup length {cf.value} != computed upper {upper}"
            )
        exact, exact_source = cf.value, "case_table"
    return CupBoundReport(
        context=ctx,
        d=d,
        j_used=j_used,
        j_source=j_source,
        r_used=r,
        upper=upper,
        upper_from_prediction=upper_from_pred,
        closed_form=cf,
        lower_sw=None,
        lower_capped=False,
        exact=exact,
        exact_source=exact_source,
    )


def _w1_free_monomials(k: int, count: int, max_degree: int) -> list[Exponents]:
    """Exponent tuples with e1 = 0, total exponent `count`, degree <= max_degree."""
    out: list[Exponents] = []
    if k < 2 or count < 1:
        return out
    e = [0] * k

    def rec(var: int, remaining: int, degree: int) -> None:
        if var == k:
            deg = degree + k * remaining
            if deg <= max_degree:
                e[k - 1] = remaining
                out.append(tuple(e))
                e[k - 1] = 0
            return
        for c in range(remaining, -1, -1):
            newdeg = degree + var * c
            if newdeg > max_degree:
                continue
            e[var - 1] = c
            rec(var + 1, remaining - c, newdeg)
        e[var - 1] = 0

    rec(2, count, 0)
    out.sort(key=lambda t: (monomial_degree(t), tuple(-x for x in t)))
    return out


def cup_lower_sw(engine: GrassmannCohomology, budget: int | None = None) -> SwLowerBound:
    """Largest factor count among w1-free monomials surviving the pullback.

    Counts are tried from the largest possible downward; within a count,
    candidates are ordered by degree so cheap slices are consulted first.
    `budget` caps the number of pullback tests; when it runs out the best
    value found so far is returned flagged as capped.
    """
    if budget is not None and budget < 0:
        raise ValueError("budget must be non-negative")
    d, k = engine.ctx.d, engine.ctx.k
    tested = 0
    best = 0
    witness: Exponents | None = None
    capped = False
    done = False
    for count in range(d // 2, 0, -1):
        for e in _w1_free_monomials(k, count, d):
            if budget is not None and tested >= budget:
                capped = True
                done = True
                break
            tested += 1
            if engine.pstar_nonzero(Poly.monomial(k, e)):
                best, witness = count, e
                done = True
                break
        if done:
            break
    return SwLowerBound(value=best, capped=capped, witness=witness, tested=tested)


def cup_report(engine: GrassmannCohomology, budget: int | None = None) -> CupBoundReport:
    """Upper bound plus the monomial-search lower bound in one report."""
    up = cup_upper(engine)
    low = cup_lower_sw(engine, budget=budget)
    exact, source = up.exact, up.exact_source
    if not low.capped and low.value == up.upper:
        exact, source = up.upper, "search"
    return replace(
        up, lower_sw=low.value, lower_capped=low.capped, exact=exact, exact_source=source
    )
