"""Reproduction suites: every desk-scale verification as a timed pass/fail row.

Each suite returns a list of `CheckRow`s; the CLI renders them and the
acceptance tests assert on them.  Default ranges are the full published
scale; the CLI can shrink them for quick runs.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cohomology import GrassmannCohomology, GrassmannContext, ideal_rows
from .duals import (
    reduced_dual_class,
    reduced_dual_classes,
    scan_vanishing,
    verify_iterated_recurrence_batch,
)
from .gf2poly import Poly
from .rank_cup import (
    InconsistencyError,
    charrank_oriented,
    cup_closed_form,
    cup_upper,
)

__all__ = [
    "CheckRow",
    "SUITES",
    "suite_vanishing",
    "suite_points",
    "suite_frobenius",
    "suite_charrank",
    "suite_gysin",
    "suite_cup",
    "suite_topdie",
    "suite_oracle",
    "suite_all",
    "exact_value_grid",
    "bound_row_grid",
    "full_grid",
]


@dataclass
class CheckRow:
    name: str
    ok: bool
    detail: str
    seconds: float
    data: dict | None = None  # structured fields for machine output


def _timed(
    name: str, started: float, ok: bool, detail: str, data: dict | None = None
) -> CheckRow:
    return CheckRow(name, bool(ok), detail, time.perf_counter() - started, data)


def _pow2_minus_3(lo: int, hi: int) -> tuple[int, ...]:
    out = []
    t = 2
    while (1 << t) - 3 <= hi:
        v = (1 << t) - 3
        if v >= lo:
            out.append(v)
        t += 1
    return tuple(out)


# -- vanishing scans -------------------------------------------------------


def suite_vanishing(
    hi3: int = 1024, hi4: int = 512, hi5: int = 512, hi6: int = 128
) -> list[CheckRow]:
    """Zero sets of the mod-w1 reductions for k = 3..6."""
    rows = []
    for k, hi in ((3, hi3), (4, hi4), (5, hi5)):
        t0 = time.perf_counter()
        scan = scan_vanishing(k, {1}, 2, hi)
        want = _pow2_minus_3(2, hi) if k < 5 else ()
        rows.append(
            _timed(
                f"vanishing/k{k} mod w1 on [2,{hi}]",
                t0,
                scan.zero_degrees == want,
                f"zeros={list(scan.zero_degrees)} expected={list(want)}",
            )
        )

    # k=6 leg: a direct scan over [2, hi6] plus the truncation identity
    # (killing w6 in the k=6 reduction gives the k=5 reduction), which
    # transports the full-range k=5 result to k=6.
    t0 = time.perf_counter()
    name = f"vanishing/k6 via truncation consistency on [2,{hi6}] (+ k5 full range)"
    try:
        six = scan_vanishing(6, {1}, 2, hi6, keep_values=True)
        five = scan_vanishing(5, {1}, 2, hi6, keep_values=True)
    except RuntimeError as exc:  # the rule and the kernel disagree: a failure, not a crash
        rows.append(_timed(name, t0, False, f"raised {exc!r}"))
        return rows
    consistent = six.zero_degrees == ()
    for i in range(2, hi6 + 1):
        dropped = {t[:5] for t in six.values[i].reduce_mod_vars({6}).terms}
        if dropped != {t[:5] for t in five.values[i].terms}:
            consistent = False
            break
    rows.append(
        _timed(
            name,
            t0,
            consistent,
            f"k6 zeros={list(six.zero_degrees)}; truncation to k5 matches on [2,{hi6}]",
        )
    )
    return rows


# -- point values ----------------------------------------------------------


def suite_points(t_max: int = 10) -> list[CheckRow]:
    """Single-value checks for the g and z reductions."""
    rows = []

    t0 = time.perf_counter()
    g4 = reduced_dual_classes(4, {1}, [1, 5])
    ok = g4[1].is_zero and g4[5].is_zero
    rows.append(_timed("points/g1 = g5 = 0 at k=4", t0, ok, f"g1={g4[1]}, g5={g4[5]}"))

    t0 = time.perf_counter()
    g55 = reduced_dual_class(5, 5, {1})
    ok = g55 == Poly.variable(5, 5)
    rows.append(_timed("points/g5 = w5 at k=5", t0, ok, f"g5={g55}"))

    t0 = time.perf_counter()
    z12 = reduced_dual_class(4, 12, {1, 2, 3})
    ok = z12 == Poly.parse(4, "w4^3")
    rows.append(_timed("points/z12 = w4^3", t0, ok, f"z12={z12}"))

    t0 = time.perf_counter()
    degrees = [(1 << t) - 4 for t in range(4, t_max + 1)]
    zs = reduced_dual_classes(4, {1, 2, 3}, degrees)
    bad = []
    for t in range(4, t_max + 1):
        i = (1 << t) - 4
        want = Poly.monomial(4, (0, 0, 0, (1 << (t - 2)) - 1))
        if zs[i] != want:
            bad.append(t)
    rows.append(
        _timed(
            f"points/z(2^t-4) = w4^(2^(t-2)-1) for t=4..{t_max}",
            t0,
            not bad,
            f"checked t=4..{t_max}" + (f", failed at t={bad}" if bad else ""),
        )
    )
    return rows


# -- iterated (Frobenius) recurrence ----------------------------------------


def suite_frobenius(
    count: int = 50, seed: int = 20260809, k_max: int = 5, i_max: int = 300
) -> list[CheckRow]:
    """Randomized instances of the 2^s-iterated recurrence for g."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        k = rng.randint(3, k_max)
        s_max = 0
        while 1 + k * (1 << (s_max + 1)) <= i_max:
            s_max += 1
        s = rng.randint(0, s_max)
        i = rng.randint(1 + k * (1 << s), i_max)
        cases.append((k, i, s))
    oks = verify_iterated_recurrence_batch(cases)
    failures = [c for c, ok in zip(cases, oks) if not ok]
    return [
        _timed(
            f"frobenius/{count} random (k,i,s) with k<={k_max}, i<={i_max}",
            t0,
            not failures,
            f"{sum(oks)}/{count} hold (seed={seed})"
            + (f"; failed: {failures}" if failures else ""),
        )
    ]


# -- grids -------------------------------------------------------------------


def exact_value_grid() -> list[tuple[int, int]]:
    """(n, k) rows where the case table states an exact value, full scale."""
    grid = [(n, 3) for n in (7, 8, 13, 14, 15, 16, 29, 30, 31, 32, 61, 62, 63, 64)]
    grid += [(n, 4) for n in (13, 14, 15, 16, 29, 30, 31, 32)]
    return grid


def bound_row_grid() -> list[tuple[int, int]]:
    """Every remaining (n, k) in the sweep ranges: k=3 to 40, k=4 to 32, k=5 to 24."""
    exact = set(exact_value_grid())
    grid = [(n, 3) for n in range(6, 41) if (n, 3) not in exact]
    grid += [(n, 4) for n in range(8, 33) if (n, 4) not in exact]
    grid += [(n, 5) for n in range(10, 25)]
    return grid


def full_grid() -> list[tuple[int, int]]:
    return exact_value_grid() + bound_row_grid()


def _limit_grid(grid: Iterable[tuple[int, int]], n_max: int | None) -> list[tuple[int, int]]:
    if n_max is None:
        return list(grid)
    return [(n, k) for n, k in grid if n <= n_max]


# -- characteristic rank -----------------------------------------------------


def _charrank_row(n: int, k: int, sweep: bool) -> CheckRow:
    """One exact or sweep row; a sweep row adds the low-degree cross-checks."""
    t0 = time.perf_counter()
    ctx = GrassmannContext(n, k)
    engine = GrassmannCohomology(ctx)
    res = charrank_oriented(engine)
    pred = res.prediction
    data = {
        "n": n,
        "k": k,
        "computed": res.value,
        "prediction": {"kind": pred.kind, "value": pred.value},
        "agrees": res.agrees,
    }
    if not sweep:
        ok = pred.kind == "exact" and res.exact and res.agrees is True
        detail = f"computed={res.value} predicted={pred.value}"
        return _timed(f"charrank/exact {ctx}", t0, ok, detail, data=data)
    # kernel-vs-reduction criterion in degree n-k, and the two-step
    # consequence one degree higher
    gs = reduced_dual_classes(k, {1}, [n - k + 1, n - k + 2])
    crit_ok = (engine.ker_dim(n - k) == 0) == (not gs[n - k + 1].is_zero)
    obs_ok = True
    if not gs[n - k + 1].is_zero and not gs[n - k + 2].is_zero:
        obs_ok = res.value >= n - k + 1
    ok = res.exact and res.agrees is True and crit_ok and obs_ok
    detail = (
        f"computed={res.value} predicted {pred.kind}={pred.value} "
        f"kernel-criterion={'ok' if crit_ok else 'FAIL'} "
        f"two-step={'ok' if obs_ok else 'FAIL'}"
    )
    data.update(kernel_criterion=crit_ok, two_step_bound=obs_ok)
    return _timed(f"charrank/sweep {ctx}", t0, ok, detail, data=data)


def suite_charrank(n_max: int | None = None) -> list[CheckRow]:
    """Exact rows first, then the sweep rows with the low-degree cross-checks."""
    rows = [_charrank_row(n, k, False) for n, k in _limit_grid(exact_value_grid(), n_max)]
    rows += [_charrank_row(n, k, True) for n, k in _limit_grid(bound_row_grid(), n_max)]
    return rows


# -- Gysin structure ---------------------------------------------------------


def suite_gysin(n_max: int | None = None) -> list[CheckRow]:
    """Per-context report invariants: binomial total, duality, exactness.

    The G~ duality verdict also compares every rank of the report with a
    direct `w1_rank` of the same degree.
    """
    rows = []
    for n, k in _limit_grid(full_grid(), n_max):
        t0 = time.perf_counter()
        ctx = GrassmannContext(n, k)
        engine = GrassmannCohomology(ctx)
        rep = engine.report()
        d = ctx.d
        dims = [r.dim_base for r in rep.rows]
        covers = [r.dim_cover for r in rep.rows]
        total_ok = rep.total_dim_base == math.comb(n, k)
        dual_base = all(dims[j] == dims[d - j] for j in range(d + 1))
        # the report mirrors the w1 ranks of its upper half, which makes its
        # cover dims symmetric by construction: the ranks it mirrored are
        # computed directly here as well, a second route to the same verdict
        dual_cover = all(covers[j] == covers[d - j] for j in range(d + 1)) and all(
            r.w1_rank == engine.w1_rank(r.j) for r in rep.rows
        )
        exactness = all(r.dim_cover == r.ker + r.coker for r in rep.rows)
        ok = total_ok and dual_base and dual_cover and exactness
        rows.append(
            _timed(
                f"gysin/{ctx}",
                t0,
                ok,
                f"total={rep.total_dim_base} (C({n},{k})={math.comb(n, k)}) "
                f"dualityG={'ok' if dual_base else 'FAIL'} "
                f"dualityG~={'ok' if dual_cover else 'FAIL'} "
                f"exact={'ok' if exactness else 'FAIL'}",
            )
        )
    return rows


# -- cup-length ---------------------------------------------------------------


def suite_cup(
    ts: Sequence[int] = (3, 4, 5), n_max3: int = 32, n_max4: int = 32
) -> list[CheckRow]:
    """Exact cup values at n = 2^t plus the closed-form tie on the sweep."""
    rows = []
    for t in ts:
        t0 = time.perf_counter()
        n = 1 << t
        ctx = GrassmannContext(n, 3)
        engine = GrassmannCohomology(ctx)
        try:
            up = cup_upper(engine)
        except InconsistencyError as exc:  # a failure, not a crash
            rows.append(_timed(f"cup/G~({n},3) exact", t0, False, f"raised {exc!r}", data={"n": n, "k": 3}))
            continue
        power = Poly.variable(3, 2) ** (n - 4)
        survives = engine.pstar_nonzero(power)
        ok = up.upper == n - 3 and survives
        rows.append(
            _timed(
                f"cup/G~({n},3) exact",
                t0,
                ok,
                f"upper={up.upper} expected={n - 3}; w2^{n - 4} survives={survives}",
                data={"n": n, "k": 3, "upper": up.upper, "w2_power_survives": survives},
            )
        )
    for k, n_max in ((3, n_max3), (4, n_max4)):
        for n in range(2 * k, n_max + 1):
            cf = cup_closed_form(n, k)
            if cf is None:
                continue
            t0 = time.perf_counter()
            ctx = GrassmannContext(n, k)
            data = {"n": n, "k": k, "closed_form": {"kind": cf.kind, "value": cf.value}}
            try:
                up = cup_upper(GrassmannCohomology(ctx))
                ok = up.upper_from_prediction == cf.value
                detail = f"recomputed={up.upper_from_prediction} closed_form={cf.value}"
                data.update(upper=up.upper, upper_from_prediction=up.upper_from_prediction)
            except Exception as exc:  # an InconsistencyError is a failure, not a crash
                ok = False
                detail = f"raised {exc!r}"
            rows.append(_timed(f"cup/tie {ctx}", t0, ok, detail, data=data))
    return rows


# -- top-degree vanishing ------------------------------------------------------


def suite_topdie(n_max: int | None = None) -> list[CheckRow]:
    rows = []
    for n, k in _limit_grid(full_grid(), n_max):
        t0 = time.perf_counter()
        ctx = GrassmannContext(n, k)
        ok = GrassmannCohomology(ctx).top_monomials_die()
        rows.append(_timed(f"topdie/{ctx}", t0, ok, "all top monomials die" if ok else "FAIL"))
    return rows


# -- quotient membership oracle -------------------------------------------------


def _span_check(rows: Sequence[int], width: int, reduce) -> tuple[int, bool]:
    """(size of the span, whether every spanned vector reduces to 0) for
    `width`-bit rows.  The span is marked in a bitmap over all 2^width
    vectors.  A row already marked adds nothing; a new row r adds r ^ x for
    every x in the span of the rows kept before it, walked by Gray code over
    those rows, so each spanned vector is marked and reduced exactly once."""
    seen = bytearray(1 << width)
    seen[0] = 1
    size, all_zero = 1, reduce(0) == 0
    kept: list[int] = []
    for r in rows:
        if seen[r]:
            continue
        cur = r
        for step in range(1 << len(kept)):
            if step:
                cur ^= kept[(step & -step).bit_length() - 1]
            seen[cur] = 1
            all_zero = all_zero and reduce(cur) == 0
        size *= 2
        kept.append(r)
    return size, all_zero


def suite_oracle(contexts: Sequence[tuple[int, int]] = ((6, 3), (7, 3))) -> list[CheckRow]:
    """Brute-force ideal membership against the echelon route, all degrees.

    For each degree the subset XORs of the raw spanning rows are enumerated
    (no elimination involved); every one of them must reduce to zero, and a
    counting argument (|span| = 2^rank = kernel size of the reduction) makes
    the agreement an equality of subspaces.
    """
    rows = []
    for n, k in contexts:
        t0 = time.perf_counter()
        ctx = GrassmannContext(n, k)
        engine = GrassmannCohomology(ctx)
        ok = True
        detail = f"degrees 0..{ctx.d} checked"
        for j in range(ctx.d + 1):
            raw = ideal_rows(ctx, j, engine=engine)
            sl = engine.slice(j)
            size, all_zero = _span_check(raw, sl.num_monomials, sl.reduce)
            if size != 1 << sl.ideal_rank:
                ok, detail = False, f"degree {j}: span size != 2^rank"
                break
            if not all_zero:
                ok, detail = False, f"degree {j}: a spanned vector does not reduce to 0"
                break
            if sl.ideal_rank + sl.dim_H != sl.num_monomials:
                ok, detail = False, f"degree {j}: rank + quotient != monomial count"
                break
        rows.append(_timed(f"oracle/{ctx}", t0, ok, detail))
    return rows


# -- everything -----------------------------------------------------------------


def suite_all() -> list[CheckRow]:
    rows = []
    rows += suite_vanishing()
    rows += suite_points()
    rows += suite_frobenius()
    rows += suite_charrank()
    rows += suite_gysin()
    rows += suite_cup()
    rows += suite_topdie()
    rows += suite_oracle()
    return rows


SUITES = {
    "vanishing": suite_vanishing,
    "points": suite_points,
    "frobenius": suite_frobenius,
    "charrank": suite_charrank,
    "gysin": suite_gysin,
    "cup": suite_cup,
    "topdie": suite_topdie,
    "oracle": suite_oracle,
    "all": suite_all,
}
