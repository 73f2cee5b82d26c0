"""Acceptance checklist: the full desk-scale reproduction, one test per item.

Every check is exact over GF(2) (tolerance zero throughout).  Each test
prints a single PASS/FAIL line with its runtime; run with `pytest -s` (or
read the captured-output sections) to see them.
"""

import time

import pytest

from orgrass import GrassmannCohomology, GrassmannContext
from orgrass.suites import (
    CheckRow,
    bound_row_grid,
    exact_value_grid,
    full_grid,
    suite_charrank,
    suite_cup,
    suite_frobenius,
    suite_gysin,
    suite_oracle,
    suite_points,
    suite_topdie,
    suite_vanishing,
)

from oracles import partitions_in_box


def _report(num: int, label: str, rows, started: float) -> None:
    ok = all(r.ok for r in rows)
    elapsed = max(time.perf_counter() - started, sum(r.seconds for r in rows))
    print(f"[{num:2d}] {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s, {len(rows)} checks)")
    failures = [f"{r.name}: {r.detail}" for r in rows if not r.ok]
    assert ok, "failed checks:\n" + "\n".join(failures)


@pytest.fixture(scope="module")
def vanishing_rows():
    return suite_vanishing(hi3=1024, hi4=512, hi5=512, hi6=128)


@pytest.fixture(scope="module")
def charrank_rows():
    return suite_charrank()


def test_01_vanishing_scan_k3(vanishing_rows):
    started = time.perf_counter()
    rows = [vanishing_rows[0]]
    _report(1, "mod-w1 zero set for k=3 on [2,1024] is {2^t-3 : 3<=t<=10}", rows, started)


def test_02_vanishing_scan_k4(vanishing_rows):
    started = time.perf_counter()
    rows = [vanishing_rows[1]]
    _report(2, "mod-w1 zero set for k=4 on [2,512] is {2^t-3 : 3<=t<=9}", rows, started)


def test_03_vanishing_scan_k5_k6(vanishing_rows):
    started = time.perf_counter()
    rows = vanishing_rows[2:]
    _report(3, "no mod-w1 zeros for k=5 on [2,512]; k=6 via truncation consistency", rows, started)


def test_04_point_values():
    started = time.perf_counter()
    rows = suite_points(t_max=10)
    _report(4, "point values: g1=g5=0 (k=4), g5=w5 (k=5), z12=w4^3, z(2^t-4) closed form t<=10", rows, started)


def test_05_iterated_recurrence_random():
    started = time.perf_counter()
    rows = suite_frobenius(count=50, k_max=5, i_max=300)
    _report(5, "iterated (2^s) recurrence holds on 50 random (k,i,s)", rows, started)


def test_06_charrank_exact_rows(charrank_rows):
    started = time.perf_counter()
    exact_names = {f"charrank/exact G({n},{k})" for n, k in exact_value_grid()}
    rows = [r for r in charrank_rows if r.name in exact_names]
    assert len(rows) == len(exact_value_grid())
    _report(6, "exact charrank values across k=3 (n<=64) and k=4 (n<=32) power-of-two rows", rows, started)


def test_07_charrank_sweep_rows(charrank_rows):
    started = time.perf_counter()
    sweep_names = {f"charrank/sweep G({n},{k})" for n, k in bound_row_grid()}
    rows = [r for r in charrank_rows if r.name in sweep_names]
    assert len(rows) == len(bound_row_grid())
    _report(7, "charrank sweep k=3 n<=40, k=4 n<=32, k=5 n<=24 with kernel cross-checks", rows, started)


def test_08_gysin_structure():
    started = time.perf_counter()
    rows = suite_gysin()
    # independent Schubert-cell oracle on every degree of a spread of
    # contexts
    for n, k in [(6, 3), (7, 3), (12, 3), (40, 3), (64, 3), (16, 4), (32, 4), (13, 5), (24, 5)]:
        ctx = GrassmannContext(n, k)
        rep = GrassmannCohomology(ctx).report()
        dims_ok = all(
            row.dim_base == partitions_in_box(row.j, k, n - k) for row in rep.rows
        )
        rows.append(
            CheckRow(
                name=f"gysin/schubert-oracle G({n},{k})",
                ok=dims_ok,
                detail="per-degree dims match the box-partition count",
                seconds=0.0,
            )
        )
    _report(8, "Gysin structure: binomial totals, duality both rows, exactness, cell oracle", rows, started)


def test_09_cup_bounds():
    started = time.perf_counter()
    rows = suite_cup(ts=(3, 4, 5), n_max3=32, n_max4=32)
    _report(9, "cup length: exact 2^t-3 at n=2^t (t=3..5), closed-form ties k<=4, n<=32", rows, started)


def test_10_top_monomials_die():
    started = time.perf_counter()
    rows = suite_topdie()
    _report(10, "every top-degree monomial dies under pullback, full grid", rows, started)


def test_11_quotient_membership_oracle():
    started = time.perf_counter()
    rows = suite_oracle(contexts=((6, 3), (7, 3)))
    _report(11, "brute-force ideal membership matches the echelon route on G(6,3), G(7,3)", rows, started)


def test_grid_shape():
    # the sweep grids cover exactly the advertised ranges
    assert len(exact_value_grid()) == 14 + 8
    ns3 = sorted(n for n, k in full_grid() if k == 3)
    assert ns3 == sorted(set(range(6, 41)) | {61, 62, 63, 64})
    ns4 = sorted(n for n, k in full_grid() if k == 4)
    assert ns4 == list(range(8, 33))
    ns5 = sorted(n for n, k in full_grid() if k == 5)
    assert ns5 == list(range(10, 25))
