from collections import Counter

import pytest

from orgrass import (
    GrassmannCohomology,
    GrassmannContext,
    charrank_oriented,
    charrank_prediction,
    cup_closed_form,
    cup_lower_sw,
    cup_report,
    cup_upper,
)
from orgrass import rank_cup, suites


def _engine(n, k):
    return GrassmannCohomology(GrassmannContext(n, k))


def test_prediction_case_table():
    assert charrank_prediction(16, 3) == charrank_prediction(16, 3)
    assert (charrank_prediction(16, 3).kind, charrank_prediction(16, 3).value) == ("exact", 14)
    assert (charrank_prediction(12, 3).kind, charrank_prediction(12, 3).value) == ("lower_bound", 10)
    assert (charrank_prediction(16, 4).kind, charrank_prediction(16, 4).value) == ("exact", 11)
    assert (charrank_prediction(8, 3).kind, charrank_prediction(8, 3).value) == ("exact", 6)
    assert (charrank_prediction(7, 3).kind, charrank_prediction(7, 3).value) == ("exact", 3)
    assert (charrank_prediction(6, 3).kind, charrank_prediction(6, 3).value) == ("exact", 3)
    assert (charrank_prediction(8, 4).kind, charrank_prediction(8, 4).value) == ("exact", 3)
    assert (charrank_prediction(10, 5).kind, charrank_prediction(10, 5).value) == ("lower_bound", 6)
    assert (charrank_prediction(11, 5).kind, charrank_prediction(11, 5).value) == ("lower_bound", 7)
    assert (charrank_prediction(18, 3).kind, charrank_prediction(18, 3).value) == ("lower_bound", 16)


def test_prediction_rejects_out_of_scope():
    with pytest.raises(ValueError):
        charrank_prediction(8, 2)
    with pytest.raises(ValueError):
        charrank_prediction(5, 3)


@pytest.mark.parametrize(
    "n,k,want",
    [(8, 3, 6), (7, 3, 3), (13, 4, 11), (6, 3, 3), (16, 4, 11)],
)
def test_charrank_exact_values(n, k, want):
    res = charrank_oriented(_engine(n, k))
    assert res.exact
    assert res.value == want
    assert res.agrees is True
    assert res.first_kernel_degree == want + 1


def test_charrank_lower_bound_branch():
    res = charrank_oriented(_engine(11, 5))
    assert res.exact
    assert res.value >= 7
    assert res.prediction.kind == "lower_bound"
    assert res.agrees is True
    assert res.applies_to_manifold  # n odd


def test_charrank_always_at_least_nk_minus_1():
    for n, k in [(6, 3), (7, 3), (9, 4), (10, 5), (11, 3), (12, 4)]:
        res = charrank_oriented(_engine(n, k))
        assert res.value >= n - k - 1


def test_charrank_capped_scan():
    res = charrank_oriented(_engine(8, 3), cap=3)
    assert not res.exact
    assert res.value == 3
    assert res.agrees is None  # 3 < 6, inconclusive with a capped scan
    res = charrank_oriented(_engine(11, 5), cap=8)
    assert not res.exact and res.value == 8
    assert res.agrees is True  # 8 >= the predicted lower bound 7


def test_verify_rows():
    for n, k, value in [(8, 3, 6), (13, 3, 11), (15, 4, 11)]:
        res = charrank_oriented(_engine(n, k))
        assert res.exact and res.agrees is True
        assert res.value == value


def test_cup_closed_forms():
    assert cup_closed_form(8, 3) is not None
    assert (cup_closed_form(8, 3).kind, cup_closed_form(8, 3).value) == ("exact", 5)
    assert (cup_closed_form(14, 3).kind, cup_closed_form(14, 3).value) == ("upper", 11)
    assert (cup_closed_form(12, 4).kind, cup_closed_form(12, 4).value) == ("upper", 12)
    assert (cup_closed_form(16, 4).kind, cup_closed_form(16, 4).value) == ("upper", 19)
    assert (cup_closed_form(11, 5).kind, cup_closed_form(11, 5).value) == ("upper", 12)
    assert (cup_closed_form(18, 3).kind, cup_closed_form(18, 3).value) == ("upper", 15)
    assert cup_closed_form(7, 3) is None
    assert cup_closed_form(15, 3) is None


def test_cup_upper_G83():
    rep = cup_upper(_engine(8, 3))
    assert rep.upper == 5
    assert rep.j_used == 6 and rep.j_source == "scan"
    assert rep.r_used == 2
    assert rep.exact == 5 and rep.exact_source == "case_table"


def test_cup_upper_G143():
    # n = 14 = 2^4 - 2: the closed form (2n-3-i)/2 = 23/2 floors to 11, and
    # the recomputed bound 1 + (33 - 11 - 1)//2 agrees
    rep = cup_upper(_engine(14, 3))
    assert rep.upper == 11
    assert rep.upper_from_prediction == 11
    assert rep.closed_form is not None and rep.closed_form.value == 11


def test_cup_upper_G124():
    rep = cup_upper(_engine(12, 4))
    assert rep.upper_from_prediction == 12
    assert rep.closed_form is not None and rep.closed_form.value == 12
    assert rep.upper <= 12


def test_cup_lower_G83():
    low = cup_lower_sw(_engine(8, 3))
    assert low.value == 4
    assert low.witness == (0, 4, 0)
    assert not low.capped


def test_cup_lower_budget_zero():
    low = cup_lower_sw(_engine(8, 3), budget=0)
    assert low.value == 0
    assert low.capped
    assert low.tested == 0


def test_cup_report_combines_bounds():
    rep = cup_report(_engine(8, 3))
    assert rep.lower_sw == 4
    assert rep.upper == 5
    assert rep.exact == 5 and rep.exact_source == "case_table"
    rep = cup_report(_engine(6, 3))
    assert rep.lower_sw is not None
    assert rep.lower_sw <= rep.upper


def test_cup_upper_runs_clean_on_sample_grid():
    for n, k in [(6, 3), (9, 3), (10, 4), (10, 5), (16, 3)]:
        rep = cup_upper(_engine(n, k))
        assert rep.upper >= 1
        if rep.closed_form is not None:
            assert rep.upper_from_prediction == rep.closed_form.value


def test_results_name_the_context_of_their_engine():
    engine = _engine(16, 3)
    res = charrank_oriented(engine)
    assert res.context == engine.ctx and res.value == 14
    assert cup_report(engine).context == engine.ctx
    with pytest.raises(TypeError):
        charrank_oriented(GrassmannContext(8, 3), engine=engine)


def test_suite_charrank_scans_each_context_once(monkeypatch):
    calls = Counter()

    def counting(engine, *args, **kwargs):
        calls[engine.ctx.n, engine.ctx.k] += 1
        return charrank_oriented(engine, *args, **kwargs)

    monkeypatch.setattr(suites, "charrank_oriented", counting)
    monkeypatch.setattr(rank_cup, "charrank_oriented", counting)
    rows = suites.suite_charrank(n_max=12)
    assert any(r.name.startswith("charrank/sweep") for r in rows)
    assert all(r.ok for r in rows)
    assert len(calls) == len(rows)
    assert set(calls.values()) == {1}
