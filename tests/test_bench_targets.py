"""Every callable the benchmark traces still exists where it looks for it.

The benchmark's traced run reports one metric per traced layer, and a
callable that is renamed, moved or deleted silently drops the metrics that
need it.  This reads the target list from `bench/spans.py`, so retiring a
target there keeps this test passing.
"""

import os

from orgrass import DualTable, GrassmannCohomology, GrassmannContext

from oracles import digit_rule_terms

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_every_traced_callable_is_found(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        GrassmannCohomology(GrassmannContext(6, 3)).slice(4)
        assert tracer.missing == set()
        assert tracer.time_row_generation() > 0
    finally:
        tracer.uninstall()


def test_table_growth_counters_match_digit_rule(monkeypatch):
    # the traced table counts every new entry and its terms, however lazily
    # the table builds its polynomials
    monkeypatch.syspath_prepend(BENCH)
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        DualTable(3).ensure(40)
    finally:
        tracer.uninstall()
    assert tracer.counts["ensure.entries"] == 40
    assert tracer.counts["ensure.terms"] == sum(len(digit_rule_terms(3, i)) for i in range(1, 41))
