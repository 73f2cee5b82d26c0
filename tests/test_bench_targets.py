"""Every callable the benchmark traces still exists where it looks for it.

The benchmark's traced run reports one metric per traced layer, and a
callable that is renamed, moved or deleted silently drops the metrics that
need it.  This reads the target list from `bench/spans.py`, so retiring a
target there keeps this test passing.
"""

import os

from orgrass import GrassmannCohomology, GrassmannContext

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
