"""Self-tests of the benchmark, at tiny input sizes.

    PYTHONPATH=src python3 -m pytest -q bench

They run every workload end to end, show that a wrong output from orgrass
is counted as a failure on each workload, that traced counts repeat exactly,
that a missing traced callable only removes the metrics that need it, and
that the metric names agree with BENCHMARK.json and layers.json.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import expect
import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Appended to the orgrass package of a throwaway checkout: public entry
# points return wrong values, as a broken engine would.
WRONG_DIM_BASE = """
import dataclasses as _dc
from . import cohomology as _c
_report = _c.GrassmannCohomology.report
def _wrong_report(self, *args, **kwargs):
    rep = _report(self, *args, **kwargs)
    rows = list(rep.rows)
    rows[1] = _dc.replace(rows[1], dim_base=rows[1].dim_base + 1)
    return _dc.replace(rep, rows=tuple(rows))
_c.GrassmannCohomology.report = _wrong_report
"""

DROPPED_ZERO_DEGREE = """
import dataclasses as _dc
from . import duals as _d
_scan = _d.scan_vanishing
def _wrong_scan(*args, **kwargs):
    scan = _scan(*args, **kwargs)
    return _dc.replace(scan, zero_degrees=scan.zero_degrees[1:])
_d.scan_vanishing = _wrong_scan
"""


def run_bench(cwd: str, workload: str, trace: int = 0, seed: int = 3) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    try:
        return proc, json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return proc, None


@pytest.fixture
def scratch():
    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=base)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(base)
    except OSError:
        pass


def make_checkout(path: str, mutation: str | None) -> str:
    """BENCHMARK.json, the benchmark and a copy of orgrass, optionally broken."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), path)
    shutil.copytree(HERE, os.path.join(path, "bench"), ignore=shutil.ignore_patterns("__pycache__", ".*"))
    if mutation is not None:
        pkg = os.path.join(path, "src", "orgrass")
        shutil.copytree(os.path.join(ROOT, "src", "orgrass"), pkg, ignore=shutil.ignore_patterns("__pycache__"))
        with open(os.path.join(pkg, "__init__.py"), "a", encoding="utf-8") as fh:
            fh.write(mutation)
    return path


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_end_to_end(workload):
    proc, result = run_bench(ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert f"{workload} fail_frac 0 " in proc.stdout


@pytest.mark.parametrize("workload,mutation", [
    ("verify", WRONG_DIM_BASE),
    ("scan", DROPPED_ZERO_DEGREE),
    ("cli", WRONG_DIM_BASE),
])
def test_wrong_output_is_counted_as_failure(scratch, workload, mutation):
    proc, result = run_bench(make_checkout(scratch, mutation), workload)
    assert proc.returncode == 0, proc.stderr
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_checks_fail_on_perturbed_outputs():
    outputs = workloads.verify_outputs(workloads.run_verify(tiny=True))
    assert workloads.check_verify(outputs, tiny=True)[1] == []
    changed = [r for r in outputs if r["data"] and "computed" in r["data"]][0]
    bumped = [dict(r, data=dict(r["data"], computed=r["data"]["computed"] + 1)) if r is changed else r
              for r in outputs]
    assert len(workloads.check_verify(bumped, tiny=True)[1]) == 1
    gysin = [r for r in outputs if r["name"].startswith("gysin/")][0]
    assert gysin["data"] and all(isinstance(x, int) for x in gysin["data"])
    bumped = [dict(r, data=[gysin["data"][0] + 1, *gysin["data"][1:]]) if r is gysin else r for r in outputs]
    assert len(workloads.check_verify(bumped, tiny=True)[1]) == 1
    assert len(workloads.check_verify(outputs[1:], tiny=True)[1]) == 1

    inputs = workloads.scan_inputs(5, tiny=True)
    good = workloads.scan_outputs(inputs, workloads.run_scan(inputs))
    assert workloads.check_scan(inputs, good)[1] == []
    entries = [list(e) for e in good["entries"]]
    entries[0] = entries[0][1:]
    assert len(workloads.check_scan(inputs, dict(good, entries=entries))[1]) == 1
    assert len(workloads.check_scan(inputs, dict(good, held=good["held"][1:]))[1]) == 1

    betti = ("betti", "--n", "8", "--k", "3")
    payload = {"total_dim_base": 56, "rows": [{"dim_base": expect.box_partitions(3, 8, j)} for j in range(16)]}
    payload["rows"][2]["dim_base"] += 1
    payload["rows"][3]["dim_base"] -= 1
    assert "box-partition" in workloads.check_cli(betti, 0, json.dumps(payload), tiny=True)
    assert "exit code 1" in workloads.check_cli(betti, 1, "", tiny=True)
    dual = ("dual", "--k", "3", "--i", "3")
    assert "digit rule" in workloads.check_cli(dual, 0, json.dumps({"poly": "w1^3"}), tiny=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload):
    (proc, first), (_, second) = run_bench(ROOT, workload, trace=1), run_bench(ROOT, workload, trace=1)
    assert first["correct"] and second["correct"]
    assert f"{workload} trace.overhead_s median " in proc.stdout
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == declared
    counts = {name: m["value"] for name, m in first["metrics"].items() if m["unit"] in ("count", "bytes", "ratio")}
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    assert any(counts.values())


def test_missing_callable_is_reported_absent(monkeypatch):
    import orgrass.cli
    from orgrass import GrassmannCohomology, GrassmannContext

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "orgrass" and hasattr(module, "ideal_rows"):
            monkeypatch.delattr(module, "ideal_rows")
    tracer = spans.Tracer()
    tracer.install()
    try:
        GrassmannCohomology(GrassmannContext(8, 3)).report()
        assert tracer.time_row_generation() is None
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.raw())
    assert "cohomology.rowgen_s" not in metrics and "cohomology.elim_s" not in metrics
    assert metrics["cohomology.slice.built"] == 16 and metrics["cohomology.report.calls"] == 1


def test_metric_names_agree():
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert per_layer == list(spans.layer_metrics({"missing": []})) + ["trace.wall_s", "trace.overhead_s"]
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        grouped = [name for group in json.load(fh)["groups"] for name in group["metrics"]]
    assert sorted(grouped) == sorted(per_layer)
    assert {m["name"] for m in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_without_sources_exits_nonzero(scratch):
    proc, result = run_bench(make_checkout(scratch, None), "scan")
    assert proc.returncode != 0 and result is None


def test_speed_factor_averages_the_samples_of_a_span():
    sampler = speed.Sampler()
    ref = speed.REF_S
    sampler.samples = [(0.0, ref), (1.0, ref / 2), (2.0, ref / 4), (3.0, ref)]
    assert sampler.factor(0.5, 1.5) == pytest.approx((2 + 4) / 2)  # the sample in the span and the next
    assert sampler.factor(3.5, 4.0) == pytest.approx(1)  # none in or after it: the last sample
    sampler.samples = []
    sampler.start()
    sampler.stop()
    assert len(sampler.samples) >= 2 and sampler.factor(0.0, sampler.samples[-1][0]) > 0


def test_expected_values_match_known_small_cases():
    assert expect.dual_terms(3, 3) == {(3, 0, 0), (0, 0, 1)}
    assert expect.dual_terms(4, 5, frozenset({1})) == frozenset()
    assert [expect.box_partitions(2, 4, j) for j in range(5)] == [1, 1, 2, 1, 1]
    assert expect.vanishing_degrees(3, 2, 30) == [5, 13, 29]
    assert expect.fingerprint({"a": 1, "strategy": "mirror"}) == expect.fingerprint({"a": 1, "strategy": "direct"})
    assert expect.fingerprint({"a": 1}) != expect.fingerprint({"a": 2})
