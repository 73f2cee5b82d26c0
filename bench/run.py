"""Benchmark for orgrass: end-to-end metrics per workload, or per-layer metrics.

    python3 bench/run.py --workload verify|scan|cli|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports orgrass from `src/` there and
exits with code 2, printing no result, when that is missing.  Everything it
writes goes to a temporary directory under `.bench_tmp/` in the checkout,
which it removes; the orgrass cache is pointed there through
ORGRASS_CACHE_DIR and XDG_CACHE_HOME, so the user's cache is never touched.
It starts one process at a time and waits for each.

With --trace 0 it repeats untraced passes, each in a fresh interpreter,
until the next pass would end after --seconds (at least one pass), and
reports the median `wall_s` (one pass), `setup_s` (interpreter start to the
first timed call; sampled by every pass and by rounds of set-up probes
before the first pass and after each one), and `peak_rss_mb`.  Times are
reference seconds (see speed.py): each span is scaled by the speed that a
calibration thread in the same process measured during it; the raw wall
seconds are printed alongside.
`fail_frac` is printed with its counts and carried by the `attempted` and
`failed` fields of the result.  With --trace 1 it runs pairs of an untraced
and a traced pass, timed over the same span, and reports the per-layer
metrics of the first traced pass, plus the tracing overhead: the median
difference of the pairs.  The last line of output is the JSON result.

`--tiny` shrinks every input; the benchmark's self-tests use it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# Set-up is probed in rounds of at least one probe and PROBE_ROUND_S seconds,
# one before the first pass and one after each pass, so that its samples span
# the run rather than one moment of a machine whose speed drifts; at least
# MIN_SETUPS samples in all.
MIN_SETUPS = 5
PROBE_ROUND_S = 0.3
DEADLINE_S = 170


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s per workload")


@dataclass
class Child:
    code: int
    out: str
    err: str
    maxrss_kb: int
    spawned: float


@dataclass
class Pass:
    setup_s: float | None
    wall_s: float | None
    raw_s: float | None
    rss_mb: float | None
    attempted: int
    failures: list[str] = field(default_factory=list)


class Bench:
    """Child processes of one run, with their environment and scratch space."""

    def __init__(self, root: str, tmp: str, tiny: bool):
        self.tmp = tmp
        self.tiny = tiny
        self.cache = os.path.join(tmp, "cache")
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(root, "src"),
            ORGRASS_CACHE_DIR=self.cache,
            XDG_CACHE_HOME=os.path.join(tmp, "xdg"),
            PYTHONHASHSEED="0",
        )

    def child(self, argv: list[str]) -> Child:
        with tempfile.TemporaryFile(dir=self.tmp) as out, tempfile.TemporaryFile(dir=self.tmp) as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss, spawned)

    def worker(self, mode: str, *args) -> tuple[Child, dict | None]:
        tiny = ["--tiny"] if self.tiny and not mode.endswith("-cli") else []
        argv = [sys.executable, WORKER, mode, *map(str, args), *tiny]
        child = self.child(argv)
        try:
            return child, json.loads(child.out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return child, None

    def cli(self, argv, mode: str = "pass-cli") -> tuple[Child, dict | None, float | None]:
        """One CLI command in a fresh worker; its reference seconds from spawn to main's return."""
        spawned = time.monotonic()
        child, rec = self.worker(mode, repr(spawned), *argv, "--json")
        return child, rec, None if rec is None else (rec["t_end"] - spawned) * rec["speed_pass"]

    def fresh_cache(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)
        os.makedirs(self.cache)

    def warm(self) -> tuple[float, list[str]]:
        """Warm a fresh cache as a user's earlier commands would; reference seconds taken."""
        self.fresh_cache()
        failures = []
        seconds = 0.0
        for argv in workloads.CLI_WARMUP[workloads.size(self.tiny)]:
            child, rec, took = self.cli(argv)
            code, out = (child.code or 1, "") if rec is None else (rec["exit"], rec["stdout"])
            problem = workloads.check_cli(argv, code, out, self.tiny)
            if problem:
                failures.append(f"warm-up {problem}")
            seconds += took or 0.0
        return seconds, failures


def _crash(child: Child) -> str:
    tail = (child.err.strip().splitlines() or ["no output"])[-1]
    return f"worker exited {child.code}: {tail[:200]}"


def expected_items(workload: str, seed: int, tiny: bool) -> int:
    if workload == "verify":
        return workloads.verify_attempted(tiny)
    return workloads.scan_attempted(workloads.scan_inputs(seed, tiny))


def worker_pass(bench: Bench, workload: str, seed: int, mode: str = "pass") -> tuple[Pass, dict | None]:
    child, rec = bench.worker(mode, workload, seed)
    if rec is None or child.code != 0:
        n = expected_items(workload, seed, bench.tiny)
        return Pass(None, None, None, None, n, [_crash(child)] * n), None
    raw = rec["t_end"] - rec["t_first"]
    p = Pass((rec["t_first"] - child.spawned) * rec["speed_setup"], raw * rec["speed_pass"], raw,
             rec["rss_kb"] / 1024, rec["attempted"], rec["failures"])
    return p, rec


def cli_pass(bench: Bench, seed: int, mode: str = "pass-cli") -> tuple[Pass, list[dict]]:
    """Warm a fresh cache (set-up), then run the session one command at a time.

    Each command runs in a fresh worker.py that calls `orgrass.cli.main`,
    `trace-cli` with spans, and is timed from spawn to the return of main(),
    so a traced command's row-generation timing that follows is left out.
    """
    setup_s, failures = bench.warm()
    session = workloads.cli_session(seed, bench.tiny)
    raws, results = [], []
    wall = raw_wall = 0.0
    for argv in session:
        start = time.monotonic()
        child, rec, took = bench.cli(argv, mode)
        if rec is None:
            results.append((argv, child, child.code or 1, ""))
            continue
        wall += took
        raw_wall += rec["t_end"] - start
        if "raw" in rec:
            raws.append(rec["raw"])
        results.append((argv, child, rec["exit"], rec["stdout"]))
    for argv, child, code, out in results:
        problem = workloads.check_cli(argv, code, out, bench.tiny)
        if problem:
            failures.append(problem + (f" ({_crash(child)})" if code else ""))
    rss = max(child.maxrss_kb for _, child, _, _ in results) / 1024
    attempted = len(workloads.CLI_WARMUP[workloads.size(bench.tiny)]) + len(session)
    return Pass(setup_s, wall, raw_wall, rss, attempted, failures), raws


def one_pass(bench: Bench, workload: str, seed: int) -> Pass:
    if workload == "cli":
        return cli_pass(bench, seed)[0]
    return worker_pass(bench, workload, seed)[0]


def setup_probe(bench: Bench, workload: str, seed: int) -> float | None:
    if workload == "cli":
        seconds, failures = bench.warm()
        return None if failures else seconds
    child, rec = bench.worker("setup", workload, seed)
    return None if rec is None else (rec["t_ready"] - child.spawned) * rec["speed_setup"]


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if len(values) * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return "no percentile has 10 samples beyond it"
    ordered = sorted(values)
    return f"p{best:g} {ordered[math.ceil(best / 100 * len(ordered)) - 1]:.6g}"


def probe_round(bench: Bench, workload: str, seed: int, setups: list[float]) -> bool:
    """Probe set-up for PROBE_ROUND_S seconds, at least once; False if a probe failed."""
    start = time.monotonic()
    while True:
        probe = setup_probe(bench, workload, seed)
        if probe is None:
            return False
        setups.append(probe)
        if time.monotonic() - start >= PROBE_ROUND_S:
            return True


def measure(bench: Bench, workload: str, seed: int, seconds: float):
    """Passes until the next would take the passes' total past `seconds`."""
    passes: list[Pass] = []
    setups: list[float] = []
    probing = probe_round(bench, workload, seed, setups)
    measured = 0.0
    while True:
        t = time.monotonic()
        passes.append(one_pass(bench, workload, seed))
        took = time.monotonic() - t
        measured += took
        if passes[-1].setup_s is not None:
            setups.append(passes[-1].setup_s)
        if probing:
            probing = probe_round(bench, workload, seed, setups)
        if passes[-1].wall_s is None or measured + took > seconds:
            break
    while probing and len(setups) < MIN_SETUPS:
        probe = setup_probe(bench, workload, seed)
        probing = probe is not None
        if probing:
            setups.append(probe)
    samples = {
        "wall_s": [p.wall_s for p in passes if p.wall_s is not None],
        "setup_s": setups,
        "peak_rss_mb": [p.rss_mb for p in passes if p.rss_mb is not None],
    }
    lines, metrics = [], {}
    for name, values in samples.items():
        if values:
            metrics[name] = statistics.median(values)
            lines.append(f"{workload} {name} median {metrics[name]:.6g} n={len(values)} ({high_percentile(values)}) "
                         f"samples {[round(v, 4) for v in values]}")
    raw = [p.raw_s for p in passes if p.raw_s is not None]
    if raw:
        lines.append(f"{workload} wall seconds, unscaled: median {statistics.median(raw):.6g} "
                     f"samples {[round(v, 4) for v in raw]}")
    return passes, metrics, lines


def paired_pass(bench: Bench, workload: str, seed: int, traced: bool) -> tuple[Pass, dict | None]:
    """One pass of an overhead pair, and the merged raw totals if traced."""
    if workload == "cli":
        p, raws = cli_pass(bench, seed, mode="trace-cli" if traced else "pass-cli")
    else:
        p, rec = worker_pass(bench, workload, seed, mode="trace" if traced else "pass")
        raws = [rec["raw"]] if traced and rec else []
    return p, spans.merge(raws) if raws else None


def trace(bench: Bench, workload: str, seed: int, seconds: float):
    """Per-layer metrics of the first traced pass, and the tracing overhead.

    Untraced and traced passes run in pairs, the order alternating from pair
    to pair, until the next pair would end after twice `seconds` (at least
    one pair).  The overhead is the median of the pair differences; it is
    labelled unresolved when fewer than two pairs ran or when it is smaller
    than the range of the untraced walls.  Every traced pass must give the
    same counts as the first.
    """
    passes, walls, raws = [], {False: [], True: []}, []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        for traced in (False, True) if len(walls[True]) % 2 == 0 else (True, False):
            p, raw = paired_pass(bench, workload, seed, traced)
            passes.append(p)
            walls[traced].append(p.wall_s)
            if traced:
                raws.append(raw)
                if raw is not None and raws[0] is not None and _counts(raw) != _counts(raws[0]):
                    p.failures.append("traced counts differ from those of the first traced pass")
        took = time.monotonic() - t
        if None in walls[False] + walls[True] or time.monotonic() - start + took > 2 * seconds:
            break
    metrics = spans.layer_metrics(raws[0]) if raws[0] is not None else {}
    lines = [f"{workload} untraced wall_s {walls[False]}", f"{workload} traced wall_s {walls[True]}"]
    if None not in walls[False] + walls[True]:
        diffs = [b - a for a, b in zip(walls[False], walls[True])]
        overhead = statistics.median(diffs)
        noise = max(walls[False]) - min(walls[False])
        resolved = len(diffs) >= 2 and abs(overhead) > noise
        metrics["trace.wall_s"] = statistics.median(walls[True])
        metrics["trace.overhead_s"] = overhead
        lines.append(f"{workload} trace.overhead_s median {overhead:.6g} s over {len(diffs)} pairs "
                     f"{[round(d, 4) for d in diffs]}; untraced walls span {noise:.4g} s: "
                     f"{'resolved' if resolved else 'unresolved'}")
    return passes, metrics, lines


def _counts(raw: dict) -> dict:
    return {key: value for key, value in raw.items() if key.startswith("count:")}


def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"python={sys.version.split()[0]} nproc={os.cpu_count()} cpu={cpu!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "orgrass", "__init__.py")):
        print(f"error: no orgrass sources under {root}/src; run from a checkout root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    base_tmp = os.path.join(root, ".bench_tmp")
    os.makedirs(base_tmp, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=base_tmp)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S * len(names))
    results = {}
    try:
        bench = Bench(root, tmp, args.tiny)
        print(f"# orgrass bench seed={args.seed} seconds={args.seconds:g} trace={args.trace} {environment()}")
        for name in names:
            if args.trace:
                passes, metrics, lines = trace(bench, name, args.seed, args.seconds)
            else:
                passes, metrics, lines = measure(bench, name, args.seed, args.seconds)
            attempted = sum(p.attempted for p in passes)
            failures = [f for p in passes for f in p.failures]
            for line in lines:
                print(line)
            for failure in failures[:20]:
                print(f"{name} FAILED {failure}")
            print(f"{name} fail_frac {len(failures) / max(attempted, 1):.6g} "
                  f"({len(failures)} failed of {attempted} attempted in {len(passes)} passes)")
            results[name] = (attempted, len(failures), metrics)
    except Deadline as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(base_tmp)
        except OSError:
            pass

    out_metrics = {}
    for name, (_, _, metrics) in results.items():
        for m in declared:
            if m["name"] in metrics:
                key = m["name"] if len(names) == 1 else f"{name}.{m['name']}"
                out_metrics[key] = {"value": metrics[m["name"]], "unit": m["unit"]}
                if args.trace:
                    print(f"{name} {m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    attempted = sum(a for a, _, _ in results.values())
    failed = sum(f for _, f, _ in results.values())
    complete = all(m["name"] in metrics for _, _, metrics in results.values() for m in spec["end_to_end"])
    correct = failed == 0 and attempted > 0 and (bool(args.trace) or complete)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
