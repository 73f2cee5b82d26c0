"""Run every workload on several seeds and write a summary JSON.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json
    python3 bench/baseline.py --seeds 11-20 --out bench/baseline_2.json

For each workload of BENCHMARK.json it makes one untraced run per seed
(`run_seconds` from BENCHMARK.json) and one traced run, in that order, one
process at a time.  Each end-to-end metric gets its values, median,
quartiles and spread (the distance between the quartiles as a share of the
median); each traced run contributes its per-layer metrics.  Compare two
such files, made on the same machine, to support a claim about a change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["environment"] = lines[0]
    result["overhead"] = [line for line in lines if "trace.overhead_s median" in line]
    return result


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, such as 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    out = {"run_seconds": spec["run_seconds"], "seeds": seeds, "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "workloads": {}}
    for name in names:
        results = [run(name, seed, spec["run_seconds"], 0) for seed in seeds]
        traced = run(name, seeds[0], spec["run_seconds"], 1)
        out["environment"] = results[0]["environment"]
        entry = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in results])
                           for m in spec["end_to_end"]},
            "per_layer": {key: m["value"] for key, m in traced["metrics"].items()},
            "overhead": traced["overhead"],
        }
        out["workloads"][name] = entry
        spreads = ", ".join(f"{k} {v['median']:.4g} (spread {v['spread']:.3f})" for k, v in entry["end_to_end"].items())
        print(f"{name}: {spreads}; failed {entry['failed']} of {entry['attempted']}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
