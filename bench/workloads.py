"""The three workloads: their inputs, the calls they time, and their checks.

Each workload splits into inputs (made from the seed, before timing), one
timed pass through stable public entry points, and checks on the outputs
(after timing).  A check returns the number of items attempted and one
message per failed item, so a crash, a wrong value or a missing output each
count against `fail_frac`.

* verify: `orgrass.suites.suite_all()`, what `orgrass verify --suite all`
  runs.  The seed is unused: the checklist has fixed inputs.
* scan: dual-class work only: long mod-w1 vanishing scans, table growth
  for k = 3..6 and a seeded batch of iterated-recurrence cases.
* cli: a fixed session of `orgrass ... --json` commands, each in a fresh
  interpreter that calls `orgrass.cli.main(argv)` (worker.py `pass-cli`),
  against a cache directory that set-up warms.  The seed
  picks the degrees of the cheap `dual` and `g` commands.

Outputs are compared with values computed in `expect` where such values
exist, and otherwise with fingerprints of their numeric fields recorded in
`fingerprints.json` (regenerate with `python3 bench/workloads.py record`
only when a change of output is intended).  A `verify` row without
structured data is fingerprinted by the integers of its detail text, with
the `strategy=` label dropped.  Those texts do not carry everything a row
checks: a gysin row gives n, k and the total dimension, not the per-degree
dimensions or w1 ranks, and a topdie row gives no number at all, so for
those the row's own ok flag is the main check.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import sys

import expect

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

WORKLOADS = ("verify", "scan", "cli")


def load_fingerprints() -> dict:
    with open(FINGERPRINTS, encoding="ascii") as fh:
        return json.load(fh)


def size(tiny: bool) -> str:
    return "tiny" if tiny else "full"


# -- verify --------------------------------------------------------------------


def run_verify(tiny: bool):
    from orgrass import suites

    if not tiny:
        return suites.suite_all()
    # the same suites as suite_all at the scale of `orgrass verify --t-max 3`
    return (
        suites.suite_vanishing(hi3=64, hi4=64, hi5=64, hi6=32)
        + suites.suite_points(t_max=6)
        + suites.suite_frobenius(count=5, i_max=60)
        + suites.suite_charrank(n_max=8)
        + suites.suite_gysin(n_max=8)
        + suites.suite_cup(ts=(3,), n_max3=8, n_max4=8)
        + suites.suite_topdie(n_max=8)
        + suites.suite_oracle(((6, 3),))
    )


_STRATEGY = re.compile(r"strategy=\S*")


def verify_outputs(rows) -> list[dict]:
    """Name, ok flag and numbers of each row: its data, else its detail's integers."""
    out = []
    for r in rows:
        numbers = [int(x) for x in re.findall(r"\d+", _STRATEGY.sub("", r.detail))]
        out.append({"name": r.name, "ok": r.ok, "data": r.data if r.data is not None else numbers})
    return out


def verify_attempted(tiny: bool) -> int:
    return len(load_fingerprints()["verify"][size(tiny)])


def check_verify(outputs: list[dict], tiny: bool) -> tuple[int, list[str]]:
    """Every row ok, every recorded row present, numeric data unchanged."""
    recorded = load_fingerprints()["verify"][size(tiny)]
    failures = []
    seen = set()
    for row in outputs:
        name = row["name"]
        if name in seen:
            failures.append(f"{name}: repeated row")
            continue
        seen.add(name)
        if not row["ok"]:
            failures.append(f"{name}: row failed")
        elif name in recorded and expect.fingerprint(row["data"]) != recorded[name]:
            failures.append(f"{name}: data differs from the recorded fingerprint")
    missing = [name for name in recorded if name not in seen]
    failures += [f"{name}: row missing" for name in missing]
    return len(seen) + len(missing), failures


# -- scan ----------------------------------------------------------------------

SCANS = {"full": ((3, 32768), (4, 4096), (5, 1536), (6, 768)), "tiny": ((3, 256), (4, 128), (5, 64), (6, 32))}
TABLES = {"full": ((3, 800), (4, 256), (5, 128), (6, 96)), "tiny": ((3, 40), (4, 30), (5, 24), (6, 20))}
BATCH_TOP = {"full": ((3, 2048), (4, 1024), (5, 512), (6, 384)), "tiny": ((3, 64), (4, 48), (5, 40), (6, 32))}
BATCH_PER_K = 12
SAMPLES_PER_K = 5


def scan_inputs(seed: int, tiny: bool) -> dict:
    """Scan ranges and table sizes are fixed; the seed draws the batch and samples.

    Each k's batch contains its top degree, so the streaming pass, which
    dominates the batch's cost, has the same length for every seed.
    """
    scale = size(tiny)
    rng = random.Random(seed)
    cases = []
    for k, top in BATCH_TOP[scale]:
        cases.append((k, top, 0))
        for _ in range(BATCH_PER_K):
            s = rng.randint(0, max(0, ((top - 1) // k).bit_length() - 1))
            cases.append((k, rng.randint(1 + k * (1 << s), top), s))
    samples = []
    for k, n in TABLES[scale]:
        samples.append((k, n))
        samples += [(k, rng.randint(1, n)) for _ in range(SAMPLES_PER_K)]
    return {"scans": SCANS[scale], "tables": TABLES[scale], "cases": cases, "samples": samples}


def run_scan(inputs: dict) -> dict:
    from orgrass import duals

    zeros = [list(duals.scan_vanishing(k, {1}, 2, hi).zero_degrees) for k, hi in inputs["scans"]]
    for k, n in inputs["tables"]:
        duals.dual_table(k).ensure(n)
    held = duals.verify_iterated_recurrence_batch([tuple(c) for c in inputs["cases"]])
    return {"zeros": zeros, "held": list(held)}


def scan_outputs(inputs: dict, result: dict) -> dict:
    """Add the table entries the checks sample, read after timing."""
    from orgrass import duals

    entries = [sorted(duals.dual_table(k).entry(i).terms) for k, i in inputs["samples"]]
    return dict(result, entries=entries)


def scan_attempted(inputs: dict) -> int:
    return len(inputs["scans"]) + len(inputs["samples"]) + len(inputs["cases"])


def check_scan(inputs: dict, outputs: dict) -> tuple[int, list[str]]:
    failures = []
    for (k, hi), zeros in zip(inputs["scans"], outputs["zeros"]):
        if zeros != expect.vanishing_degrees(k, 2, hi):
            failures.append(f"scan k={k} to {hi}: zero degrees {zeros[:12]}")
    for (k, i), terms in zip(inputs["samples"], outputs["entries"]):
        if {tuple(t) for t in terms} != expect.dual_terms(k, i):
            failures.append(f"dual_table({k}) entry {i} differs from the digit rule")
    for case, held in zip(inputs["cases"], outputs["held"]):
        if held is not True:
            failures.append(f"iterated recurrence {tuple(case)} reported {held!r}")
    counted = len(outputs["zeros"]) + len(outputs["entries"]) + len(outputs["held"])
    if counted != scan_attempted(inputs):
        failures.append(f"{scan_attempted(inputs) - counted} outputs missing")
    return scan_attempted(inputs), failures


# -- cli -----------------------------------------------------------------------

# Commands a user ran earlier, so the session starts from a warm cache: the
# k=3 table to degree 1000 (a 4.8 MB file) and the k=4 table to degree 200.
CLI_WARMUP = {
    "full": (("dual", "--k", "3", "--i", "1000"), ("dual", "--k", "4", "--i", "200")),
    "tiny": (("dual", "--k", "3", "--i", "40"),),
}

# Fixed commands, checked against the digit rule, the vanishing set, the
# box-partition counts and recorded fingerprints.  G(24,5) is a mirror
# report; G(16,4) and G(12,6) are direct ones; the cup commands are the
# only cup-search callers in any workload.
CLI_FIXED = {
    "full": (
        ("dual", "--k", "3", "--i", "3"),
        ("scan", "--k", "3", "--kill", "1", "--lo", "2", "--hi", "4096"),
        ("scan", "--k", "4", "--kill", "1", "--lo", "2", "--hi", "1024"),
        ("scan", "--k", "5", "--kill", "1", "--lo", "2", "--hi", "256"),
        ("betti", "--n", "24", "--k", "5"),
        ("betti", "--n", "16", "--k", "4"),
        ("betti", "--n", "12", "--k", "6"),
        ("charrank", "--n", "16", "--k", "4"),
        ("cup", "--n", "16", "--k", "4"),
        ("cup", "--n", "13", "--k", "5"),
    ),
    "tiny": (
        ("dual", "--k", "3", "--i", "3"),
        ("scan", "--k", "3", "--kill", "1", "--lo", "2", "--hi", "64"),
        ("betti", "--n", "8", "--k", "3"),
        ("charrank", "--n", "8", "--k", "3"),
        ("cup", "--n", "8", "--k", "3"),
    ),
}

# (command, k, lowest degree, highest degree) for the seeded commands.
CLI_SEEDED = {
    "full": (("dual", 4, 40, 60), ("dual", 5, 24, 40), ("dual", 6, 18, 30), ("g", 3, 600, 1000)),
    "tiny": (("dual", 4, 10, 20), ("g", 3, 20, 40)),
}


def cli_session(seed: int, tiny: bool) -> tuple[tuple[str, ...], ...]:
    """The timed commands in order; seeded `dual`/`g` degrees come first."""
    scale = size(tiny)
    rng = random.Random(seed)
    seeded = tuple((cmd, "--k", str(k), "--i", str(rng.randint(lo, hi))) for cmd, k, lo, hi in CLI_SEEDED[scale])
    return seeded + CLI_FIXED[scale]


def cli_key(argv) -> str:
    return " ".join(argv)


def check_cli(argv, exit_code: int, stdout: str, tiny: bool) -> str | None:
    """None if one command's output is right, else the reason it is not."""
    if exit_code != 0:
        return f"{cli_key(argv)}: exit code {exit_code}"
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        out = None
    if not isinstance(out, dict):
        return f"{cli_key(argv)}: no JSON object in the output"
    cmd = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    k = int(opts["--k"])
    problem = None
    if cmd in ("dual", "g"):
        killed = frozenset({1}) if cmd == "g" else frozenset()
        try:
            terms = expect.parse_terms(k, str(out.get("poly")))
        except ValueError as exc:
            return f"{cli_key(argv)}: {exc}"
        if terms != expect.dual_terms(k, int(opts["--i"]), killed):
            problem = "polynomial differs from the digit rule"
    elif cmd == "scan":
        want = expect.vanishing_degrees(k, int(opts["--lo"]), int(opts["--hi"]))
        if out.get("zero_degrees") != want:
            problem = f"zero degrees {out.get('zero_degrees')} != {want}"
    elif cmd == "betti":
        n = int(opts["--n"])
        dims = [row.get("dim_base") for row in out.get("rows", []) if isinstance(row, dict)]
        if out.get("total_dim_base") != math.comb(n, k):
            problem = f"total dim {out.get('total_dim_base')} != C({n},{k})"
        elif dims != [expect.box_partitions(k, n, j) for j in range(k * (n - k) + 1)]:
            problem = "dim_base differs from the box-partition counts"
    elif cmd == "charrank":
        if out.get("agrees") is not True or out.get("exact") is not True:
            problem = f"agrees={out.get('agrees')} exact={out.get('exact')}"
    elif cmd == "cup":
        closed = out.get("closed_form") or {}
        if out.get("upper_from_prediction") != closed.get("value"):
            problem = f"upper_from_prediction {out.get('upper_from_prediction')} != closed form {closed.get('value')}"
    if problem is None and argv in CLI_FIXED[size(tiny)]:
        recorded = load_fingerprints()["cli"][size(tiny)].get(cli_key(argv))
        if expect.fingerprint(out) != recorded:
            problem = "numeric fields differ from the recorded fingerprint"
    return None if problem is None else f"{cli_key(argv)}: {problem}"


# -- fingerprints ----------------------------------------------------------------


def record() -> None:
    """Rewrite fingerprints.json from the orgrass found on sys.path."""
    import contextlib
    import io
    import tempfile

    from orgrass import cli

    out = {"verify": {}, "cli": {}}
    for tiny in (False, True):
        scale = size(tiny)
        rows = verify_outputs(run_verify(tiny))
        names = [r["name"] for r in rows]
        if len(set(names)) != len(names) or not all(r["ok"] for r in rows):
            raise SystemExit("verify rows are not unique and passing; nothing recorded")
        out["verify"][scale] = {r["name"]: expect.fingerprint(r["data"]) for r in rows}
        out["cli"][scale] = {}
        with tempfile.TemporaryDirectory(dir=HERE) as cache:
            os.environ["ORGRASS_CACHE_DIR"] = cache
            for argv in CLI_FIXED[scale]:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main([*argv, "--json"])
                if code != 0:
                    raise SystemExit(f"{cli_key(argv)} exited {code}; nothing recorded")
                out["cli"][scale][cli_key(argv)] = expect.fingerprint(json.loads(buf.getvalue()))
    with open(FINGERPRINTS, "w", encoding="ascii") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        raise SystemExit("usage: PYTHONPATH=src python3 bench/workloads.py record")
    record()
