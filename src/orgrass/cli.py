"""Command-line front end.

Subcommands: dual, g, scan, betti, charrank, cup, verify.  Human-readable
output by default, stable machine output with --json (no timings unless
--timing is given).  Progress for long scans goes to stderr only.  Each
command imports the engine modules it uses when it runs, so a short command
does not pay for loading the others.

Exit codes: 0 success / all checks pass, 1 verification failure or internal
inconsistency, 2 usage error, 3 result capped (scan or search stopped early).
No command ends in a traceback: an unexpected exception prints `error: ...`
to stderr and exits 1, and so does a reader that closes stdout early (as in
`orgrass scan ... --values | head -1`), which ends the command without a
message since its output can no longer be delivered in full.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPPED = 3

# the keys of `suites.SUITES`, sorted; written out so that building the
# parser loads no engine module
SUITE_NAMES = (
    "all", "charrank", "cup", "frobenius", "gysin", "oracle", "points", "topdie", "vanishing"
)


def _dump(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _parse_kill(text: str, k: int) -> set[int]:
    try:
        kill = {int(part) for part in text.split(",") if part.strip()}
    except ValueError:
        raise ValueError(f"cannot parse --kill {text!r}: expected comma-separated indices")
    if not kill <= set(range(1, k + 1)):
        raise ValueError(f"--kill {sorted(kill)} outside 1..{k}")
    return kill


def cmd_dual(args) -> int:
    from .duals import dual_class

    poly = dual_class(args.k, args.i)
    if args.json:
        _dump({"format": "orgrass-poly/1", "k": args.k, "i": args.i, "poly": str(poly)})
    else:
        print(poly)
    return EXIT_OK


def cmd_g(args) -> int:
    from .duals import reduced_dual_class

    poly = reduced_dual_class(args.k, args.i, {1})
    if args.json:
        _dump({"format": "orgrass-poly/1", "k": args.k, "i": args.i, "poly": str(poly)})
    else:
        print(poly)
    return EXIT_OK


def cmd_scan(args) -> int:
    from .duals import scan_vanishing

    kill = _parse_kill(args.kill, args.k)
    progress = None
    if args.verbose:
        progress = lambda i: print(f"  ... scanned through degree {i}", file=sys.stderr)
    scan = scan_vanishing(
        args.k, kill, args.lo, args.hi, keep_values=args.values, progress=progress
    )
    if args.json:
        payload = {
            "format": "orgrass-scan/1",
            "k": scan.k,
            "killed": sorted(scan.killed),
            "lo": scan.lo,
            "hi": scan.hi,
            "zero_degrees": list(scan.zero_degrees),
        }
        if scan.values is not None:
            payload["values"] = {str(i): str(p) for i, p in sorted(scan.values.items())}
        _dump(payload)
        return EXIT_OK
    killed = ",".join(str(m) for m in sorted(kill))
    print(f"reductions of the dual classes mod {{w{killed}}} at k={args.k}, degrees {args.lo}..{args.hi}")
    if args.values:
        for i in range(args.lo, args.hi + 1):
            print(f"  {i}: {scan.values[i]}")
    zeros = list(scan.zero_degrees)
    print(f"zero degrees: {zeros if zeros else 'none'}")
    return EXIT_OK


def cmd_betti(args) -> int:
    from .cohomology import GrassmannCohomology, GrassmannContext

    ctx = GrassmannContext(args.n, args.k)
    rep = GrassmannCohomology(ctx).report()
    if args.json:
        _dump(rep.to_dict())
    else:
        print(rep.format_table())
    return EXIT_OK


def cmd_charrank(args) -> int:
    from .cohomology import GrassmannCohomology, GrassmannContext
    from .rank_cup import charrank_oriented

    ctx = GrassmannContext(args.n, args.k)
    res = charrank_oriented(GrassmannCohomology(ctx), cap=args.cap)
    if args.json:
        _dump(
            {
                "format": "orgrass-charrank/1",
                "n": ctx.n,
                "k": ctx.k,
                "value": res.value,
                "exact": res.exact,
                "first_kernel_degree": res.first_kernel_degree,
                "prediction": {"kind": res.prediction.kind, "value": res.prediction.value},
                "agrees": res.agrees,
                "applies_to_manifold": res.applies_to_manifold,
            }
        )
    else:
        kind = "exact" if res.exact else "at least"
        print(f"{ctx}: charrank(oriented canonical bundle) {kind} {res.value}")
        if res.first_kernel_degree is not None:
            print(f"  first cup-by-w1 kernel in degree {res.first_kernel_degree}")
        if res.prediction.kind == "not_covered":
            print("  case table: not covered")
        else:
            word = "=" if res.prediction.kind == "exact" else ">="
            verdict = {True: "agrees", False: "DISAGREES", None: "undecided (scan capped)"}
            print(
                f"  case table: {word} {res.prediction.value} -> {verdict[res.agrees]}"
            )
        if res.applies_to_manifold:
            print("  n is odd: the value is also charrank of the cover manifold")
    return EXIT_OK if res.exact else EXIT_CAPPED


def cmd_cup(args) -> int:
    from .cohomology import GrassmannCohomology, GrassmannContext
    from .rank_cup import cup_report

    ctx = GrassmannContext(args.n, args.k)
    rep = cup_report(GrassmannCohomology(ctx), budget=args.budget)
    if args.json:
        payload = {
            "format": "orgrass-cup/1",
            "n": ctx.n,
            "k": ctx.k,
            "d": rep.d,
            "j_used": rep.j_used,
            "j_source": rep.j_source,
            "r_used": rep.r_used,
            "upper": rep.upper,
            "upper_from_prediction": rep.upper_from_prediction,
            "closed_form": None
            if rep.closed_form is None
            else {"kind": rep.closed_form.kind, "value": rep.closed_form.value},
            "lower_sw": rep.lower_sw,
            "lower_capped": rep.lower_capped,
            "exact": rep.exact,
            "exact_source": rep.exact_source,
        }
        _dump(payload)
    else:
        print(f"G~({ctx.n},{ctx.k}): d={rep.d}, charrank j={rep.j_used} ({rep.j_source}), r={rep.r_used}")
        print(f"  cup-length upper bound: {rep.upper}")
        if rep.closed_form is not None:
            print(
                f"  case table: {rep.closed_form.kind} {rep.closed_form.value} "
                f"(recomputed {rep.upper_from_prediction})"
            )
        capped = " [search capped]" if rep.lower_capped else ""
        print(f"  lower bound from w1-free monomials: {rep.lower_sw}{capped}")
        if rep.exact is not None:
            print(f"  exact: {rep.exact} ({rep.exact_source})")
    return EXIT_CAPPED if rep.lower_capped else EXIT_OK


def cmd_verify(args) -> int:
    from .suites import SUITES

    kwargs = {}
    if args.hi is not None:
        if args.suite != "vanishing":
            raise ValueError("--hi applies to --suite vanishing only")
        if args.hi < 2:
            raise ValueError(f"--hi must be at least 2, got {args.hi}")
        kwargs = {
            "hi3": args.hi,
            "hi4": min(args.hi, 512),
            "hi5": min(args.hi, 512),
            "hi6": min(args.hi, 128),
        }
    if args.t_max is not None:
        if args.t_max < 0:
            raise ValueError(f"--t-max must be non-negative, got {args.t_max}")
        if args.suite in ("charrank", "gysin", "topdie"):
            kwargs = {"n_max": 1 << args.t_max}
        elif args.suite == "cup":
            kwargs = {
                "ts": tuple(t for t in (3, 4, 5) if t <= args.t_max),
                "n_max3": min(32, 1 << args.t_max),
                "n_max4": min(32, 1 << args.t_max),
            }
        else:
            raise ValueError("--t-max applies to --suite charrank, gysin, topdie or cup only")
    rows = SUITES[args.suite](**kwargs)
    if not rows:  # a check that selects nothing cannot fail, so it is no pass
        raise ValueError(f"--suite {args.suite} selects no rows within these bounds")
    ok = all(r.ok for r in rows)
    if args.json:
        payload = {
            "format": "orgrass-verify/1",
            "suite": args.suite,
            "ok": ok,
            "rows": [
                {"name": r.name, "ok": r.ok, "detail": r.detail}
                | ({"data": r.data} if r.data is not None else {})
                | ({"seconds": round(r.seconds, 3)} if args.timing else {})
                for r in rows
            ],
        }
        _dump(payload)
    else:
        for r in rows:
            mark = "PASS" if r.ok else "FAIL"
            timing = f" [{r.seconds:.2f}s]" if args.timing else ""
            print(f"{mark}  {r.name}: {r.detail}{timing}")
        print(f"{'PASS' if ok else 'FAIL'}  {args.suite}: {sum(r.ok for r in rows)}/{len(rows)} checks")
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orgrass",
        description="Exact mod-2 computations for oriented Grassmann manifolds.",
    )
    parser.add_argument("--version", action="version", version=f"orgrass {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("dual", parents=[common], help="one dual class of the canonical bundle")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("g", parents=[common], help="mod-w1 reduction of one dual class")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(func=cmd_g)

    p = sub.add_parser("scan", parents=[common], help="vanishing scan of reduced dual classes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kill", required=True, help="comma-separated variable indices to set to zero")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--values", action="store_true", help="also print every reduced polynomial")
    p.add_argument("-v", "--verbose", action="store_true", help="progress to stderr")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("betti", parents=[common], help="per-degree Gysin report for G(n,k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("charrank", parents=[common], help="characteristic rank of the oriented canonical bundle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cap", type=int, default=None, help="stop the kernel scan at this degree")
    p.set_defaults(func=cmd_charrank)

    p = sub.add_parser("cup", parents=[common], help="cup-length bounds for the oriented cover")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="cap on pullback tests in the lower-bound search")
    p.set_defaults(func=cmd_cup)

    p = sub.add_parser("verify", parents=[common], help="run a reproduction suite")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument("--hi", type=int, default=None, help="scan bound for the vanishing suite")
    p.add_argument("--t-max", type=int, default=None, help="restrict grids to n <= 2^t")
    p.add_argument("--timing", action="store_true", help="include per-row timings")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone; send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"{parser.prog}: error: {exc}\n")
    except Exception as exc:  # the documented exit code instead of a traceback
        # only a command that loaded rank_cup can have raised its InconsistencyError
        rank_cup = sys.modules.get(f"{__package__}.rank_cup")
        if rank_cup is not None and isinstance(exc, rank_cup.InconsistencyError):
            print(f"error: {exc}", file=sys.stderr)
        else:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
