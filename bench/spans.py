"""Spans and counters around the public callables of each orgrass layer.

`Tracer.install` replaces every traced callable where its callers look it
up: a method on its class, or a function in the namespace of each orgrass
module that holds it.  Each wrapper records a span (name, start, end, index
of the enclosing span) in memory and bumps the counters of its layer.
Nothing is written while the traced code runs; `Tracer.raw` sums the spans
afterwards into self times (span minus the time covered by its child spans),
inclusive times and counts.

A traced callable that no longer exists is skipped.  Every metric that needs
it is then reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
import time
import weakref
from collections import Counter, defaultdict

SUITE_NAMES = ("vanishing", "points", "frobenius", "charrank", "gysin", "cup", "topdie", "oracle")
CLI_COMMANDS = ("dual", "g", "scan", "betti", "charrank", "cup")

# target key -> (class name or None for a module function, attribute name)
TARGETS = {
    "enumerate": (None, "enumerate_monomials"),
    "ensure": ("DualTable", "ensure"),
    "scan_vanishing": (None, "scan_vanishing"),
    "reduced_dual_classes": (None, "reduced_dual_classes"),
    "recurrence_batch": (None, "verify_iterated_recurrence_batch"),
    "load_cache": (None, "load_cache"),
    "save_cache": (None, "save_cache"),
    "cache_path": (None, "cache_path"),
    "engine_init": ("GrassmannCohomology", "__init__"),
    "slice": ("GrassmannCohomology", "slice"),
    "ideal_row_count": ("GrassmannCohomology", "ideal_row_count"),
    "ideal_rows": (None, "ideal_rows"),
    "w1_rank": ("GrassmannCohomology", "w1_rank"),
    "report": ("GrassmannCohomology", "report"),
    "pstar": ("GrassmannCohomology", "pstar_nonzero"),
    "topdie": ("GrassmannCohomology", "top_monomials_die"),
    "charrank": (None, "charrank_oriented"),
    "cup_upper": (None, "cup_upper"),
    "cup_search": (None, "cup_lower_sw"),
    **{f"suite_{s}": (None, f"suite_{s}") for s in SUITE_NAMES},
    "cli_main": (None, "main"),
}


def _modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "orgrass"]


def _find(key):
    """The original callable for a target key, or None if it is gone."""
    owner, attr = TARGETS[key]
    for mod in _modules():
        if owner is None:
            fn = mod.__dict__.get(attr)
            if callable(fn) and getattr(fn, "__module__", "").startswith("orgrass"):
                return fn
        else:
            cls = mod.__dict__.get(owner)
            if isinstance(cls, type) and attr in cls.__dict__:
                return cls.__dict__[attr]
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self.found: dict = {}
        self._undo: list = []
        self._built = weakref.WeakKeyDictionary()  # engine -> degrees whose slice it built
        self.built_slices: Counter = Counter()  # (n, k, j) -> number of builds

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def raw(self) -> dict:
        """Self and inclusive seconds per span name, plus the counters."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out["self:" + name] += end - start - child
            out["incl:" + name] += end - start
        for key, value in self.counts.items():
            out["count:" + key] += value
        out["missing"] = sorted(self.missing)
        return dict(out)

    # -- installation -----------------------------------------------------------

    def _replace(self, key, wrap) -> None:
        """Put wrap(original) wherever callers look the target up."""
        original = self.found[key]
        owner, attr = TARGETS[key]
        wrapper = functools.wraps(original)(wrap(original))
        for mod in _modules():
            holder = mod if owner is None else mod.__dict__.get(owner)
            if holder is not None and holder.__dict__.get(attr) is original:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def _span(self, name, after=None):
        """A wrapper factory: one span per call, then after(result, *args)."""
        def wrap(fn):
            def wrapper(*args, **kwargs):
                out = self.call(name, fn, *args, **kwargs)
                if after is not None:
                    after(out, *args, **kwargs)
                return out
            return wrapper
        return wrap

    def install(self) -> None:
        """Wrap every target that exists and note the missing ones."""
        package = importlib.import_module("orgrass")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"orgrass.{info.name}")
        for key in TARGETS:
            fn = _find(key)
            if fn is None:
                self.missing.add(key)
            else:
                self.found[key] = fn
        counts = self.counts

        def tally(*keys):
            return lambda out, *args, **kwargs: counts.update(keys)

        def enumerated(out, *args, **kwargs):
            counts["enumerate.calls"] += 1
            counts["enumerate.monomials"] += len(out)

        def scanned(out, k, killed, lo, hi, *args, **kwargs):
            counts["scan.degrees"] += hi + 1

        def reduced(out, *args, **kwargs):
            counts["scan.degrees"] += max(out, default=-1) + 1

        def batched(out, cases):
            top: dict[int, int] = {}
            for k, i, _ in cases:
                top[k] = max(top.get(k, 0), i)
            counts["scan.degrees"] += sum(i + 1 for i in top.values())

        def cached(out, k, cache_dir=None):
            path = out if isinstance(out, str) else self._cache_file(k, cache_dir)
            if path and os.path.exists(path):
                counts["cache.bytes"] += os.path.getsize(path)

        def sliced(sl, engine, j):
            # slices are cached per engine, so the first call for a degree builds it
            counts["slice.calls"] += 1
            seen = self._built.setdefault(engine, set())
            if j in seen:
                return
            seen.add(j)
            self.built_slices[(engine.ctx.n, engine.ctx.k, j)] += 1
            counts["slice.built"] += 1
            counts["slice.rank"] += sl.ideal_rank
            counts["slice.monomials"] += sl.num_monomials
            if "ideal_row_count" in self.found:
                counts["slice.rows"] += self.found["ideal_row_count"](engine, j)

        def pulled_back(out, *args, **kwargs):
            counts["pstar.calls"] += 1
            counts["pstar.nonzero"] += bool(out)

        def searched(out, *args, **kwargs):
            counts["cup_search.tested"] += out.tested
            counts["cup_search.witnesses"] += out.witness is not None

        def checked(rows, *args, **kwargs):
            counts["suites.rows"] += len(rows)
            counts["suites.rows_failed"] += sum(not r.ok for r in rows)

        def grow(fn):
            # only calls that extend the table get a span; entry() calls ensure() every time
            def wrapper(table, i):
                before = table.computed_up_to
                if i <= before:
                    return fn(table, i)
                self.call("duals.ensure", fn, table, i)
                after = table.computed_up_to
                counts["ensure.entries"] += after - before
                counts["ensure.terms"] += sum(len(table.entry(j).terms) for j in range(before + 1, after + 1))
            return wrapper

        wraps = {
            "enumerate": self._span("gf2poly.enumerate", enumerated),
            "ensure": grow,
            "scan_vanishing": self._span("duals.scan", scanned),
            "reduced_dual_classes": self._span("duals.scan", reduced),
            "recurrence_batch": self._span("duals.scan", batched),
            "load_cache": self._span("duals.cache.load", cached),
            "save_cache": self._span("duals.cache.save", cached),
            "engine_init": self._span("cohomology.engine_init", tally("engines")),
            "slice": self._span("cohomology.slice", sliced),
            "w1_rank": self._span("cohomology.w1_rank", tally("w1_rank.calls")),
            "report": self._span("cohomology.report", tally("report.calls")),
            "pstar": self._span("cohomology.pstar", pulled_back),
            "topdie": self._span("cohomology.topdie", tally("topdie.calls")),
            "charrank": self._span("rank_cup.charrank"),
            "cup_upper": self._span("rank_cup.cup_upper"),
            "cup_search": self._span("rank_cup.cup_search", searched),
            **{f"suite_{s}": self._span(f"suites.{s}", checked) for s in SUITE_NAMES},
        }
        for key, wrap in wraps.items():
            if key in self.found:
                self._replace(key, wrap)

    def _cache_file(self, k, cache_dir):
        if "cache_path" not in self.found:
            return None
        if cache_dir is None:
            cache_dir = sys.modules["orgrass.duals"].default_cache_dir()
        return self.found["cache_path"](cache_dir, k)

    # -- slice construction split -------------------------------------------------

    def time_row_generation(self) -> float | None:
        """Seconds spent generating ideal rows for every slice the pass built.

        Each built (context, degree) is regenerated once through the public
        `ideal_rows`, outside any slice span; enumeration time inside it is
        left out, and the result is weighted by how often the pass built
        that slice.  None when `ideal_rows` or `enumerate_monomials` is gone.
        """
        if "ideal_rows" not in self.found or "enumerate" not in self.found:
            return None
        cohomology = sys.modules["orgrass.cohomology"]
        engine = None
        total = 0.0
        for (n, k, j), builds in sorted(self.built_slices.items()):
            ctx = cohomology.GrassmannContext(n, k)
            if engine is None or engine.ctx != ctx:
                engine = cohomology.GrassmannCohomology(ctx)
            first = len(self.spans)
            start = time.perf_counter()
            self.found["ideal_rows"](ctx, j, engine=engine)
            spent = time.perf_counter() - start
            spent -= sum(e - s for name, s, e, _ in self.spans[first:] if name == "gf2poly.enumerate")
            total += spent * builds
        return total


def merge(raws) -> dict:
    """Sum raw totals from several traced processes."""
    out: dict = defaultdict(float)
    missing: set[str] = set()
    for raw in raws:
        for key, value in raw.items():
            if key == "missing":
                missing.update(value)
            else:
                out[key] += value
    out["missing"] = sorted(missing)
    return dict(out)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict:
    """Per-layer metric values from merged raw totals; absent ones are left out."""
    missing = set(raw.get("missing", ()))

    def get(key):
        return raw.get(key, 0.0)

    def count(key):
        return int(round(raw.get("count:" + key, 0)))

    table = [
        ("gf2poly.enumerate.calls", {"enumerate"}, lambda: count("enumerate.calls")),
        ("gf2poly.enumerate.monomials", {"enumerate"}, lambda: count("enumerate.monomials")),
        ("gf2poly.enumerate.self_s", {"enumerate"}, lambda: get("self:gf2poly.enumerate")),
        ("duals.ensure.self_s", {"ensure"}, lambda: get("self:duals.ensure")),
        ("duals.ensure.entries", {"ensure"}, lambda: count("ensure.entries")),
        ("duals.ensure.terms", {"ensure"}, lambda: count("ensure.terms")),
        ("duals.scan.self_s", {"scan_vanishing", "reduced_dual_classes", "recurrence_batch"},
         lambda: get("self:duals.scan")),
        ("duals.scan.degrees", {"scan_vanishing", "reduced_dual_classes", "recurrence_batch"},
         lambda: count("scan.degrees")),
        ("duals.cache.load_s", {"load_cache"}, lambda: get("self:duals.cache.load")),
        ("duals.cache.save_s", {"save_cache"}, lambda: get("self:duals.cache.save")),
        ("duals.cache.bytes", {"load_cache", "save_cache", "cache_path"}, lambda: count("cache.bytes")),
        ("cohomology.engines", {"engine_init"}, lambda: count("engines")),
        ("cohomology.engine_init.self_s", {"engine_init"}, lambda: get("self:cohomology.engine_init")),
        ("cohomology.slice.built", {"slice"}, lambda: count("slice.built")),
        ("cohomology.slice.calls", {"slice"}, lambda: count("slice.calls")),
        ("cohomology.slice.self_s", {"slice"}, lambda: get("self:cohomology.slice")),
        ("cohomology.rows", {"slice", "ideal_row_count"}, lambda: count("slice.rows")),
        ("cohomology.rank", {"slice"}, lambda: count("slice.rank")),
        ("cohomology.monomials", {"slice"}, lambda: count("slice.monomials")),
        ("cohomology.row_yield", {"slice", "ideal_row_count"},
         lambda: _ratio(count("slice.rank"), count("slice.rows"))),
        ("cohomology.rowgen_s", {"slice", "ideal_rows", "enumerate"}, lambda: get("rowgen_s")),
        ("cohomology.elim_s", {"slice", "ideal_rows", "enumerate"},
         lambda: get("self:cohomology.slice") - get("rowgen_s")),
        ("cohomology.w1_rank.self_s", {"w1_rank"}, lambda: get("self:cohomology.w1_rank")),
        ("cohomology.w1_rank.calls", {"w1_rank"}, lambda: count("w1_rank.calls")),
        ("cohomology.report.self_s", {"report"}, lambda: get("self:cohomology.report")),
        ("cohomology.report.calls", {"report"}, lambda: count("report.calls")),
        ("cohomology.pstar.self_s", {"pstar"}, lambda: get("self:cohomology.pstar")),
        ("cohomology.pstar.calls", {"pstar"}, lambda: count("pstar.calls")),
        ("cohomology.pstar.nonzero", {"pstar"}, lambda: count("pstar.nonzero")),
        ("cohomology.topdie.self_s", {"topdie"}, lambda: get("self:cohomology.topdie")),
        ("cohomology.topdie.calls", {"topdie"}, lambda: count("topdie.calls")),
        ("rank_cup.charrank.self_s", {"charrank"}, lambda: get("self:rank_cup.charrank")),
        ("rank_cup.cup_upper.self_s", {"cup_upper"}, lambda: get("self:rank_cup.cup_upper")),
        ("rank_cup.cup_search.self_s", {"cup_search"}, lambda: get("self:rank_cup.cup_search")),
        ("rank_cup.cup_search.tested", {"cup_search"}, lambda: count("cup_search.tested")),
        ("rank_cup.cup_search.yield", {"cup_search"},
         lambda: _ratio(count("cup_search.witnesses"), count("cup_search.tested"))),
    ]
    table += [(f"suites.{s}.s", {f"suite_{s}"}, lambda s=s: get(f"incl:suites.{s}")) for s in SUITE_NAMES]
    every_suite = {f"suite_{s}" for s in SUITE_NAMES}
    table += [
        ("suites.rows", every_suite, lambda: count("suites.rows")),
        ("suites.rows_failed", every_suite, lambda: count("suites.rows_failed")),
        ("cli.import_s", {"cli_main"}, lambda: _ratio(get("cli.import_s"), count("cli.commands"))),
    ]
    table += [(f"cli.{c}.s", {"cli_main"}, lambda c=c: get(f"incl:cli.{c}")) for c in CLI_COMMANDS]
    out = {}
    for name, needs, value in table:
        if not needs & missing:
            out[name] = value()
    return out
