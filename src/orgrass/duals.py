"""Dual Stiefel-Whitney classes of the canonical bundle and their reductions.

The dual class of degree i over w1..wk is the degree-i homogeneous component
of the inverse of the total class 1 + w1 + ... + wk.  It satisfies the
convolution recurrence

    dual_i = w1*dual_{i-1} + w2*dual_{i-2} + ... + wk*dual_{i-k},

with dual_0 = 1.  Killing a subset of the variables commutes with the
recurrence (it is evaluation at 0), so the reduction of dual_i modulo any
variable subset obeys the same recurrence restricted to the surviving
variables.  That is how `scan_vanishing` and `reduced_dual_class` work: they
stream the reduced recurrence directly in the small ring, packing each
surviving exponent vector into a single int, and never materialise the full
dual class.  Equality of the two routes is exercised by the test suite.

Iterating the recurrence s times through the Frobenius gives

    g_i = w2^(2^s)*g_{i-2*2^s} + ... + wk^(2^s)*g_{i-k*2^s}

for the mod-w1 reductions g, valid whenever i >= 1 + k*2^s;
`verify_iterated_recurrence_batch` recomputes both sides independently.

Full dual classes are memoized in a `DualTable`, which can be persisted to a
cache directory as a small versioned text file (one canonical rendering per
line).  Table construction is single-writer; a fully built table is
immutable for readers.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .gf2poly import Exponents, Poly, monomial_degree, parse_poly

__all__ = [
    "DualTable",
    "ReductionScan",
    "dual_table",
    "dual_class",
    "g",
    "reduced_dual_class",
    "reduced_dual_classes",
    "scan_vanishing",
    "verify_iterated_recurrence_batch",
    "CACHE_ENV",
    "CACHE_FORMAT",
    "default_cache_dir",
    "cache_path",
    "load_cache",
    "save_cache",
]


class DualTable:
    """Memoized dual classes for a fixed variable count.

    Entry i is homogeneous of degree i; entry 0 is the constant 1.  The
    table grows on demand and is append-only.
    """

    __slots__ = ("k", "_entries")

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("need at least one variable")
        self.k = k
        self._entries: list[Poly] = [Poly.one(k)]

    @property
    def computed_up_to(self) -> int:
        return len(self._entries) - 1

    def ensure(self, i: int) -> None:
        if i < 0:
            raise ValueError("degree must be non-negative")
        k = self.k
        while len(self._entries) <= i:
            j = len(self._entries)
            acc: set[Exponents] = set()
            for m in range(1, min(k, j) + 1):
                for t in self._entries[j - m].terms:
                    s = t[: m - 1] + (t[m - 1] + 1,) + t[m:]
                    if s in acc:
                        acc.discard(s)
                    else:
                        acc.add(s)
            self._entries.append(Poly._raw(k, frozenset(acc)))

    def entry(self, i: int) -> Poly:
        self.ensure(i)
        return self._entries[i]

    def dump_lines(self) -> list[str]:
        lines = [CACHE_FORMAT, f"k={self.k} max={self.computed_up_to}"]
        lines.extend(f"{i}\t{p}" for i, p in enumerate(self._entries))
        return lines

    @classmethod
    def parse_lines(cls, lines: Sequence[str]) -> "DualTable | None":
        """Rebuild a table from its dump, or None if anything mismatches."""
        try:
            if len(lines) < 2 or lines[0].strip() != CACHE_FORMAT:
                return None
            head = lines[1].split()
            k = int(head[0].removeprefix("k="))
            top = int(head[1].removeprefix("max="))
            body = [ln for ln in lines[2:] if ln.strip()]
            if len(body) != top + 1:
                return None
            table = cls(k)
            for i, ln in enumerate(body):
                num, text = ln.split("\t", 1)
                if int(num) != i:
                    return None
                p = parse_poly(k, text)
                if any(monomial_degree(t) != i for t in p.terms):
                    return None
                if i == 0:
                    if p != Poly.one(k):
                        return None
                    continue
                table._entries.append(p)
            return table
        except (ValueError, IndexError):
            return None


_TABLES: dict[int, DualTable] = {}


def dual_table(k: int) -> DualTable:
    """The process-wide table for k variables."""
    table = _TABLES.get(k)
    if table is None:
        table = _TABLES[k] = DualTable(k)
    return table


def dual_class(k: int, i: int) -> Poly:
    """The degree-i dual class over w1..wk."""
    if i < 0:
        raise ValueError("degree must be non-negative")
    return dual_table(k).entry(i)


# -- reduced recurrence streaming ---------------------------------------


class _Layout:
    """Bit packing of exponent vectors over the surviving variables."""

    __slots__ = ("k", "survivors", "width", "_offsets")

    def __init__(self, k: int, killed: frozenset[int], hi: int):
        self.k = k
        self.survivors = [m for m in range(1, k + 1) if m not in killed]
        # every exponent in degree <= hi is <= hi, so this width cannot overflow
        self.width = max(4, hi.bit_length() + 1)
        self._offsets = {m: self.width * idx for idx, m in enumerate(self.survivors)}

    def shift(self, m: int, e: int = 1) -> int:
        return e << self._offsets[m]

    def unpack(self, code: int) -> Exponents:
        e = [0] * self.k
        mask = (1 << self.width) - 1
        for m in self.survivors:
            e[m - 1] = (code >> self._offsets[m]) & mask
        return tuple(e)

    def to_poly(self, codes: Iterable[int]) -> Poly:
        return Poly._raw(self.k, frozenset(self.unpack(c) for c in codes))


class _ReducedSeries:
    """Stream of the degree-i reductions, as packed-int term sets.

    Yields (i, set_of_codes) for i = 0..hi.  Only the last max(survivor)
    degrees are retained, so memory stays proportional to a single window;
    callers wanting to keep a degree must copy the set.
    """

    def __init__(self, k: int, killed: frozenset[int], hi: int):
        if k < 1:
            raise ValueError("need at least one variable")
        if not killed <= frozenset(range(1, k + 1)):
            raise ValueError(f"kill set {sorted(killed)} outside 1..{k}")
        if hi < 0:
            raise ValueError("degree bound must be non-negative")
        self.k = k
        self.killed = killed
        self.hi = hi
        self.layout = _Layout(k, killed, hi)

    def __iter__(self) -> Iterator[tuple[int, set[int]]]:
        lay = self.layout
        window: dict[int, set[int]] = {0: {0}}
        yield 0, window[0]
        horizon = max(lay.survivors, default=1)
        for i in range(1, self.hi + 1):
            acc: set[int] = set()
            for m in lay.survivors:
                if m > i:
                    break
                prev = window.get(i - m)
                if prev:
                    u = lay.shift(m)
                    acc ^= {c + u for c in prev}
            window[i] = acc
            yield i, acc
            window.pop(i - horizon, None)


def reduced_dual_classes(
    k: int, killed: Iterable[int], degrees: Iterable[int]
) -> dict[int, Poly]:
    """Reductions of the dual classes at several degrees, in one pass."""
    wanted = sorted(set(degrees))
    if not wanted:
        return {}
    if wanted[0] < 0:
        raise ValueError("degrees must be non-negative")
    series = _ReducedSeries(k, frozenset(killed), wanted[-1])
    need = set(wanted)
    out: dict[int, Poly] = {}
    for i, codes in series:
        if i in need:
            out[i] = series.layout.to_poly(codes)
    return out


def reduced_dual_class(k: int, i: int, killed: Iterable[int]) -> Poly:
    """The degree-i dual class with the killed variables set to zero.

    Computed through the reduced recurrence; identical to
    `dual_class(k, i).reduce_mod_vars(killed)` but usable at degrees where
    the full class would be enormous.
    """
    return reduced_dual_classes(k, killed, [i])[i]


def g(k: int, i: int) -> Poly:
    """The mod-w1 reduction of the degree-i dual class (k >= 2)."""
    if k < 2:
        raise ValueError("the mod-w1 reduction needs k >= 2")
    return reduced_dual_class(k, i, {1})


@dataclass(frozen=True)
class ReductionScan:
    """Vanishing pattern of reduced dual classes over a degree range."""

    k: int
    killed: frozenset[int]
    lo: int
    hi: int
    zero_degrees: tuple[int, ...]
    values: Mapping[int, Poly] | None = None


def scan_vanishing(
    k: int,
    killed: Iterable[int],
    lo: int,
    hi: int,
    keep_values: bool = False,
    progress: Callable[[int], None] | None = None,
) -> ReductionScan:
    """List the degrees in [lo, hi] where the reduced dual class vanishes.

    With keep_values=True the reduced polynomial of every scanned degree is
    retained (memory grows with the range; meant for small windows).
    """
    killed = frozenset(killed)
    if lo < 0 or lo > hi:
        raise ValueError(f"bad degree range [{lo}, {hi}]")
    series = _ReducedSeries(k, killed, hi)
    zeros: list[int] = []
    values: dict[int, Poly] | None = {} if keep_values else None
    for i, codes in series:
        if i < lo:
            continue
        if not codes:
            zeros.append(i)
        if values is not None:
            values[i] = series.layout.to_poly(codes)
        if progress is not None and i % 128 == 0:
            progress(i)
    return ReductionScan(
        k=k, killed=killed, lo=lo, hi=hi, zero_degrees=tuple(zeros), values=values
    )


def verify_iterated_recurrence_batch(
    cases: Sequence[tuple[int, int, int]]
) -> list[bool]:
    """Check g_i == sum over m of wm^(2^s) * g_{i - m*2^s} (m = 2..k).

    Many (k, i, s) instances share one streaming pass per k.
    """
    results: list[bool | None] = [None] * len(cases)
    by_k: dict[int, list[int]] = {}
    for idx, (k, i, s) in enumerate(cases):
        if k < 2:
            raise ValueError("the mod-w1 reduction needs k >= 2")
        if s < 0:
            raise ValueError("s must be non-negative")
        bound = 1 + k * (1 << s)
        if i < bound:
            raise ValueError(
                f"identity needs i >= 1 + k*2^s = {bound}, got i={i} (k={k}, s={s})"
            )
        by_k.setdefault(k, []).append(idx)
    for k, idxs in by_k.items():
        needed: set[int] = set()
        for idx in idxs:
            _, i, s = cases[idx]
            step = 1 << s
            needed.add(i)
            needed.update(i - m * step for m in range(2, k + 1))
        series = _ReducedSeries(k, frozenset({1}), max(needed))
        snaps: dict[int, frozenset[int]] = {}
        for deg, codes in series:
            if deg in needed:
                snaps[deg] = frozenset(codes)
        lay = series.layout
        for idx in idxs:
            _, i, s = cases[idx]
            step = 1 << s
            rhs: set[int] = set()
            for m in range(2, k + 1):
                u = lay.shift(m, step)
                rhs ^= {c + u for c in snaps[i - m * step]}
            results[idx] = rhs == set(snaps[i])
    return results  # type: ignore[return-value]


# -- disk cache ----------------------------------------------------------

CACHE_ENV = "ORGRASS_CACHE_DIR"
CACHE_FORMAT = "orgrass-duals/1"
_LOCK_NAME = ".lock"
_LOCK_STALE_SECONDS = 60.0


def default_cache_dir() -> str:
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "orgrass")


def cache_path(cache_dir: str, k: int) -> str:
    return os.path.join(cache_dir, f"dual_k{k}.txt")


class _DirLock:
    """Exclusive-create lock file guarding cache writes."""

    def __init__(self, cache_dir: str, timeout: float = 10.0):
        self.path = os.path.join(cache_dir, _LOCK_NAME)
        self.timeout = timeout

    def __enter__(self) -> "_DirLock":
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode())
                os.close(fd)
                return self
            except FileExistsError:
                try:
                    if time.time() - os.path.getmtime(self.path) > _LOCK_STALE_SECONDS:
                        os.unlink(self.path)
                        continue
                except OSError:
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError(f"cache lock busy: {self.path}")
                time.sleep(0.05)

    def __exit__(self, *exc) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            pass


def load_cache(k: int, cache_dir: str | None = None) -> int:
    """Merge the on-disk table for k into the process table.

    Returns the degree covered by the disk copy (-1 for none), so callers
    can tell whether a later save would add anything.  Unreadable or
    version-mismatched files are ignored (and overwritten on the next save).
    """
    cache_dir = cache_dir or default_cache_dir()
    path = cache_path(cache_dir, k)
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return -1
    loaded = DualTable.parse_lines(lines)
    if loaded is None:
        return -1
    if loaded.computed_up_to > dual_table(k).computed_up_to:
        _TABLES[k] = loaded
    return loaded.computed_up_to


def save_cache(k: int, cache_dir: str | None = None) -> str:
    """Persist the process table for k; returns the file path written."""
    cache_dir = cache_dir or default_cache_dir()
    os.makedirs(cache_dir, exist_ok=True)
    table = dual_table(k)
    path = cache_path(cache_dir, k)
    with _DirLock(cache_dir):
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=f"dual_k{k}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write("\n".join(table.dump_lines()) + "\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    return path
