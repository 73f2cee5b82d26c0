"""Dual Stiefel-Whitney classes of the canonical bundle and their reductions.

The dual class of degree i over w1..wk is the degree-i homogeneous component
of the inverse of the total class 1 + w1 + ... + wk.  It satisfies the
convolution recurrence

    dual_i = w1*dual_{i-1} + w2*dual_{i-2} + ... + wk*dual_{i-k},

with dual_0 = 1.  Killing a subset of the variables commutes with the
recurrence (it is evaluation at 0), so the reduction of dual_i modulo any
variable subset obeys the same recurrence restricted to the surviving
variables s0 < s1 < s2 < ....

Where a reduced class vanishes needs no polynomials at all.  Write S for
the surviving variables, W = 1 + sum_{m in S} w_m, g = 1/W and F for the
map that squares every variable.  Over Z2, W^2 = F(W), so g = W * F(g),
which in degree i reads

    g_i = sum over m in {0} u S, m <= i, m = i (mod 2) of w_m * F(g_{(i-m)/2})

with w_0 = 1.  Every exponent in the m-th summand is even except that of
w_m, which is odd, so no two summands share a monomial; F and
multiplication by w_m are injective.  Hence g_i = 0 exactly when every such
g_{(i-m)/2} = 0 (the halving rule; g_0 = 1, and an empty condition means
zero).  `scan_vanishing` takes its zero degrees from that rule, at O(k)
byte operations per degree, and runs the kernel only for the values it is
asked to keep, checking every degree's zero flag against them.

One packed kernel, `_Kernel`, runs the recurrence for every class that is
computed: the full table, the values `scan_vanishing` keeps,
`reduced_dual_classes` (and so `g` and `reduced_dual_class`) and
`verify_iterated_recurrence_batch`.  It stores a degree-i class as a dict
`key -> int bitmask`:

* s0 is implicit: its exponent is fixed by the degree, so multiplying by
  w_{s0} leaves a term's packed form unchanged;
* the dense axis is w_{2*s0} if that variable survives, else s1: its
  exponent is the bit position in the mask, so multiplying by it is
  `mask << 1`, one word operation for a whole row of monomials;
* every other survivor is packed into the key, in ascending order, one
  fixed-width field each, so multiplying by w_m adds a constant to the key.

The pair (w_{s0}, w_{2*s0}) follows the digit rule (a term survives exactly
when its exponents' binary digits are disjoint): w_{s0}^a * w_{2*s0}^b
spends s0*(a + 2b) of the degree, so for fixed keyed exponents many (a, b)
with disjoint digits survive, and one key gathers more terms than with
s1 as the dense axis.  Nothing killed gives (w1, w2) by either rule; mod
w1 it is (w2, w4) for k >= 4 and (w2, w3) for k = 3.

Field widths come from a degree bound: no exponent of w_m in degree <= hi
exceeds hi // m, and the smallest keyed m sets the width, so no field can
overflow, and the kernel refuses degrees past its bound.  Exponent tuples,
and so `Poly` objects, are built only for the degrees a caller asks to see.

Iterating the recurrence s times through the Frobenius gives

    g_i = w2^(2^s)*g_{i-2*2^s} + ... + wk^(2^s)*g_{i-k*2^s}

for the mod-w1 reductions g, valid whenever i >= 1 + k*2^s;
`verify_iterated_recurrence_batch` checks it on the packed classes, where
w2^(2^s) leaves a term's packed form unchanged (w2 is implicit), and any
other w_m^(2^s) is a shift by 2^s on the dense axis or a key offset.

Full dual classes are memoized in a `DualTable`, which keeps the packed
class of every degree it has reached and builds a degree's `Poly` only
when `entry` first asks for it.  A table can be persisted to a cache
directory as a small versioned text file (one canonical rendering per
line); loading checks every entry against the kernel.  Table growth is
single-writer; readers may share a grown table, since the `Poly` memo only
ever stores the one value a degree has.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .gf2poly import Exponents, Poly, parse_poly

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

# a packed homogeneous class: key (keyed exponents) -> mask over the dense axis
State = dict[int, int]


class _Kernel:
    """The dual recurrence over the surviving variables, on packed states.

    The implicit axis is s0.  The dense axis is w_{2*s0} when that variable
    survives, else s1; every other survivor is a keyed field, in ascending
    order.  The digit rule is why w_{2*s0} is the better partner: a term
    w_{s0}^a * w_{2*s0}^b spends s0*(a + 2b) of the degree, and a and b
    need only disjoint binary digits, so for fixed keyed exponents many
    (a, b) survive and one key gathers more terms.  With nothing killed
    the pair is (w1, w2) either way.
    """

    __slots__ = ("k", "survivors", "implicit", "dense", "hi", "width", "_units")

    def __init__(self, k: int, killed: frozenset[int], hi: int):
        if k < 1:
            raise ValueError("need at least one variable")
        if not killed <= frozenset(range(1, k + 1)):
            raise ValueError(f"kill set {sorted(killed)} outside 1..{k}")
        if hi < 0:
            raise ValueError("degree bound must be non-negative")
        self.k = k
        surv = self.survivors = tuple(m for m in range(1, k + 1) if m not in killed)
        self.hi = hi
        # variables are numbered from 1, so 0 stands for an absent axis
        self.implicit = surv[0] if surv else 0
        if 2 * self.implicit in surv:
            self.dense = 2 * self.implicit
        else:
            self.dense = surv[1] if len(surv) > 1 else 0
        keyed = [m for m in surv[1:] if m != self.dense]
        # the smallest keyed variable has the largest exponents: at most hi // m
        self.width = (hi // keyed[0]).bit_length() if keyed else 0
        self._units = {m: 1 << (self.width * idx) for idx, m in enumerate(keyed)}

    def step(self, i: int, states: Sequence[State] | Mapping[int, State]) -> State:
        """The degree-i class, from states[i - m] for each surviving m <= i."""
        if i > self.hi:
            raise ValueError(f"degree {i} past the packing bound {self.hi}")
        if i == 0:
            return {0: 1}
        acc: State = {}
        # ascending, so the implicit axis comes first and can copy into acc
        for m in self.survivors:
            if m > i:
                break
            prev = states[i - m]
            if prev:
                self.add_product(acc, m, 1, prev)
        return acc

    def add_product(self, acc: State, m: int, e: int, state: State) -> None:
        """acc += w_m^e * state, in place; acc must not be state."""
        get = acc.get
        if m == self.implicit:
            if not acc:
                acc.update(state)
                return
            for key, v in state.items():
                x = get(key, 0) ^ v
                if x:
                    acc[key] = x
                else:
                    del acc[key]
        elif m == self.dense:
            for key, v in state.items():
                x = get(key, 0) ^ (v << e)
                if x:
                    acc[key] = x
                else:
                    del acc[key]
        else:
            off = e * self._units[m]
            for key, v in state.items():
                key += off
                x = get(key, 0) ^ v
                if x:
                    acc[key] = x
                else:
                    del acc[key]

    def poly(self, i: int, state: State) -> Poly:
        """The degree-i class `state` as a polynomial over w1..wk."""
        implicit, dense = self.implicit, self.dense
        field = (1 << self.width) - 1
        out: list[Exponents] = []
        e = [0] * self.k
        for key, v in state.items():
            rest = i
            for m, unit in self._units.items():
                x = (key // unit) & field
                e[m - 1] = x
                rest -= m * x
            for b, bit in enumerate(bin(v)[:1:-1]):
                if bit == "1":
                    if dense:
                        e[dense - 1] = b
                    if implicit:
                        e[implicit - 1] = (rest - dense * b) // implicit
                    out.append(tuple(e))
        return Poly._raw(self.k, frozenset(out))

    def series(self) -> Iterator[tuple[int, State]]:
        """Yield (i, state) for i = 0..hi, keeping one window of degrees."""
        horizon = max(self.survivors, default=1)
        window: dict[int, State] = {}
        for i in range(self.hi + 1):
            state = window[i] = self.step(i, window)
            yield i, state
            window.pop(i - horizon, None)


# the table's fields are sized for this degree, so they never need repacking
_TABLE_MAX_DEGREE = (1 << 32) - 1


class DualTable:
    """Memoized dual classes for a fixed variable count.

    Entry i is homogeneous of degree i; entry 0 is the constant 1.  The
    table grows on demand and is append-only.  It keeps every degree in
    packed form and builds a degree's `Poly` when `entry` first asks.
    """

    __slots__ = ("k", "_kernel", "_states", "_polys")

    def __init__(self, k: int):
        self.k = k
        self._kernel = _Kernel(k, frozenset(), _TABLE_MAX_DEGREE)
        self._states: list[State] = [{0: 1}]
        self._polys: dict[int, Poly] = {}

    @property
    def computed_up_to(self) -> int:
        return len(self._states) - 1

    def ensure(self, i: int) -> None:
        if i < 0:
            raise ValueError("degree must be non-negative")
        if i > _TABLE_MAX_DEGREE:
            raise ValueError(f"degree {i} past the table's limit {_TABLE_MAX_DEGREE}")
        states = self._states
        step = self._kernel.step
        for j in range(len(states), i + 1):
            states.append(step(j, states))

    def entry(self, i: int) -> Poly:
        self.ensure(i)
        p = self._polys.get(i)
        if p is None:
            p = self._polys[i] = self._kernel.poly(i, self._states[i])
        return p

    def dump_lines(self) -> list[str]:
        lines = [CACHE_FORMAT, f"k={self.k} max={self.computed_up_to}"]
        lines.extend(f"{i}\t{self.entry(i)}" for i in range(self.computed_up_to + 1))
        return lines

    @classmethod
    def parse_lines(cls, lines: Sequence[str]) -> "DualTable | None":
        """Rebuild a table from its dump, or None if anything mismatches.

        Every entry must equal the kernel's class of its degree, so a
        corrupted but well-formed file is rejected too.
        """
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
            table.ensure(top)
            for i, ln in enumerate(body):
                num, text = ln.split("\t", 1)
                if int(num) != i or parse_poly(k, text) != table.entry(i):
                    return None
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


def reduced_dual_classes(
    k: int, killed: Iterable[int], degrees: Iterable[int]
) -> dict[int, Poly]:
    """Reductions of the dual classes at several degrees, in one pass."""
    wanted = sorted(set(degrees))
    if not wanted:
        return {}
    if wanted[0] < 0:
        raise ValueError("degrees must be non-negative")
    kernel = _Kernel(k, frozenset(killed), wanted[-1])
    need = set(wanted)
    return {i: kernel.poly(i, state) for i, state in kernel.series() if i in need}


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


def _zero_flags(survivors: Sequence[int], hi: int) -> bytearray:
    """flags[i] = 1 exactly when the reduced dual class of degree i is zero.

    Over the survivors S, g = W * F(g), where W = 1 + sum_{m in S} w_m and F
    squares every variable (over Z2, 1/W = W * (1/W)^2 and W^2 = F(W)).  In
    degree i, g_i is the sum of w_m * F(g_{(i-m)/2}) over m in {0} u S with
    m <= i and m = i (mod 2), where w_0 = 1.  In the m-th summand every
    exponent is even except that of w_m, which is odd, so the summands
    share no monomial, and F and multiplication by w_m are injective.  So
    g_i = 0 exactly when every such g_{(i-m)/2} is 0.  Degree 0 is nonzero
    (g_0 = 1), and a degree with no such m is zero.
    """
    # the m of each parity, ascending, so the first m > i ends the condition
    parts = ([m for m in (0, *survivors) if m % 2 == 0], [m for m in survivors if m % 2])
    flags = bytearray(hi + 1)
    for i in range(1, hi + 1):
        zero = 1
        for m in parts[i & 1]:
            if m > i:
                break
            if not flags[(i - m) >> 1]:
                zero = 0
                break
        flags[i] = zero
    return flags


def scan_vanishing(
    k: int,
    killed: Iterable[int],
    lo: int,
    hi: int,
    keep_values: bool = False,
    progress: Callable[[int], None] | None = None,
) -> ReductionScan:
    """List the degrees in [lo, hi] where the reduced dual class vanishes.

    The zero degrees come from the halving rule (`_zero_flags`), so a scan
    computes no polynomial.  With keep_values=True the kernel also streams
    every degree up to hi and the reduced polynomial of every scanned
    degree is retained (memory grows with the range; meant for small
    windows); a degree where the kernel's class and the rule disagree on
    vanishing raises RuntimeError.

    >>> scan_vanishing(3, {1}, 2, 100).zero_degrees
    (5, 13, 29, 61)
    """
    killed = frozenset(killed)
    if lo < 0 or lo > hi:
        raise ValueError(f"bad degree range [{lo}, {hi}]")
    kernel = _Kernel(k, killed, hi)
    flags = _zero_flags(kernel.survivors, hi)
    values: dict[int, Poly] | None = None
    if keep_values:
        values = {}
        for i, state in kernel.series():
            if (not state) != flags[i]:
                raise RuntimeError(
                    f"degree {i}: the kernel's class is {'nonzero' if state else 'zero'}, "
                    f"the halving rule says {'zero' if flags[i] else 'nonzero'}"
                )
            if i >= lo:
                values[i] = kernel.poly(i, state)
                if progress is not None and i % 128 == 0:
                    progress(i)
    elif progress is not None:
        for i in range(-(-lo // 128) * 128, hi + 1, 128):
            progress(i)
    zeros = tuple(compress(range(lo, hi + 1), flags[lo:]))
    return ReductionScan(k=k, killed=killed, lo=lo, hi=hi, zero_degrees=zeros, values=values)


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
        kernel = _Kernel(k, frozenset({1}), max(needed))
        # states are never mutated once yielded, so they can be held as they are
        snaps = {i: state for i, state in kernel.series() if i in needed}
        for idx in idxs:
            _, i, s = cases[idx]
            step = 1 << s
            rhs: State = {}
            for m in range(2, k + 1):
                kernel.add_product(rhs, m, step, snaps[i - m * step])
            results[idx] = rhs == snaps[i]
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
    version-mismatched files, and files with any entry that differs from
    the kernel's class of its degree, are ignored (and overwritten on the
    next save).
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
