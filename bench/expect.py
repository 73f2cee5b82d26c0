"""Expected outputs derived without the orgrass package.

Everything here is computed from first principles, so a check built on it
can fail when the package is wrong:

* Dual classes.  Over GF(2), (1 + w1 + ... + wk)^-1 = sum_n (w1 + ... + wk)^n,
  so the coefficient of w1^e1...wk^ek in the dual class is the multinomial
  (e1 + ... + ek; e1, ..., ek) mod 2.  By Lucas' theorem that is 1 exactly
  when the ei have pairwise disjoint binary digits.  Killing variables keeps
  the terms that avoid them.
* Betti numbers of G(n,k).  dim H^j is the number of partitions of j that
  fit in a k x (n-k) box (one Schubert cell each), and the total is C(n,k).
* Mod-w1 vanishing.  The reduced dual classes vanish exactly in degrees
  2^t - 3 for k = 3, 4 and nowhere for k = 5, 6 (the statements the
  package's acceptance checklist reproduces).

`fingerprint` covers the remaining numeric outputs: it hashes the numbers of
a JSON value and ignores its strings, so route labels such as `strategy`
may change without a mismatch while any count or dimension may not.
"""

from __future__ import annotations

import hashlib
import json
import re
from functools import lru_cache

_FACTOR = re.compile(r"w(\d+)(?:\^(\d+))?\Z")


def parse_terms(k: int, text: str) -> frozenset[tuple[int, ...]]:
    """Exponent vectors of a rendered polynomial such as "w1^2*w2 + w3"."""
    text = text.strip()
    if text == "0":
        return frozenset()
    terms = set()
    for chunk in text.split(" + "):
        e = [0] * k
        if chunk != "1":
            for factor in chunk.split("*"):
                m = _FACTOR.match(factor)
                if m is None:
                    raise ValueError(f"bad factor {factor!r} in {text[:80]!r}")
                e[int(m.group(1)) - 1] += int(m.group(2) or 1)
        term = tuple(e)
        if term in terms:
            raise ValueError(f"repeated term {chunk!r}")
        terms.add(term)
    return frozenset(terms)


def dual_terms(k: int, i: int, killed: frozenset[int] = frozenset()) -> frozenset[tuple[int, ...]]:
    """Terms of the degree-i dual class over w1..wk with `killed` set to zero.

    Each binary digit 2^b is given to at most one surviving variable m, which
    adds m * 2^b to the degree; digits are assigned from the lowest up.
    """
    survivors = [m for m in range(1, k + 1) if m not in killed]
    out: set[tuple[int, ...]] = set()
    e = [0] * k

    def rec(bit: int, remaining: int) -> None:
        if remaining == 0:
            out.add(tuple(e))
            return
        unit = 1 << bit
        for m in [0] + survivors:
            rest = remaining - m * unit
            if rest < 0 or rest % (unit << 1):
                continue
            if m:
                e[m - 1] |= unit
            rec(bit + 1, rest)
            if m:
                e[m - 1] &= ~unit

    rec(0, i)
    return frozenset(out)


@lru_cache(maxsize=None)
def _box_counts(rows: int, cols: int) -> tuple[int, ...]:
    """Coefficients of the Gaussian binomial [rows+cols choose rows]_q."""
    if rows == 0 or cols == 0:
        return (1,)
    # a partition in the box either has fewer than `rows` parts, or has
    # exactly `rows` parts, each of which can lose one box
    short = _box_counts(rows - 1, cols)
    full = _box_counts(rows, cols - 1)
    out = [0] * (rows * cols + 1)
    for j, c in enumerate(short):
        out[j] += c
    for j, c in enumerate(full):
        out[j + rows] += c
    return tuple(out)


def box_partitions(k: int, n: int, j: int) -> int:
    """Number of partitions of j in a k x (n-k) box, i.e. dim H^j(G(n,k))."""
    counts = _box_counts(k, n - k)
    return counts[j] if 0 <= j < len(counts) else 0


def vanishing_degrees(k: int, lo: int, hi: int) -> list[int]:
    """Degrees in [lo, hi] where the mod-w1 reduced dual class vanishes."""
    if k in (3, 4):
        out, t = [], 2
        while (1 << t) - 3 <= hi:
            if (1 << t) - 3 >= lo:
                out.append((1 << t) - 3)
            t += 1
        return out
    if k in (5, 6):
        return []
    raise ValueError(f"no stated vanishing set for k={k}")


def _numbers(value):
    if isinstance(value, dict):
        return {key: _numbers(v) for key, v in sorted(value.items()) if not isinstance(v, str)}
    if isinstance(value, (list, tuple)):
        return [_numbers(v) for v in value if not isinstance(v, str)]
    return value


def fingerprint(value) -> str:
    """Short hash of the numbers, booleans and nulls inside a JSON value."""
    text = json.dumps(_numbers(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
