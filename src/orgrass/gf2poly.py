"""Multivariate polynomials over GF(2) with a weighted grading.

Variables are named w1, ..., wk and wi carries weight i, so the degree of
w1^e1 * w2^e2 * ... * wk^ek is e1 + 2*e2 + ... + k*ek.  A polynomial is a
finite set of monomials: every monomial present has coefficient 1, addition
is symmetric difference of term sets, and squaring is additive (Frobenius).

Monomials are plain exponent tuples.  The canonical term order is graded
(lower degree first), ties broken by comparing exponent tuples largest
first, so w1 is the most significant variable.  `enumerate_monomials` lists
a degree slice in exactly that order; this fixes the column numbering of
every matrix built downstream and the rendering order of `str(Poly)`.
"""

from __future__ import annotations

import re
from typing import Iterable

Exponents = tuple[int, ...]

__all__ = [
    "Exponents",
    "Poly",
    "monomial_degree",
    "term_sort_key",
    "enumerate_monomials",
    "monomial_count",
    "parse_poly",
]


def monomial_degree(exponents: Exponents) -> int:
    """Weighted degree: sum of i * e_i with wi of weight i."""
    return sum(i * e for i, e in enumerate(exponents, start=1))


def term_sort_key(exponents: Exponents):
    """Sort key realising the canonical term order (graded, then w1-major)."""
    return (monomial_degree(exponents), tuple(-e for e in exponents))


def _render_term(exponents: Exponents) -> str:
    if not any(exponents):
        return "1"
    parts = []
    for i, e in enumerate(exponents, start=1):
        if e == 1:
            parts.append(f"w{i}")
        elif e > 1:
            parts.append(f"w{i}^{e}")
    return "*".join(parts)


_FACTOR_RE = re.compile(r"w(\d+)(?:\^(\d+))?\Z")


class Poly:
    """An element of GF(2)[w1..wk] with the weighted grading.

    Instances are immutable; operators never modify their arguments, so
    values can be shared freely across threads.

    >>> p = Poly.parse(3, "w1^2 + w2")
    >>> print(p + p)
    0
    >>> print(p * p)
    w1^4 + w2^2
    >>> p.homogeneous_degree
    2
    >>> print(Poly.parse(3, "w1^3 + w3").reduce_mod_vars({1}))
    w3
    """

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms: Iterable[Exponents] = ()):
        if k < 1:
            raise ValueError("need at least one variable")
        acc: set[Exponents] = set()
        for raw in terms:
            t = tuple(raw)
            if len(t) != k:
                raise ValueError(f"expected {k} exponents, got {t!r}")
            if any(e < 0 for e in t):
                raise ValueError(f"negative exponent in {t!r}")
            if t in acc:
                acc.discard(t)  # coefficients live in GF(2): pairs cancel
            else:
                acc.add(t)
        self.k = k
        self.terms = frozenset(acc)

    @classmethod
    def _raw(cls, k: int, terms: frozenset) -> "Poly":
        """Wrap an already-validated frozenset of exponent tuples."""
        self = object.__new__(cls)
        self.k = k
        self.terms = terms
        return self

    @classmethod
    def zero(cls, k: int) -> "Poly":
        return cls(k)

    @classmethod
    def one(cls, k: int) -> "Poly":
        return cls(k, [(0,) * k])

    @classmethod
    def variable(cls, k: int, i: int) -> "Poly":
        """The variable wi as a polynomial."""
        if not 1 <= i <= k:
            raise ValueError(f"variable w{i} outside w1..w{k}")
        return cls(k, [tuple(1 if j == i else 0 for j in range(1, k + 1))])

    @classmethod
    def monomial(cls, k: int, exponents: Exponents) -> "Poly":
        return cls(k, [exponents])

    @classmethod
    def parse(cls, k: int, text: str) -> "Poly":
        return parse_poly(k, text)

    # -- ring structure -------------------------------------------------

    def _check_compatible(self, other: "Poly") -> None:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if self.k != other.k:
            raise ValueError(f"mixed variable counts: {self.k} vs {other.k}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        return Poly._raw(self.k, self.terms ^ other.terms)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out: set[Exponents] = set()
        for a in self.terms:
            for b in other.terms:
                t = tuple(x + y for x, y in zip(a, b))
                if t in out:
                    out.discard(t)
                else:
                    out.add(t)
        return Poly._raw(self.k, frozenset(out))

    def square(self) -> "Poly":
        """Frobenius: squaring doubles exponents term by term."""
        return Poly._raw(self.k, frozenset(tuple(2 * e for e in t) for t in self.terms))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.one(self.k)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base.square()
        return result

    # -- structure ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None (zero or mixed)."""
        degs = {monomial_degree(t) for t in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def reduce_mod_vars(self, kill: Iterable[int]) -> "Poly":
        """Drop every term with a positive exponent on a killed variable.

        This is evaluation at wi = 0 for i in `kill`; the result still lives
        in the full variable set.
        """
        kill = set(kill)
        if not kill <= set(range(1, self.k + 1)):
            raise ValueError(f"kill set {sorted(kill)} outside 1..{self.k}")
        idx = [i - 1 for i in kill]
        kept = frozenset(t for t in self.terms if all(t[i] == 0 for i in idx))
        return Poly._raw(self.k, kept)

    def sorted_terms(self) -> list[Exponents]:
        return sorted(self.terms, key=term_sort_key)

    # -- protocol -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.k == other.k and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.k, self.terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(_render_term(t) for t in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Poly({self.k}, {str(self)!r})"


def enumerate_monomials(k: int, degree: int) -> list[Exponents]:
    """All exponent tuples of the given weighted degree, in canonical order.

    The list length equals the number of partitions of `degree` into parts
    of size at most k.

    >>> enumerate_monomials(3, 3)
    [(3, 0, 0), (1, 1, 0), (0, 0, 1)]
    """
    if k < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        return []
    out: list[Exponents] = []
    e = [0] * k

    def rec(pos: int, remaining: int) -> None:
        if pos == k - 1:
            weight = k
            if remaining % weight == 0:
                e[pos] = remaining // weight
                out.append(tuple(e))
                e[pos] = 0
            return
        weight = pos + 1
        for c in range(remaining // weight, -1, -1):
            e[pos] = c
            rec(pos + 1, remaining - c * weight)
        e[pos] = 0

    rec(0, degree)
    return out


def monomial_count(k: int, degree: int) -> int:
    """Number of degree-`degree` monomials in w1..wk (partition count)."""
    if degree < 0:
        return 0
    counts = [1] + [0] * degree
    for part in range(1, k + 1):
        for j in range(part, degree + 1):
            counts[j] += counts[j - part]
    return counts[degree]


def _insert_row(pivots: dict[int, int], v: int) -> int | None:
    """Echelon insertion; returns the new pivot column or None if dependent.

    `pivots` maps each pivot column to a bitset row whose lowest set bit is
    that column.
    """
    while v:
        c = (v & -v).bit_length() - 1
        row = pivots.get(c)
        if row is None:
            pivots[c] = v
            return c
        v ^= row
    return None


def parse_poly(k: int, text: str) -> Poly:
    """Parse the canonical rendering back into a polynomial.

    Accepts "0", "1", and sums of '*'-joined factors like "w1^2*w2 + w3".
    Whitespace around '+' and '*' is ignored.
    """
    text = text.strip()
    if text in ("", "0"):
        return Poly.zero(k)
    terms: list[Exponents] = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty term")
        if chunk == "1":
            terms.append((0,) * k)
            continue
        e = [0] * k
        for factor in chunk.split("*"):
            factor = factor.strip()
            m = _FACTOR_RE.match(factor)
            if m is None:
                raise ValueError(f"cannot parse factor {factor!r}")
            i = int(m.group(1))
            exp = int(m.group(2)) if m.group(2) else 1
            if not 1 <= i <= k:
                raise ValueError(f"variable w{i} outside w1..w{k}")
            if exp < 1:
                raise ValueError(f"bad exponent in {factor!r}")
            e[i - 1] += exp
        terms.append(tuple(e))
    return Poly(k, terms)
