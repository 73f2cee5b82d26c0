"""Independent oracles for the test suite.

Everything here is deliberately reimplemented from first principles
(straight DP or brute-force enumeration), sharing no code path with the
package internals it is used to check.
"""

from __future__ import annotations

import random
from functools import lru_cache

from orgrass import Poly, monomial_degree


def partitions_with_parts_up_to(j: int, k: int) -> int:
    """Number of partitions of j into parts of size at most k (DP)."""
    if j < 0:
        return 0
    table = [[0] * (j + 1) for _ in range(k + 1)]
    for part in range(k + 1):
        table[part][0] = 1
    for part in range(1, k + 1):
        for total in range(1, j + 1):
            table[part][total] = table[part - 1][total]
            if total >= part:
                table[part][total] += table[part][total - part]
    return table[k][j]


@lru_cache(maxsize=None)
def _box_count(total: int, parts_left: int, max_part: int) -> int:
    if total == 0:
        return 1
    if parts_left == 0 or max_part == 0:
        return 0
    return sum(
        _box_count(total - p, parts_left - 1, p)
        for p in range(min(total, max_part), 0, -1)
    )


def partitions_in_box(j: int, rows: int, cols: int) -> int:
    """Partitions of j with at most `rows` parts, each at most `cols`.

    These count the degree-j Schubert cells of the Grassmannian of
    `rows`-planes in (rows+cols)-space.
    """
    if j < 0:
        return 0
    return _box_count(j, rows, cols)


def box_partitions_by_degree(rows: int, cols: int) -> list[list[tuple[int, ...]]]:
    """The partitions in the rows x cols box as `rows`-tuples, by degree."""
    by_degree: list[list[tuple[int, ...]]] = [[] for _ in range(rows * cols + 1)]

    def fill(prefix: tuple[int, ...], cap: int) -> None:
        if len(prefix) == rows:
            by_degree[sum(prefix)].append(prefix)
            return
        for part in range(cap + 1):
            fill(prefix + (part,), part)

    fill((), cols)
    return by_degree


def _monk_pivots(rows: int, cols: int, sources, column) -> dict[int, int]:
    """The Monk rows of the partitions `sources` over the targets `column`
    (partition -> bit), eliminated on the lowest set bit: row lam has a 1 at
    every partition mu in the box obtained by adding one box to lam."""
    pivots: dict[int, int] = {}
    for lam in sources:
        v = 0
        for r in range(rows):
            if lam[r] < (cols if r == 0 else lam[r - 1]):
                v |= 1 << column[lam[:r] + (lam[r] + 1,) + lam[r + 1 :]]
        v = _reduce(v, pivots)
        if v:
            pivots[v & -v] = v
    return pivots


def _reduce(v: int, pivots: dict[int, int]) -> int:
    while v and (v & -v) in pivots:
        v ^= pivots[v & -v]
    return v


def monk_ranks(rows: int, cols: int) -> list[int]:
    """Rank over GF(2) of Monk's rule from degree j to j+1, for every j."""
    by_degree = box_partitions_by_degree(rows, cols)
    ranks = []
    for j, parts in enumerate(by_degree):
        if j == rows * cols:
            ranks.append(0)
            break
        column = {mu: c for c, mu in enumerate(by_degree[j + 1])}
        ranks.append(len(_monk_pivots(rows, cols, parts, column)))
    return ranks


def monk_multiples(rows: int, cols: int, samples: list[list[set]]) -> list[list[bool]]:
    """Whether each class of samples[j], the sum of a set of partitions of j
    in the box, is a multiple of w1: whether it lies in the span of the
    Monk rows from degree j-1."""
    by_degree = box_partitions_by_degree(rows, cols)
    out = []
    for j, classes in enumerate(samples):
        column = {mu: c for c, mu in enumerate(by_degree[j])}
        pivots = _monk_pivots(rows, cols, by_degree[j - 1] if j else [], column)
        out.append(
            [not _reduce(sum(1 << column[mu] for mu in parts), pivots) for parts in classes]
        )
    return out


def truncated_geometric_inverse(k: int, degree: int) -> Poly:
    """Degree-`degree` component of 1 + W + W^2 + ... with W = w1 + ... + wk.

    Computed by truncated power accumulation, independently of the
    convolution recurrence used by the package.
    """
    w = Poly(k, [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)])

    def truncate(p: Poly, bound: int) -> Poly:
        return Poly(k, [t for t in p.terms if monomial_degree(t) <= bound])

    total = Poly.one(k)
    power = Poly.one(k)
    for _ in range(degree):
        power = truncate(power * w, degree)
        total = total + power
    return Poly(k, [t for t in total.terms if monomial_degree(t) == degree])


def digit_rule_terms(k: int, degree: int, killed=frozenset()) -> frozenset[tuple[int, ...]]:
    """Terms of the degree-`degree` dual class with the `killed` variables zero.

    The dual class is the degree-`degree` part of sum_n (w1 + ... + wk)^n,
    so the coefficient of w1^e1...wk^ek is the multinomial coefficient
    (e1 + ... + ek)! / (e1! ... ek!) mod 2.  By Lucas' theorem that is 1
    exactly when the binary digits of e1..ek are pairwise disjoint.  The
    terms are found digit by digit from the lowest: each binary digit goes
    to at most one surviving wm, which spends m times that digit's value.
    """
    alive = [m for m in range(1, k + 1) if m not in killed]
    out: list[tuple[int, ...]] = []
    e = [0] * k

    def rec(bit: int, remaining: int) -> None:
        # remaining is the degree still to spend, in units of 2^bit
        if remaining == 0:
            out.append(tuple(e))
            return
        for m in alive:
            if m <= remaining and (remaining - m) % 2 == 0:
                e[m - 1] += 1 << bit
                rec(bit + 1, (remaining - m) // 2)
                e[m - 1] -= 1 << bit
        if remaining % 2 == 0:
            rec(bit + 1, remaining // 2)

    rec(0, degree)
    return frozenset(out)


def random_poly(rng: random.Random, k: int, max_degree: int = 6, max_terms: int = 6) -> Poly:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        e = [0] * k
        budget = rng.randint(0, max_degree)
        while budget > 0:
            i = rng.randint(1, k)
            if i <= budget:
                e[i - 1] += 1
                budget -= i
            else:
                budget = 0
        terms.append(tuple(e))
    return Poly(k, terms)
