"""Cup product with the Stiefel-Whitney classes in the Schubert basis.

H^*(G_{n,k}; Z2) has one basis class sigma(lam) of degree |lam| for each
partition lam in the k x (n-k) box: at most k parts, each at most n-k.  In
the variables of the presentation, w_i = sigma(1^i), a column of i boxes;
the dual classes are the rows sigma(i), which is why they vanish above
degree n-k.  Products with the w_i follow the Pieri rule for vertical
strips: sigma(lam) * w_i is the sum of the sigma(mu) over the partitions mu
in the box that contain lam with mu/lam a vertical strip of i boxes (at
most one box in each row).  For w1 this is Monk's rule: add one box in
every possible way.  (Monk, Proc. London Math. Soc. 1959; Fulton, Young
Tableaux, section 9.4.)

Every degree is computed directly; there is no ideal to eliminate.  dim H^j
is the number of partitions of j in the box, the matrix of cup product with
w1 has one Monk row per partition with at most k nonzero entries, and a
monomial in the w_i expands by one Pieri product per factor.

A class of degree j is an int bitset over `partitions(j)`.  Tables are built
per degree on first use, so a scan of the low degrees never touches the
middle of the box.
"""

from __future__ import annotations

from itertools import combinations

from .gf2poly import Exponents, _insert_row, monomial_degree

__all__ = ["SchubertBasis"]

Partition = tuple[int, ...]


def _box_partitions(j: int, rows: int, cols: int) -> list[Partition]:
    """Partitions of j in the rows x cols box as `rows`-tuples, in ascending
    lexicographic order (which keeps the Monk rows sparse under elimination)."""
    out: list[Partition] = []
    lam = [0] * rows

    def fill(r: int, remaining: int, cap: int) -> None:
        if r == rows - 1 or not remaining:
            if remaining <= cap:
                lam[r] = remaining
                out.append(tuple(lam))
                lam[r] = 0
            return
        for part in range(-(-remaining // (rows - r)), min(remaining, cap) + 1):
            lam[r] = part
            fill(r + 1, remaining - part, part)
        lam[r] = 0

    if 0 <= j <= rows * cols:
        fill(0, j, cols)
    return out


def _monk(lam: Partition, cols: int) -> list[Partition]:
    """The mu in the box with one box more than lam."""
    out = []
    prev = cols
    for r, part in enumerate(lam):
        if part < prev:
            out.append(lam[:r] + (part + 1,) + lam[r + 1 :])
            if not part:
                break
        prev = part
    return out


def _vertical_strips(lam: Partition, i: int, cols: int) -> list[Partition]:
    """The mu in the box with mu/lam a vertical strip of i boxes."""
    if i == 1:
        return _monk(lam, cols)
    out = []
    for added in combinations(range(len(lam)), i):
        mu = list(lam)
        for r in added:
            mu[r] += 1
        if mu[0] <= cols and all(mu[r - 1] >= mu[r] for r in added if r):
            out.append(tuple(mu))
    return out


class SchubertBasis:
    """Lazy per-degree Schubert tables of the rows x cols box, i.e. of G(rows+cols, rows)."""

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.top = rows * cols
        self._parts: dict[int, tuple[Partition, ...]] = {}
        self._index: dict[int, dict[Partition, int]] = {}
        self._images: dict[int, dict[int, int]] = {}
        self._expansions: dict[Exponents, int] = {(0,) * rows: 1}

    def partitions(self, j: int) -> tuple[Partition, ...]:
        parts = self._parts.get(j)
        if parts is None:
            parts = tuple(_box_partitions(j, self.rows, self.cols))
            self._index[j] = {lam: c for c, lam in enumerate(parts)}
            self._parts[j] = parts  # last, so a reader that finds it finds the index too
        return parts

    def _index_of(self, j: int) -> dict[Partition, int]:
        self.partitions(j)
        return self._index[j]

    def dim(self, j: int) -> int:
        return len(self.partitions(j))

    def times_w(self, v: int, j: int, i: int) -> int:
        """The degree-j class v times w_i, a class of degree j+i."""
        if not v or j + i > self.top:
            return 0
        parts = self.partitions(j)
        index = self._index_of(j + i)
        cols = self.cols
        out = 0
        while v:
            low = v & -v
            for mu in _vertical_strips(parts[low.bit_length() - 1], i, cols):
                out ^= 1 << index[mu]
            v ^= low
        return out

    def w1_image(self, j: int) -> dict[int, int]:
        """Echelonized image of cup product with w1 from degree j-1 to degree j."""
        img = self._images.get(j)
        if img is None:
            img = {}
            if 0 < j <= self.top:
                index = self._index_of(j)
                for lam in self.partitions(j - 1):
                    v = 0
                    for mu in _monk(lam, self.cols):
                        v |= 1 << index[mu]
                    _insert_row(img, v)
            self._images[j] = img
        return img

    def w1_rank(self, j: int) -> int:
        """Rank of cup product with w1 from degree j to degree j+1."""
        return len(self.w1_image(j + 1)) if 0 <= j < self.top else 0

    def expand(self, e: Exponents) -> int:
        """The monomial prod w_i^e_i as a class of degree sum i*e_i.

        Each expansion is memoised and built from the monomial with its last
        factor removed, walking down to the nearest memoised monomial first.
        """
        memo = self._expansions
        chain = []
        while e not in memo:
            i = max(r for r, a in enumerate(e) if a)
            chain.append((e, i + 1))
            e = e[:i] + (e[i] - 1,) + e[i + 1 :]
        v, degree = memo[e], monomial_degree(e)
        for e, i in reversed(chain):
            v = memo[e] = self.times_w(v, degree, i)
            degree += i
        return v
