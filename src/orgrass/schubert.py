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

A cell is the 01-word of lam (Fulton, 9.4): an n-bit int whose k ones sit
at positions lam_{k-r} + r, so its degree is the sum of the positions minus
k(k-1)/2.  Adding a box moves a one up into a free bit, so the Monk targets
of w are w + b for each one b of w with a free bit above it, and a vertical
strip of i boxes adds a sum of i ones.  The cells of degree j are level j of
a spanning tree of Young's lattice (the parent of a cell drops the last box
of its last nonzero row); above the middle degree the tree runs on the n-k
complementary ones.  A class of degree j is an int bitset over the ascending
`cells(j)`, built per degree on first use.

The w1 rank of a degree reduces its Monk rows on their highest bits: a cell
whose top one can move (lam_1 < n-k) leads with its own target, so it is a
pivot without elimination, and only the cells with lam_1 = n-k, which sort
last, are reduced.  Ranks are cached as ints; an echelon is kept only for the
degrees that `in_image` is asked about.
"""

from __future__ import annotations

from itertools import combinations

from .gf2poly import Exponents, monomial_degree

__all__ = ["SchubertBasis"]


def _monk(w: int, n: int) -> list[int]:
    """The cells with one box more than the n-bit cell w."""
    out = []
    free_above = w & ~(w >> 1) & ((1 << (n - 1)) - 1)
    while free_above:
        low = free_above & -free_above
        out.append(w + low)
        free_above ^= low
    return out


def _vertical_strips(w: int, i: int, n: int) -> list[int]:
    """The cells mu with mu/w a vertical strip of i boxes."""
    if i == 1:
        return _monk(w, n)
    ones = [1 << p for p in range(n - 1) if w >> p & 1]
    out = []
    for moved in combinations(ones, i):
        t = sum(moved)
        if not (w ^ t) & (t << 1):
            out.append(w + t)
    return out


def _tree_level(words, n: int) -> list[int]:
    """The next level of the spanning tree: a child starts a new row (the top
    one of the trailing run moves into the lowest zero) or adds a box to the
    last nonzero row (the lowest displaced one moves up into a free bit)."""
    top = 1 << (n - 1)
    out = []
    for w in words:
        zero = ~w & (w + 1)
        if 1 < zero <= top:
            out.append(w + (zero >> 1))
        displaced = w & -zero
        low = displaced & -displaced
        if low and low < top and not w & (low << 1):
            out.append(w + low)
    return out


class SchubertBasis:
    """Lazy per-degree Schubert tables of the rows x cols box, i.e. of G(rows+cols, rows)."""

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.n = rows + cols
        self.top = rows * cols
        self._cells: dict[int, tuple[int, ...]] = {
            0: ((1 << rows) - 1,),
            self.top: (((1 << rows) - 1) << cols,),
        }
        self._index: dict[int, dict[int, int]] = {}
        self._ranks: dict[int, int] = {}
        self._echelons: dict[int, dict[int, int]] = {}
        self._expansions: dict[Exponents, int] = {(0,) * rows: 1}

    def cells(self, j: int) -> tuple[int, ...]:
        """The degree-j cells as n-bit words, ascending."""
        if not 0 <= j <= self.top:
            return ()
        cached = self._cells
        if j in cached:
            return cached[j]
        # walk towards the root of the tree: degree 0, or the top degree on
        # the complementary words
        step, flip = (-1, 0) if 2 * j <= self.top else (1, (1 << self.n) - 1)
        chain = []
        while j not in cached:
            chain.append(j)
            j += step
        for j in reversed(chain):
            level = _tree_level([w ^ flip for w in cached[j + step]], self.n)
            cached[j] = tuple(sorted(w ^ flip for w in level))
        return cached[j]

    def _index_of(self, j: int) -> dict[int, int]:
        index = self._index.get(j)
        if index is None:
            cells = self.cells(j)
            index = self._index[j] = dict(zip(cells, range(len(cells))))
        return index

    def dim(self, j: int) -> int:
        return len(self.cells(j))

    def times_w(self, v: int, j: int, i: int) -> int:
        """The degree-j class v times w_i, a class of degree j+i."""
        if not v or j + i > self.top:
            return 0
        cells = self.cells(j)
        index = self._index_of(j + i)
        n = self.n
        out = 0
        while v:
            low = v & -v
            for mu in _vertical_strips(cells[low.bit_length() - 1], i, n):
                out ^= 1 << index[mu]
            v ^= low
        return out

    def _image_echelon(self, j: int) -> dict[int, int]:
        """Echelon of the image of cup product with w1 from degree j-1 to
        degree j, keyed by the bit length of each row's highest bit."""
        index = self._index_of(j)
        n, monk = self.n, _monk
        pivots: dict[int, int] = {}
        for w in self.cells(j - 1):
            v = 0
            for mu in monk(w, n):
                v |= 1 << index[mu]
            b = v.bit_length()
            while b in pivots:
                v ^= pivots[b]
                b = v.bit_length()
            if v:
                pivots[b] = v
        return pivots

    def w1_rank(self, j: int) -> int:
        """Rank of cup product with w1 from degree j to degree j+1."""
        if not 0 <= j < self.top:
            return 0
        rank = self._ranks.get(j)
        if rank is None:
            rank = self._ranks[j] = len(self._echelons.get(j + 1) or self._image_echelon(j + 1))
        return rank

    def in_image(self, v: int, j: int) -> bool:
        """Is the degree-j class v a multiple of w1?"""
        if not 0 < j <= self.top:
            return not v
        pivots = self._echelons.get(j)
        if pivots is None:
            pivots = self._echelons[j] = self._image_echelon(j)
        while v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        return not v

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
