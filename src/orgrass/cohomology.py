"""Degreewise mod-2 cohomology of real Grassmannians and their double covers.

H^*(G_{n,k}; Z2) is the quotient of Z2[w1..wk] by the ideal generated by the
dual classes in degrees n-k+1, ..., n.  Each degree j is handled as exact
GF(2) linear algebra:

  * the monomials of degree j, in canonical order, index matrix columns;
  * the products (monomial of degree j-m) * (degree-m generator) span the
    ideal slice and are echelonized in generation order with the first
    nonzero (lowest) column as pivot;
  * the non-pivot columns are the quotient basis, and eliminating pivot
    columns from any vector yields a canonical coset representative.

Row vectors are Python ints used as bitsets, so all arithmetic is exact and
reproducible bit for bit.

Multiplication by w1 between consecutive degrees drives everything else.
Its per-degree kernel and cokernel dimensions are the Betti numbers of the
oriented double cover (the two-step exactness of the Gysin sequence of the
covering), the first degree with nonzero kernel determines the
characteristic rank of the pulled-back canonical bundle, and a class pulls
back nonzero exactly when it is outside the image of that multiplication.

Those queries (dimensions, w1 ranks, kernels and cokernels, reports,
pullback tests, the top-degree check) go through the Schubert basis of
`schubert.py`, which computes every degree directly without an ideal.  The
presentation above serves the queries that are about the presentation
itself: slices, coset representatives (`reduce_to_quotient`) and the matrix
of w1 in the quotient bases (`w1_matrix`).  Being an independent route to
the same numbers, it is what the tests check the Schubert route against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from .gf2poly import (
    Exponents,
    Poly,
    _insert_row,
    enumerate_monomials,
    monomial_count,
    term_sort_key,
)
from .schubert import SchubertBasis

__all__ = [
    "GrassmannContext",
    "DegreeSlice",
    "GrassmannCohomology",
    "GysinRow",
    "GysinReport",
    "REPORT_FORMAT",
    "ideal_rows",
]

REPORT_FORMAT = "orgrass-gysin/1"


@dataclass(frozen=True)
class GrassmannContext:
    """The Grassmannian of k-planes in n-space, with k <= n-k."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n - self.k:
            raise ValueError(f"need 1 <= k <= n-k, got (n, k) = ({self.n}, {self.k})")

    @property
    def d(self) -> int:
        """Dimension of the manifold, k(n-k)."""
        return self.k * (self.n - self.k)

    @property
    def ideal_degrees(self) -> range:
        """Degrees of the defining relations: n-k+1, ..., n."""
        return range(self.n - self.k + 1, self.n + 1)

    def __str__(self) -> str:
        return f"G({self.n},{self.k})"


class DegreeSlice:
    """One degree of the presentation: monomial basis, ideal echelon, quotient.

    `pivots` maps a pivot column to an echelon row whose lowest set bit is
    that column; `picks` are the non-pivot columns, i.e. the monomials whose
    cosets form the canonical quotient basis.
    """

    __slots__ = ("j", "basis", "index", "pivots", "picks", "pick_pos")

    def __init__(self, j: int, basis: tuple[Exponents, ...], pivots: dict[int, int]):
        self.j = j
        self.basis = basis
        self.index = {m: c for c, m in enumerate(basis)}
        self.pivots = pivots
        self.picks = tuple(c for c in range(len(basis)) if c not in pivots)
        self.pick_pos = {c: i for i, c in enumerate(self.picks)}

    @property
    def dim_H(self) -> int:
        return len(self.picks)

    @property
    def num_monomials(self) -> int:
        return len(self.basis)

    @property
    def ideal_rank(self) -> int:
        return len(self.pivots)

    def reduce(self, v: int) -> int:
        """Canonical coset representative: eliminate every pivot column."""
        pivots = self.pivots
        out = 0
        while v:
            low = v & -v
            row = pivots.get(low.bit_length() - 1)
            if row is None:
                out |= low
                v ^= low
            else:
                v ^= row
        return out

    def coords(self, v: int) -> tuple[int, ...]:
        """Quotient coordinates of a basis-indexed vector, over `picks`."""
        reduced = self.reduce(v)
        out = [0] * len(self.picks)
        while reduced:
            low = reduced & -reduced
            out[self.pick_pos[low.bit_length() - 1]] = 1
            reduced ^= low
        return tuple(out)


class GrassmannCohomology:
    """Lazy per-degree engine for one Grassmannian context.

    `schubert` answers the cohomology queries; presentation slices are built
    only when asked for.  Both cache per degree; a fully populated engine is
    safe for concurrent reads.
    """

    def __init__(self, ctx: GrassmannContext):
        self.ctx = ctx
        self.schubert = SchubertBasis(ctx.k, ctx.n - ctx.k)
        self._gen_terms: dict[int, list[Exponents]] | None = None
        self._slices: dict[int, DegreeSlice] = {}

    # -- slices ----------------------------------------------------------

    def slice(self, j: int) -> DegreeSlice:
        if not 0 <= j <= self.ctx.d:
            raise ValueError(f"degree {j} outside 0..{self.ctx.d}")
        sl = self._slices.get(j)
        if sl is None:
            sl = self._slices[j] = self._build_slice(j)
        return sl

    def _build_slice(self, j: int) -> DegreeSlice:
        basis = tuple(enumerate_monomials(self.ctx.k, j))
        index = {m: c for c, m in enumerate(basis)}
        pivots: dict[int, int] = {}
        for v in self._iter_ideal_rows(j, index):
            _insert_row(pivots, v)
        return DegreeSlice(j, basis, pivots)

    def _iter_ideal_rows(self, j: int, index: dict[Exponents, int]):
        k = self.ctx.k
        if self._gen_terms is None:
            from .duals import dual_table  # only the presentation needs the dual classes

            table = dual_table(k)
            table.ensure(self.ctx.n)
            self._gen_terms = {
                m: sorted(table.entry(m).terms, key=term_sort_key) for m in self.ctx.ideal_degrees
            }
        for m in self.ctx.ideal_degrees:
            r = j - m
            if r < 0:
                continue
            gen = self._gen_terms[m]
            for q in enumerate_monomials(k, r):
                v = 0
                for t in gen:
                    v |= 1 << index[tuple(a + b for a, b in zip(q, t))]
                yield v

    def ideal_row_count(self, j: int) -> int:
        """Number of spanning rows the degree-j slice eliminates."""
        return sum(monomial_count(self.ctx.k, j - m) for m in self.ctx.ideal_degrees)

    # -- multiplication by w1 ---------------------------------------------

    def w1_rank(self, j: int) -> int:
        """Rank of cup product with w1 from degree j to degree j+1."""
        return self.schubert.w1_rank(j)

    def ker_dim(self, j: int) -> int:
        if j < 0 or j > self.ctx.d:
            return 0
        return self.schubert.dim(j) - self.w1_rank(j)

    def coker_dim(self, j: int) -> int:
        if j < 0 or j > self.ctx.d:
            return 0
        return self.schubert.dim(j) - self.w1_rank(j - 1)

    def betti_cover(self, j: int) -> int:
        """dim H^j of the oriented double cover (Gysin exactness)."""
        return self.ker_dim(j) + self.coker_dim(j)

    def w1_matrix(self, j: int) -> list[int]:
        """Matrix of (.w1): H^j -> H^{j+1} in the quotient bases.

        Row r belongs to the r-th pick of degree j; bit b of a row is the
        b-th pick of degree j+1.
        """
        if not 0 <= j < self.ctx.d:
            raise ValueError(f"degree {j} outside 0..{self.ctx.d - 1}")
        src = self.slice(j)
        dst = self.slice(j + 1)
        rows = []
        for col in src.picks:
            m = src.basis[col]
            t = (m[0] + 1,) + m[1:]
            reduced = dst.reduce(1 << dst.index[t])
            row = 0
            while reduced:
                low = reduced & -reduced
                row |= 1 << dst.pick_pos[low.bit_length() - 1]
                reduced ^= low
            rows.append(row)
        return rows

    # -- classes ----------------------------------------------------------

    def _vector_of(self, p: Poly, sl: DegreeSlice) -> int:
        v = 0
        for t in p.terms:
            v ^= 1 << sl.index[t]
        return v

    def _degree_of(self, p: Poly, degree: int | None) -> int:
        if p.k != self.ctx.k:
            raise ValueError(f"polynomial has {p.k} variables, context has {self.ctx.k}")
        j = p.homogeneous_degree
        if j is None:
            if p.is_zero:
                if degree is None:
                    raise ValueError("zero polynomial needs an explicit degree")
                return degree
            raise ValueError("polynomial is not homogeneous")
        if degree is not None and degree != j:
            raise ValueError(f"polynomial has degree {j}, not {degree}")
        return j

    def reduce_to_quotient(self, p: Poly, degree: int | None = None) -> tuple[int, ...]:
        """Coordinates of the coset of p over the quotient picks.

        All-zero exactly when p lies in the ideal slice.  Degrees above the
        manifold dimension land in the zero space (empty tuple).
        """
        j = self._degree_of(p, degree)
        if j > self.ctx.d:
            return ()
        sl = self.slice(j)
        return sl.coords(self._vector_of(p, sl))

    def pstar_nonzero(self, p: Poly) -> bool:
        """Does p pull back to a nonzero class on the oriented cover?

        True exactly when the coset of p is nonzero and outside the image
        of cup product with w1 (Gysin exactness identifies that image with
        the kernel of the pullback).
        """
        if p.k != self.ctx.k:
            raise ValueError(f"polynomial has {p.k} variables, context has {self.ctx.k}")
        if p.is_zero:
            return False
        j = p.homogeneous_degree
        if j is None:
            raise ValueError("polynomial is not homogeneous")
        if j > self.ctx.d:
            return False
        v = 0
        for t in p.terms:
            v ^= self.schubert.expand(t)
        return bool(v) and not self.schubert.in_image(v, j)

    def top_monomials_die(self) -> bool:
        """Check that every top-degree monomial pulls back to zero.

        The monomials span H^d, so they all lie in the image of cup product
        with w1 exactly when that map onto H^d has rank dim H^d.
        """
        d = self.ctx.d
        return self.w1_rank(d - 1) == self.schubert.dim(d)

    def r_first_nonzero(self) -> int:
        """Smallest positive degree with nonzero cover cohomology, else d+1."""
        for j in range(1, self.ctx.d + 1):
            if self.betti_cover(j) > 0:
                return j
        return self.ctx.d + 1

    # -- report ------------------------------------------------------------

    def report(self) -> "GysinReport":
        ctx = self.ctx
        d = ctx.d
        dims = [self.schubert.dim(j) for j in range(d + 1)]
        # Under the Poincare duality pairing of H^j with H^{d-j}, cup with w1
        # out of degree j is the transpose of cup with w1 out of degree
        # d-1-j, since <w1 x, y> = <x, w1 y> (`SchubertBasis.in_image` uses
        # the same fact).  So rank_j = rank_{d-1-j}, and only the lower half
        # is computed.  ranks[d] is 0: H^{d+1} vanishes.
        ranks = [0] * (d + 1)
        for j in range((d + 1) // 2):
            ranks[j] = ranks[d - 1 - j] = self.w1_rank(j)
        rows = []
        r_first = d + 1
        for j in range(d + 1):
            ker = dims[j] - ranks[j]
            coker = dims[j] - (ranks[j - 1] if j > 0 else 0)
            cover = ker + coker
            rows.append(GysinRow(j, dims[j], ranks[j], ker, coker, cover))
            if j > 0 and cover > 0 and r_first > d:
                r_first = j
        return GysinReport(ctx, tuple(rows), r_first)


@dataclass(frozen=True)
class GysinRow:
    """One degree of the report: base dims, w1 rank, and cover dims."""

    j: int
    dim_base: int
    w1_rank: int
    ker: int
    coker: int
    dim_cover: int


@dataclass(frozen=True)
class GysinReport:
    """Per-degree multiplication-by-w1 data and cover Betti numbers."""

    context: GrassmannContext
    rows: tuple[GysinRow, ...]
    r_first_nonzero: int

    @property
    def total_dim_base(self) -> int:
        return sum(r.dim_base for r in self.rows)

    @property
    def total_dim_cover(self) -> int:
        return sum(r.dim_cover for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "n": self.context.n,
            "k": self.context.k,
            "d": self.context.d,
            "strategy": "direct",  # a fixed value, kept for the format
            "r_first_nonzero": self.r_first_nonzero,
            "total_dim_base": self.total_dim_base,
            "total_dim_cover": self.total_dim_cover,
            "rows": [
                {
                    "j": r.j,
                    "dim_base": r.dim_base,
                    "w1_rank": r.w1_rank,
                    "ker": r.ker,
                    "coker": r.coker,
                    "dim_cover": r.dim_cover,
                }
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def format_table(self) -> str:
        ctx = self.context
        head = (
            f"{ctx}: d={ctx.d}, total dim H*(G)={self.total_dim_base}, "
            f"total dim H*(G~)={self.total_dim_cover}, "
            f"r(G~)={self.r_first_nonzero}"
        )
        lines = [head, "   j  dim H^j(G)  rank(.w1)    ker  coker  dim H^j(G~)"]
        for r in self.rows:
            lines.append(
                f"{r.j:4d}  {r.dim_base:10d}  {r.w1_rank:9d}  {r.ker:5d}  "
                f"{r.coker:5d}  {r.dim_cover:11d}"
            )
        return "\n".join(lines)


# -- raw ideal rows ---------------------------------------------------------


def ideal_rows(
    ctx: GrassmannContext, j: int, engine: GrassmannCohomology | None = None
) -> list[int]:
    """Spanning rows of the degree-j ideal slice, pre-echelon, in generation order."""
    if engine is None:
        engine = GrassmannCohomology(ctx)
    elif engine.ctx != ctx:
        raise ValueError(f"engine is for {engine.ctx}, not {ctx}")
    if not 0 <= j <= ctx.d:
        raise ValueError(f"degree {j} outside 0..{ctx.d}")
    index = {m: c for c, m in enumerate(enumerate_monomials(ctx.k, j))}
    return list(engine._iter_ideal_rows(j, index))
