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
strip of i boxes adds a sum of i ones.  The cells of a degree are listed
by the position of their top one, below which sits a cell of a box with one
row less (`_box_cells`).  A class of degree j is an int bitset over the
ascending `cells(j)`, built per degree on first use.

The kernel of w1 comes from the Pascal split.  With c = n-k, degree j of
G(n,k) is Q_j + W_j: Q_j are the cells below bit n-1, exactly the cells of
G(n-1,k) in degree j and in the same order, and W_j, which sort after them,
are the cells of G(n-1,k-1) in degree j-c with bit n-1 added.  The top one
of a W cell cannot move, so W is w1-stable and Monk's rule reads
U(q, w) = (U_Q q, C q + U_W w): U_Q and U_W are Monk's rule of G(n-1,k) and
of G(n-1,k-1), and C moves a top one from bit n-2 to bit n-1.  In index
space C is a shift, q >> dim G(n-2,k)_j: the cells of Q_j with bit n-2 set
are the last ones, and they land on the first cells of W_{j+1}.  So
ker_j(G(n,k)) is the pairs (z, w) with z in ker_j(G(n-1,k)) and U_W w = C z,
one tracked elimination of the rows C z and the Monk rows of G(n-1,k-1)
from degree j-c; rank_j = dim_j - dim ker_j, with dim_j a Pascal count (a
Gaussian binomial coefficient), so a rank builds no cell of G(n,k).

Degree j of G(n,k) needs degree j of G(n-1,k) and degrees j-c, j-c+1 of the
block, so a kernel is computed only in the degrees asked for, walking down
n to a box where it is memoised or trivial.  A process-wide memo maps
(n, k, j) to the kernel, by columns and in terms of the kernel of G(n-1,k)
(see `_Kernel`); it holds kernels only, never cells, and the block cells
live in each `SchubertBasis` and only for the last degree of each block.  A
scan over n therefore costs about one block per context.  The memo is
bounded: past about 16 MB of kernels the oldest leave first, and a chain
that misses one rebuilds it from the box below.

Images are answered by duality.  Matching each cell with its n-bit
reversal, the cell of the complementary partition, makes the Monk matrix
from degree d-j the transpose of the one into degree j (d = k(n-k)), so v
is a multiple of w1 exactly when its reversal pairs to 0 with every vector
of ker_{d-j}.  A pullback test therefore reverses its class and pairs it
with the vectors of `kernel(d-j)`, the one place where the memoised kernels
become classes; in a low degree it reads only the small kernels near the
top.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

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


def _reverse(w: int, n: int) -> int:
    """The n-bit reversal of w: the cell of the complementary partition."""
    return int(f"{w:0{n}b}"[::-1], 2)


def _ones(v: int) -> list[int]:
    """The positions of the ones of v, highest first."""
    s = bin(v)
    top = len(s) - 1
    out = []
    i = s.find("1", 2)
    while i >= 0:
        out.append(top - i)
        i = s.find("1", i + 1)
    return out


@lru_cache(maxsize=None)
def _dims(rows: int, cols: int) -> tuple[int, ...]:
    """The number of cells in each degree of the rows x cols box: the
    Gaussian binomial prod_{i<=rows} (1 - q^(cols+i)) / (1 - q^i), computed
    modulo q^(rows*cols + 1), which loses nothing."""
    top = rows * cols
    p = [1] + [0] * top
    for i in range(1, rows + 1):
        s = cols + i
        for t in range(top, s - 1, -1):
            p[t] -= p[t - s]
        for t in range(i, top + 1):
            p[t] += p[t - i]
    return tuple(p)


def _box_cells(rows: int, cols: int, j: int, high: int = 0) -> list[int]:
    """The degree-j cells of the rows x cols box, ascending, each with the
    bits of `high` added: grouped by the position rows-1+c of the top one,
    below which sits a cell of rows-1 x c."""
    if rows <= 1:
        return [(1 << j) >> (1 - rows) | high] if 0 <= j <= rows * cols else []
    tops = range(-(-j // rows), min(j, cols) + 1)
    if rows == 2:
        return [1 << (j - c) | 2 << c | high for c in tops]
    if rows == 3:
        return [
            1 << (j - c - b) | 2 << b | 4 << c | high
            for c in tops
            for b in range(-(-(j - c) // 2), min(j - c, c) + 1)
        ]
    out = []
    for c in tops:
        out += _box_cells(rows - 1, c, j - c, high | 1 << (rows - 1 + c))
    return out


class _Kernel(NamedTuple):
    """A basis of ker(w1) in degree j of the rows x cols box, by columns.

    Degree j splits into the cells of rows x (cols-1) (no one in the top
    bit) and, after them, the cells of (rows-1) x cols in degree j-cols
    with the top bit added.  Basis vector b is the sum of the vectors s of
    the smaller box's kernel in degree j with bit b of `quotient[s]` set,
    plus the cells t of the second part with bit b of `cells[t]` set.
    """

    size: int
    quotient: tuple[int, ...]
    cells: tuple[int, ...]


_EMPTY = _Kernel(0, (), ())
_POINT = _Kernel(1, (), (1,))  # a box with one cell, which w1 kills


class _Memo:
    """(n, k, j) -> the _Kernel of G(n,k) in degree j; kernels only, never
    cells.  Once the kernels' estimated bytes pass `limit`, the oldest leave
    first: a scan over n reads only the kernels of the previous context, and
    a report reads each degree's once."""

    def __init__(self, limit: int = 1 << 24):
        self.kernels: dict[tuple[int, int, int], _Kernel] = {}
        self.limit = limit
        self.bytes = 0

    def add(self, key: tuple[int, int, int], kernel: _Kernel) -> _Kernel:
        kernels = self.kernels
        kernels[key] = kernel
        self.bytes += _bytes(kernel)
        while self.bytes > self.limit:
            self.bytes -= _bytes(kernels.pop(next(iter(kernels))))
        return kernel


def _bytes(kernel: _Kernel) -> int:
    """About what a kernel holds: a tuple slot and an int of `size` bits per column."""
    return (len(kernel.quotient) + len(kernel.cells)) * (36 + kernel.size // 8)


_KERNELS = _Memo()


def _base(rows: int, cols: int, j: int) -> _Kernel | None:
    """The kernel where the recursion stops: an empty degree or a one-cell box."""
    if not 0 <= j <= rows * cols:
        return _EMPTY
    if rows == 0 or cols == 0:
        return _POINT
    return None


def _kernel(rows: int, cols: int, j: int, blocks: dict) -> _Kernel:
    """The kernel of the rows x cols box in degree j.  A missing one is built
    from the boxes rows x c, c < cols, upwards from the largest c that is
    memoised or where the recursion stops."""
    memo = _KERNELS
    missing = []
    c = cols
    while (kernel := _base(rows, c, j) or memo.kernels.get((rows + c, rows, j))) is None:
        missing.append(c)
        c -= 1
    for c in reversed(missing):
        kernel = memo.add((rows + c, rows, j), _split_kernel(rows, c, j, kernel, blocks))
    return kernel


def _block_cells(blocks: dict, rows: int, cols: int, j: int) -> list[int]:
    """`_box_cells`, remembering the last degree asked of each box: a scan
    upwards asks each degree twice, first as a target, then as a source."""
    last = blocks.get((rows, cols))
    if last is not None and last[0] == j:
        return last[1]
    cells = _box_cells(rows, cols, j)
    blocks[rows, cols] = (j, cells)
    return cells


def _split_kernel(
    rows: int, cols: int, j: int, quotient: _Kernel, blocks: dict
) -> _Kernel:
    """The kernel in degree j of the rows x cols box from `quotient`, the
    kernel of rows x (cols-1) in degree j.

    With c = cols and i = j - c, w1 maps (q, w) to (w1 q, C q + M w): M is
    Monk's rule of the block (rows-1) x c from degree i to i+1, and C moves
    the top one of q into the top bit, which puts the second part of q onto
    the first cells of the block.  So the kernel is the pairs with q in
    `quotient` and M w = C q.  The block's rows are reduced on their highest
    bits, with a tag bit for their cell; the rows that reduce to 0 are the
    pairs (0, w).  Then the C q of all the quotient's vectors are reduced at
    once, a bit of a column int per vector, from the highest position down:
    a pivot row adds its cells to the w of the vectors it clears, and a
    position that no pivot clears is a condition on their combinations.
    """
    n = rows + cols
    i = j - cols
    source = _block_cells(blocks, rows - 1, cols, i)
    target = _block_cells(blocks, rows - 1, cols, i + 1)
    index = dict(zip(target, range(len(target))))
    width = len(source)
    # keyed by the bit length of the row (image << width | tag): a row that
    # needed no reduction is kept as (cell, targets) and built on first use
    plain: dict[int, tuple[int, list[int]]] = {}
    pivots: dict[int, int] = {}
    tags = []  # the w of the pairs (0, w)
    monk = _monk
    free = 1 << (n - 2)  # below it, the top one can move: a distinct highest target
    for t, w in enumerate(source):
        targets = [index[mu] for mu in monk(w, n - 1)]  # ascending
        if not targets:
            tags.append(1 << t)
            continue
        b = targets[-1] + width + 1
        if w < free and b not in plain:
            plain[b] = (t, targets)
            continue
        v = _row(t, targets, width)
        while b > width:
            row = pivots.get(b)
            if row is None:
                if b not in plain:
                    break
                row = pivots[b] = _row(*plain[b], width)
            v ^= row
            b = v.bit_length()
        if b > width:
            pivots[b] = v
        else:
            tags.append(v)
    # columns[p]: the vectors whose C q has the block cell p; leads: the
    # conditions, kept reduced, each with a bit of its own
    size = quotient.size
    over_quotient = [1 << s for s in range(size)]
    over_cells = [0] * width
    leads: dict[int, int] = {}
    if size:
        columns = list(quotient.cells)
        for p in range(len(columns) - 1, -1, -1):
            col = columns[p]
            if not col:
                continue
            b = p + width + 1
            if b in plain:
                cell, image = plain[b]
                over_cells[cell] ^= col
                for q in image[:-1]:
                    columns[q] ^= col
            elif b in pivots:
                row = pivots[b]
                for q in _ones(row >> width ^ 1 << p):
                    columns[q] ^= col
                for t in _ones(row & ((1 << width) - 1)):
                    over_cells[t] ^= col
            else:
                for lead, condition in leads.items():
                    if col >> lead & 1:
                        col ^= condition
                if col:
                    lead = (col & -col).bit_length() - 1
                    for other, condition in leads.items():
                        if condition >> lead & 1:
                            leads[other] = condition ^ col
                    leads[lead] = col
        if leads:
            over_quotient, change = _basis_change(size, leads)
            over_cells = [change(x) for x in over_cells]
            size -= len(leads)
    if tags:
        # the pairs (0, w) as columns: the bit of cell t in every tag, read
        # from one string with a stride
        bits = "".join([f"{tag:0{width}b}" for tag in reversed(tags)])
        over_cells = [
            o | int(bits[width - 1 - t :: width], 2) << size for t, o in enumerate(over_cells)
        ]
        size += len(tags)
    return _Kernel(size, tuple(over_quotient), tuple(over_cells))


def _row(cell: int, targets: list[int], width: int) -> int:
    """The row image << width | tag of a block cell: one wide int built once."""
    low = targets[0]
    image = 0
    for q in targets:
        image |= 1 << (q - low)
    return (image << (low + width - cell) | 1) << cell


def _basis_change(size: int, leads: dict[int, int]):
    """The images of the unit columns, and the map from columns over `size`
    vectors to columns over a basis of the combinations a with <a, c> = 0
    for every condition c in `leads`.

    The conditions are reduced: condition l has bit l and no other lead's
    bit.  The basis is e_s + (e_l for each lead l whose condition has bit
    s), for the positions s that are not leads, numbered in order; so a
    new column takes the old bit s plus the old bits l.  The map is linear
    and is tabulated per byte of the old column.
    """
    kept = [s for s in range(size) if s not in leads]
    image = [0] * size  # the new column of each old unit column
    for x, s in enumerate(kept):
        image[s] = 1 << x
    for lead, condition in leads.items():
        image[lead] = sum(1 << x for x, s in enumerate(kept) if condition >> s & 1)
    tables = []
    for g in range(0, size, 8):
        units = image[g : g + 8]
        table = [0] * (1 << len(units))
        for byte in range(1, len(table)):
            low = byte & -byte
            table[byte] = table[byte ^ low] ^ units[low.bit_length() - 1]
        tables.append(table)
    nbytes = len(tables)

    def change(x: int) -> int:
        out = 0
        for table, byte in zip(tables, x.to_bytes(nbytes, "little")):
            if byte:
                out ^= table[byte]
        return out

    return image, change


class SchubertBasis:
    """Lazy per-degree Schubert tables of the rows x cols box, i.e. of G(rows+cols, rows)."""

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.n = rows + cols
        self.top = rows * cols
        self._cells: dict[int, tuple[int, ...]] = {}
        self._index: dict[int, dict[int, int]] = {}
        self._expansions: dict[Exponents, int] = {(0,) * rows: 1}
        self._blocks: dict = {}  # the last cells built of each block box

    def cells(self, j: int) -> tuple[int, ...]:
        """The degree-j cells as n-bit words, ascending."""
        cells = self._cells.get(j)
        if cells is None:
            cells = self._cells[j] = tuple(_box_cells(self.rows, self.cols, j))
        return cells

    def _index_of(self, j: int) -> dict[int, int]:
        index = self._index.get(j)
        if index is None:
            cells = self.cells(j)
            index = self._index[j] = dict(zip(cells, range(len(cells))))
        return index

    def dim(self, j: int) -> int:
        return _dims(self.rows, self.cols)[j] if 0 <= j <= self.top else 0

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

    def _offset(self, c: int, j: int) -> int:
        """Where the second part of degree j of the rows x c box starts."""
        return _dims(self.rows, c - 1)[j] if j <= self.rows * (c - 1) else 0

    def kernel(self, j: int) -> tuple[int, ...]:
        """A basis of the kernel of cup product with w1 on degree j, as
        classes of degree j.  Each box's memoised kernel is given in terms
        of the box one column narrower, so the classes are built upwards,
        from the box rows x c where the recursion stops to rows x cols;
        outside the degrees of the box that is rows x cols itself."""
        rows, cols = self.rows, self.cols
        c = cols
        while (base := _base(rows, c, j)) is None:
            c -= 1
        vectors = [1] * base.size
        for c in range(c + 1, cols + 1):
            kernel = _kernel(rows, c, j, self._blocks)
            offset = self._offset(c, j)
            out = [0] * kernel.size
            for s, col in enumerate(kernel.quotient):
                for b in _ones(col):
                    out[b] ^= vectors[s]
            for t, col in enumerate(kernel.cells):
                for b in _ones(col):
                    out[b] |= 1 << (offset + t)
            vectors = out
        return tuple(vectors)

    def w1_rank(self, j: int) -> int:
        """Rank of cup product with w1 from degree j to degree j+1."""
        if not 0 <= j < self.top:
            return 0
        return self.dim(j) - _kernel(self.rows, self.cols, j, self._blocks).size

    def in_image(self, v: int, j: int) -> bool:
        """Is the degree-j class v a multiple of w1?

        The Monk matrix into degree j is the transpose of the one out of
        degree top-j when each cell is matched with its n-bit reversal, the
        cell of the complementary partition; so v is a multiple of w1
        exactly when its reversal pairs to zero with all of kernel(top-j).

        On G(4,2), degree 2 is self-dual, and w1^2 = sigma(2) + sigma(1,1)
        spans the kernel there; it is a multiple of w1:

        >>> basis = SchubertBasis(2, 2)
        >>> basis.kernel(2)
        (3,)
        >>> basis.in_image(3, 2)
        True
        """
        if not 0 < j <= self.top:
            return not v
        dual = self.top - j
        cells = self.cells(j)
        index = self._index_of(dual)
        u = 0
        for b in _ones(v):
            u |= 1 << index[_reverse(cells[b], self.n)]
        return not any((u & z).bit_count() & 1 for z in self.kernel(dual))

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
