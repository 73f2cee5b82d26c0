"""The Schubert route against the presentation route and first-principles
oracles, and mutations it must catch.

The presentation side uses only slices, `reduce_to_quotient` and
`w1_matrix`, which never touch `orgrass.schubert`; neither does
`oracles.monk_ranks`.
"""

import random
from itertools import combinations, product

import pytest

from oracles import box_partitions_by_degree, monk_multiples, monk_ranks
from orgrass import GrassmannCohomology, GrassmannContext, Poly, enumerate_monomials, schubert
from orgrass.schubert import SchubertBasis
from orgrass.suites import full_grid, suite_charrank, suite_cup, suite_gysin, suite_topdie


def _echelon(rows):
    pivots = {}
    for v in rows:
        while v:
            c = (v & -v).bit_length() - 1
            if c not in pivots:
                pivots[c] = v
                break
            v ^= pivots[c]
    return pivots


def _in_span(v, pivots):
    while v:
        c = (v & -v).bit_length() - 1
        if c not in pivots:
            return False
        v ^= pivots[c]
    return True


def _bits(coords):
    return sum(bit << i for i, bit in enumerate(coords))


def _presentation_pullbacks(engine, j):
    """Each degree-j monomial with its pullback test by the presentation route:
    a nonzero coset outside the row span of the w1 matrix into degree j."""
    img = _echelon(engine.w1_matrix(j - 1)) if j else {}
    for e in enumerate_monomials(engine.ctx.k, j):
        v = _bits(engine.reduce_to_quotient(Poly.monomial(engine.ctx.k, e)))
        yield e, bool(v) and not _in_span(v, img)


def _pullback_mismatches(contexts):
    """(mismatches, nonzero pullbacks) over every monomial of every degree."""
    mismatches = nonzero = 0
    for n, k in contexts:
        engine = GrassmannCohomology(GrassmannContext(n, k))
        for j in range(engine.ctx.d + 1):
            for e, want in _presentation_pullbacks(engine, j):
                mismatches += engine.pstar_nonzero(Poly.monomial(k, e)) != want
                nonzero += want
    return mismatches, nonzero


PULLBACK_CONTEXTS = [(8, 3), (10, 3), (12, 4), (11, 5)]


@pytest.mark.parametrize("n,k", [(10, 3), (13, 3), (12, 4), (16, 4), (11, 5)])
def test_report_matches_presentation(n, k):
    ctx = GrassmannContext(n, k)
    engine = GrassmannCohomology(ctx)
    rep = engine.report()
    for row in rep.rows:
        assert row.dim_base == engine.schubert.dim(row.j) == engine.slice(row.j).dim_H
        want = len(_echelon(engine.w1_matrix(row.j))) if row.j < ctx.d else 0
        assert row.w1_rank == want


@pytest.mark.parametrize("rows,cols", [(5, 19), (6, 14), (3, 45)])
def test_ranks_match_monk_oracle_beyond_presentation(rows, cols):
    basis = SchubertBasis(rows, cols)
    degrees = range(rows * cols + 1)
    assert [basis.dim(j) for j in degrees] == [
        len(parts) for parts in box_partitions_by_degree(rows, cols)
    ]
    ranks = monk_ranks(rows, cols)
    assert [basis.w1_rank(j) for j in degrees] == ranks
    sizes = [basis.dim(j) - rank for j, rank in enumerate(ranks)]
    assert [len(basis.kernel(j)) for j in degrees] == sizes


@pytest.mark.parametrize(
    "rows,cols", [(1, 6), (2, 9), (3, 5), (3, 10), (4, 4), (4, 6), (5, 5), (6, 4)]
)
def test_kernel_vectors_are_killed_and_independent(rows, cols):
    basis = SchubertBasis(rows, cols)
    for j in range(rows * cols + 1):
        kernel = basis.kernel(j)
        assert all(v >> basis.dim(j) == 0 for v in kernel)
        assert all(basis.times_w(v, j, 1) == 0 for v in kernel)
        assert len(_echelon(kernel)) == len(kernel)


@pytest.mark.parametrize("n,k", [(8, 3), (10, 5), (12, 4)])
def test_in_image_by_duality_matches_presentation_span(n, k):
    # every monomial and random sums of them, in every degree including 0
    # and d; the presentation side is row-span membership in w1_matrix
    rng = random.Random(n * 100 + k)
    engine = GrassmannCohomology(GrassmannContext(n, k))
    d = engine.ctx.d
    checked = inside = 0
    for j in range(d + 1):
        img = _echelon(engine.w1_matrix(j - 1)) if j else {}
        monomials = list(enumerate_monomials(k, j))
        samples = [[e] for e in monomials]
        samples += [rng.sample(monomials, rng.randint(1, len(monomials))) for _ in range(8)]
        for terms in samples:
            p = Poly(k, terms)
            want = _in_span(_bits(engine.reduce_to_quotient(p, degree=j)), img)
            v = 0
            for t in p.terms:
                v ^= engine.schubert.expand(t)
            assert engine.schubert.in_image(v, j) == want, (j, terms)
            checked += 1
            inside += want
    assert 0 < inside < checked


def test_cells_match_bruteforce_words():
    for rows in range(1, 9):
        for cols in range(1, 9):
            n = rows + cols
            want = [[] for _ in range(rows * cols + 1)]
            for ones in combinations(range(n), rows):
                want[sum(ones) - rows * (rows - 1) // 2].append(sum(1 << p for p in ones))
            basis = SchubertBasis(rows, cols)
            got = [basis.cells(j) for j in range(rows * cols + 1)]
            assert got == [tuple(sorted(words)) for words in want], (rows, cols)


def test_pullback_matches_presentation_on_every_monomial():
    mismatches, nonzero = _pullback_mismatches(PULLBACK_CONTEXTS)
    assert mismatches == 0
    assert nonzero > 0


def test_top_monomials_die_matches_presentation_scan():
    contexts = [(n, k) for n, k in full_grid() if k * (n - k) <= 30]
    assert len(contexts) == 14
    for n, k in contexts:
        engine = GrassmannCohomology(GrassmannContext(n, k))
        scan = not any(want for _, want in _presentation_pullbacks(engine, engine.ctx.d))
        assert engine.top_monomials_die() == scan == True


def test_expansion_is_iterative_on_deep_monomials():
    # a degree far beyond the default recursion limit, in a box that holds it
    engine = GrassmannCohomology(GrassmannContext(2400, 1))
    assert engine.pstar_nonzero(Poly.one(1))
    assert not engine.pstar_nonzero(Poly.variable(1, 1) ** 2000)


def _horizontal_strips(lam, i, cols):
    """mu/lam a horizontal strip: the Pieri rule of the row classes sigma(i)."""
    caps = [cols - lam[0]] + [lam[r - 1] - lam[r] for r in range(1, len(lam))]
    return [
        tuple(p + a for p, a in zip(lam, adds))
        for adds in product(*(range(c + 1) for c in caps))
        if sum(adds) == i
    ]


def _partition(w):
    """The partition of an n-bit cell: the one at position p_r gives a part p_r - r."""
    ones = [p for p in range(w.bit_length()) if w >> p & 1]
    return tuple(p - r for r, p in reversed(list(enumerate(ones))))


def _word(lam):
    return sum(1 << (part + len(lam) - 1 - r) for r, part in enumerate(lam))


def _isolate_kernel_memo(monkeypatch):
    # a mutated rule must compute its own kernels: the process-wide memo
    # would otherwise answer from kernels of the correct rule, and keep the
    # mutant's kernels for later tests
    monkeypatch.setattr(schubert, "_KERNELS", schubert._Memo())


def test_wrong_pieri_convention_is_caught(monkeypatch):
    # w_i = sigma(i) agrees with w_i = sigma(1^i) on most monomials, so only
    # the exhaustive comparison sees it
    def horizontal(w, i, n):
        lam = _partition(w)
        return [_word(mu) for mu in _horizontal_strips(lam, i, n - len(lam))]

    _isolate_kernel_memo(monkeypatch)
    monkeypatch.setattr(schubert, "_vertical_strips", horizontal)
    mismatches, _ = _pullback_mismatches(PULLBACK_CONTEXTS)
    assert mismatches > 0


def _drop_last_row_box(monkeypatch):
    # the last row's one is the word's lowest bit
    _isolate_kernel_memo(monkeypatch)
    monk = schubert._monk
    monkeypatch.setattr(
        schubert, "_monk", lambda w, n: [mu for mu in monk(w, n) if mu & -mu == w & -w]
    )


def test_wrong_monk_rule_fails_suite_rows(monkeypatch):
    # the same contexts computed with the correct rule first: their kernels,
    # left in the memo, would answer for the mutant without isolation
    warm = suite_charrank(n_max=8) + suite_gysin(n_max=8) + suite_topdie(n_max=8)
    assert all(r.ok for r in warm)
    _drop_last_row_box(monkeypatch)
    rows = suite_charrank(n_max=8) + suite_gysin(n_max=8) + suite_topdie(n_max=8)
    assert any(not r.ok for r in rows)


def test_wrong_monk_rule_fails_every_small_gysin_row(monkeypatch):
    # the report mirrors the ranks of its upper half, so its cover dims are
    # symmetric under any rule; the row must still fail through its direct ranks
    _drop_last_row_box(monkeypatch)
    rows = suite_gysin(n_max=16)
    assert len(rows) == 27
    assert not [r.name for r in rows if r.ok]
    assert all("dualityG~=FAIL" in r.detail for r in rows)


def test_report_ranks_equal_direct_ranks_on_the_grid():
    for n, k in full_grid():
        engine = GrassmannCohomology(GrassmannContext(n, k))
        ranks = [row.w1_rank for row in engine.report().rows]
        assert ranks == [engine.w1_rank(j) for j in range(engine.ctx.d + 1)], (n, k)


def test_cup_exact_row_reports_inconsistency_as_failure(monkeypatch):
    _drop_last_row_box(monkeypatch)
    rows = suite_cup(ts=(3,), n_max3=8, n_max4=8)
    exact = rows[0]
    assert exact.name == "cup/G~(8,3) exact"
    assert not exact.ok and "InconsistencyError" in exact.detail


def test_scan_over_n_builds_only_the_new_block(monkeypatch):
    # with G(19,4) memoised, the kernels of G(20,4) need Monk rows only for
    # the cells of G(19,3), the cells of G(20,4) with the top bit set
    _isolate_kernel_memo(monkeypatch)
    smaller = SchubertBasis(4, 15)
    for j in range(smaller.top + 1):
        smaller.kernel(j)
    seen = []
    monk = schubert._monk

    def counted(w, n):
        seen.append((w, n))
        return monk(w, n)

    monkeypatch.setattr(schubert, "_monk", counted)
    basis = SchubertBasis(4, 16)
    sizes = [len(basis.kernel(j)) for j in range(basis.top + 1)]
    assert sizes == [basis.dim(j) - rank for j, rank in enumerate(monk_ranks(4, 16))]
    assert 0 < len(seen) <= 969  # C(19,3)
    assert all(n == 19 and w.bit_count() == 3 and w < 1 << 19 for w, n in seen)


def test_memo_stays_under_its_limit(monkeypatch):
    # far below what the kernels of G(24,5) and its smaller boxes take: the
    # oldest leave, and the ranks are those of the oracle
    memo = schubert._Memo(limit=1 << 16)
    monkeypatch.setattr(schubert, "_KERNELS", memo)
    basis = SchubertBasis(5, 19)
    assert [basis.w1_rank(j) for j in range(basis.top + 1)] == monk_ranks(5, 19)
    assert 0 < memo.bytes <= memo.limit
    assert memo.bytes == sum(map(schubert._bytes, memo.kernels.values()))
    assert (6, 5, 1) not in memo.kernels  # the first kernel built, of the 5 x 1 box


def test_evicted_chains_are_rebuilt_alike(monkeypatch):
    # kernels and image tests read whole chains; with a memo that keeps
    # almost nothing they rebuild what left and answer as with a full memo
    rng = random.Random(7)
    full = SchubertBasis(4, 8)
    degrees = range(full.top + 1)
    samples = [
        [rng.getrandbits(full.dim(j)) for _ in range(4)]
        + [full.times_w(rng.getrandbits(full.dim(j - 1)), j - 1, 1) for _ in range(4)]
        for j in degrees
    ]
    want = [full.kernel(j) for j in degrees]
    want_image = [[full.in_image(v, j) for v in samples[j]] for j in degrees]
    monkeypatch.setattr(schubert, "_KERNELS", schubert._Memo(limit=1 << 10))
    tight = SchubertBasis(4, 8)
    assert [tight.kernel(j) for j in degrees] == want
    assert [[tight.in_image(v, j) for v in samples[j]] for j in degrees] == want_image
    assert {True, False} <= {answer for answers in want_image for answer in answers}


@pytest.mark.parametrize("rows,cols", [(1, 6), (2, 2), (3, 5), (4, 4)])
def test_kernel_and_image_outside_the_degrees(rows, cols):
    basis = SchubertBasis(rows, cols)
    top = basis.top
    assert basis.kernel(-1) == basis.kernel(top + 1) == ()
    assert basis.in_image(0, 0) and not basis.in_image(1, 0)
    assert basis.in_image(0, top + 1) and not basis.in_image(1, top + 1)


def _image_answers(rows, cols):
    """in_image and the oracle's Monk-row membership on random classes and
    w1-multiples of every degree: (mismatches, the answers that occurred)."""
    rng = random.Random(rows * 100 + cols)
    basis = SchubertBasis(rows, cols)
    samples = []
    for j in range(basis.top + 1):
        vs = [rng.getrandbits(basis.dim(j)) for _ in range(4)]
        if j:
            vs += [basis.times_w(rng.getrandbits(basis.dim(j - 1)), j - 1, 1) for _ in range(4)]
        samples.append(vs)
    parts = [[_partition(w) for w in basis.cells(j)] for j in range(basis.top + 1)]
    as_partitions = [
        [{parts[j][b] for b in range(basis.dim(j)) if v >> b & 1} for v in vs]
        for j, vs in enumerate(samples)
    ]
    want = monk_multiples(rows, cols, as_partitions)
    got = [[basis.in_image(v, j) for v in vs] for j, vs in enumerate(samples)]
    mismatches = sum(g != w for gs, ws in zip(got, want) for g, w in zip(gs, ws))
    return mismatches, {answer for answers in want for answer in answers}


@pytest.mark.parametrize("rows,cols", [(1, 6), (3, 5), (4, 12), (5, 15)])
def test_in_image_matches_monk_oracle_beyond_presentation(rows, cols):
    # G(16,4) and G(20,5) in every degree, plus a one-row and a three-row box
    mismatches, answers = _image_answers(rows, cols)
    assert mismatches == 0
    assert answers == {True, False}


def test_wrong_monk_rule_fails_image_oracle(monkeypatch):
    _drop_last_row_box(monkeypatch)
    mismatches, _ = _image_answers(4, 12)
    assert mismatches > 0
