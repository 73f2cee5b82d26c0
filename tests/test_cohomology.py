import math

import pytest

from orgrass import (
    DegreeSlice,
    GrassmannCohomology,
    GrassmannContext,
    Poly,
    dual_class,
    g,
    ideal_rows,
)
from orgrass.suites import suite_oracle

from oracles import partitions_in_box


def _bit_rank(rows):
    pivots = {}
    for v in rows:
        while v:
            c = (v & -v).bit_length() - 1
            if c in pivots:
                v ^= pivots[c]
            else:
                pivots[c] = v
                break
    return len(pivots)


def test_context_validation():
    with pytest.raises(ValueError):
        GrassmannContext(5, 3)
    with pytest.raises(ValueError):
        GrassmannContext(4, 0)
    ctx = GrassmannContext(6, 3)
    assert ctx.d == 9
    assert list(ctx.ideal_degrees) == [4, 5, 6]


def test_dims_G63():
    ctx = GrassmannContext(6, 3)
    engine = GrassmannCohomology(ctx)
    assert engine.slice(0).dim_H == 1
    assert engine.slice(4).dim_H == 3  # box partitions of 4 in 3x3: (3,1),(2,2),(2,1,1)
    assert engine.slice(9).dim_H == 1
    assert sum(engine.slice(j).dim_H for j in range(10)) == math.comb(6, 3)


@pytest.mark.parametrize("n,k", [(6, 3), (7, 3), (8, 3), (8, 4), (10, 5)])
def test_dims_match_schubert_cell_oracle(n, k):
    ctx = GrassmannContext(n, k)
    engine = GrassmannCohomology(ctx)
    for j in range(ctx.d + 1):
        assert engine.slice(j).dim_H == partitions_in_box(j, k, n - k)


def test_slice_rank_plus_quotient_is_monomial_count():
    ctx = GrassmannContext(7, 3)
    engine = GrassmannCohomology(ctx)
    for j in range(ctx.d + 1):
        sl = engine.slice(j)
        assert sl.ideal_rank + sl.dim_H == sl.num_monomials
        assert sl.picks == tuple(c for c in range(sl.num_monomials) if c not in sl.pivots)


def test_slice_out_of_range():
    engine = GrassmannCohomology(GrassmannContext(6, 3))
    with pytest.raises(ValueError):
        engine.slice(10)
    with pytest.raises(ValueError):
        engine.slice(-1)


def test_reduce_to_quotient_examples():
    engine = GrassmannCohomology(GrassmannContext(6, 3))
    assert engine.reduce_to_quotient(dual_class(3, 4)) == (0, 0, 0)
    assert any(engine.reduce_to_quotient(Poly.parse(3, "w1^4")))
    engine8 = GrassmannCohomology(GrassmannContext(8, 3))
    assert any(engine8.reduce_to_quotient(Poly.variable(3, 2) ** 4))


def test_reduce_to_quotient_input_validation():
    ctx = GrassmannContext(6, 3)
    engine = GrassmannCohomology(ctx)
    with pytest.raises(ValueError):
        engine.reduce_to_quotient(Poly.parse(3, "1 + w1"))
    with pytest.raises(ValueError):
        engine.reduce_to_quotient(Poly.zero(3))
    assert engine.reduce_to_quotient(Poly.zero(3), degree=4) == (0, 0, 0)
    with pytest.raises(ValueError):
        engine.reduce_to_quotient(Poly.variable(4, 1))
    # degrees past the manifold dimension land in the zero space
    assert engine.reduce_to_quotient(Poly.variable(3, 1) ** 10) == ()


def test_quotient_coords_linear_and_canonical():
    ctx = GrassmannContext(7, 3)
    e1 = GrassmannCohomology(ctx)
    e2 = GrassmannCohomology(ctx)
    p = Poly.parse(3, "w1^5 + w2*w3")
    q = Poly.parse(3, "w1^3*w2 + w3*w1^2")
    cp, cq = e1.reduce_to_quotient(p), e1.reduce_to_quotient(q)
    csum = e1.reduce_to_quotient(p + q)
    assert tuple(a ^ b for a, b in zip(cp, cq)) == csum
    assert e2.reduce_to_quotient(p) == cp  # bit-for-bit reproducible


def test_w1_operator_rank_examples():
    assert _bit_rank(GrassmannCohomology(GrassmannContext(6, 3)).w1_matrix(0)) == 1
    engine = GrassmannCohomology(GrassmannContext(7, 3))
    assert engine.ker_dim(4) == 1
    # the operator matrix and the cached image agree on rank
    assert _bit_rank(engine.w1_matrix(4)) == engine.w1_rank(4)


def test_w1_operator_out_of_range():
    engine = GrassmannCohomology(GrassmannContext(6, 3))
    with pytest.raises(ValueError):
        engine.w1_matrix(9)


def test_w1_kernel_vanishes_below_first_relation():
    for n, k in [(8, 3), (9, 3), (10, 4), (11, 5)]:
        engine = GrassmannCohomology(GrassmannContext(n, k))
        for j in range(0, n - k):
            assert engine.ker_dim(j) == 0


def test_gysin_report_G63():
    rep = GrassmannCohomology(GrassmannContext(6, 3)).report()
    assert rep.total_dim_base == 20
    assert rep.r_first_nonzero == 2
    d = 9
    for row in rep.rows:
        assert row.dim_cover == row.ker + row.coker
    covers = [r.dim_cover for r in rep.rows]
    assert covers == [covers[d - j] for j in range(d + 1)]


def test_cover_betti_of_classical_spaces():
    # the double covers at k = 1, 2 are classical: spheres, S^2 x S^2, and
    # complex quadrics; their mod-2 Betti numbers are known independently
    expected = {
        (2, 1): [1, 1],  # S^1
        (4, 1): [1, 0, 0, 1],  # S^3
        (4, 2): [1, 0, 2, 0, 1],  # S^2 x S^2
        (5, 2): [1, 0, 1, 0, 1, 0, 1],  # quadric Q3
        (6, 2): [1, 0, 1, 0, 2, 0, 1, 0, 1],  # quadric Q4
    }
    for (n, k), want in expected.items():
        rep = GrassmannCohomology(GrassmannContext(n, k)).report()
        assert [r.dim_cover for r in rep.rows] == want


def test_gysin_report_G83_cover_duality():
    rep = GrassmannCohomology(GrassmannContext(8, 3)).report()
    covers = [r.dim_cover for r in rep.rows]
    assert all(covers[j] == covers[15 - j] for j in range(16))


def test_report_json_shape():
    rep = GrassmannCohomology(GrassmannContext(6, 3)).report()
    payload = rep.to_dict()
    assert payload["format"] == "orgrass-gysin/1"
    assert payload["total_dim_base"] == 20
    assert len(payload["rows"]) == 10
    assert rep.to_json() == rep.to_json()


def test_pstar_examples():
    ctx8 = GrassmannContext(8, 3)
    engine = GrassmannCohomology(ctx8)
    assert engine.pstar_nonzero(Poly.variable(3, 2) ** 4)
    assert not engine.pstar_nonzero(Poly.variable(3, 1))
    assert not engine.pstar_nonzero(Poly.zero(3))
    assert not engine.pstar_nonzero(Poly.variable(3, 1) * Poly.variable(3, 2))
    assert engine.pstar_nonzero(Poly.one(3))
    with pytest.raises(ValueError):
        engine.pstar_nonzero(Poly.parse(3, "1 + w1"))


def test_pstar_kernel_is_w1_image():
    # anything of the form w1 * q dies; a surviving class stays nonzero in
    # the quotient
    engine = GrassmannCohomology(GrassmannContext(7, 3))
    w1 = Poly.variable(3, 1)
    for text in ("w2", "w3", "w2^2", "w2*w3"):
        assert not engine.pstar_nonzero(w1 * Poly.parse(3, text))


def test_top_monomials_die_small():
    for n, k in [(6, 3), (7, 3), (8, 4)]:
        assert GrassmannCohomology(GrassmannContext(n, k)).top_monomials_die()


def test_kernel_criterion_matches_reduction():
    # the degree-(n-k) kernel vanishes exactly when the first generator
    # survives reduction mod w1
    for n, k in [(6, 3), (7, 3), (8, 3), (9, 3), (8, 4), (9, 4), (10, 5), (12, 4)]:
        engine = GrassmannCohomology(GrassmannContext(n, k))
        assert (engine.ker_dim(n - k) == 0) == (not g(k, n - k + 1).is_zero)


def test_ideal_membership_bruteforce_G63():
    ctx = GrassmannContext(6, 3)
    engine = GrassmannCohomology(ctx)
    for j in range(ctx.d + 1):
        rows = ideal_rows(ctx, j, engine=engine)
        sl = engine.slice(j)
        seen = {0}
        cur = 0
        for step in range(1, 1 << len(rows)):
            cur ^= rows[(step & -step).bit_length() - 1]
            seen.add(cur)
        assert len(seen) == 1 << sl.ideal_rank
        assert all(sl.reduce(v) == 0 for v in seen)


def test_ideal_rows_rejects_engine_of_another_context():
    ctx = GrassmannContext(7, 3)
    assert ideal_rows(ctx, 5) == [13]
    assert ideal_rows(ctx, 5, engine=GrassmannCohomology(ctx)) == [13]
    with pytest.raises(ValueError, match="G\\(8,3\\)"):
        ideal_rows(ctx, 5, engine=GrassmannCohomology(GrassmannContext(8, 3)))


def _oracle_row():
    (row,) = suite_oracle(((6, 3),))
    return row


def test_oracle_fails_when_a_spanned_vector_is_left_unreduced(monkeypatch):
    victim = ideal_rows(GrassmannContext(6, 3), 5)[0]
    reduce = DegreeSlice.reduce
    monkeypatch.setattr(
        DegreeSlice, "reduce", lambda self, v: 1 if (self.j, v) == (5, victim) else reduce(self, v)
    )
    row = _oracle_row()
    assert not row.ok
    assert row.detail == "degree 5: a spanned vector does not reduce to 0"


def test_oracle_fails_when_the_ideal_rank_is_off_by_one(monkeypatch):
    monkeypatch.setattr(DegreeSlice, "ideal_rank", property(lambda self: len(self.pivots) + 1))
    row = _oracle_row()
    assert not row.ok
    assert row.detail == "degree 0: span size != 2^rank"


def test_oracle_passes_unmutated():
    row = _oracle_row()
    assert row.ok and row.detail == "degrees 0..9 checked"
