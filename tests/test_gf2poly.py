import doctest
import random

import pytest

from orgrass import (
    Poly,
    enumerate_monomials,
    monomial_count,
    monomial_degree,
    parse_poly,
)
from orgrass import gf2poly

from oracles import partitions_with_parts_up_to, random_poly

K = 3
W1 = Poly.variable(K, 1)
W2 = Poly.variable(K, 2)
W3 = Poly.variable(K, 3)


def test_add_cancels_common_terms():
    assert (W1 + W2) + (W2 + W3) == W1 + W3


def test_add_self_is_zero():
    p = Poly.parse(K, "w1^2*w2 + w3 + 1")
    assert (p + p).is_zero


def test_add_zero_identity():
    p = Poly.parse(K, "w1^2 + w2")
    assert p + Poly.zero(K) == p


def test_mul_monomials():
    assert W1 * W1 == Poly.parse(K, "w1^2")


def test_square_is_frobenius():
    assert (W1 + W2) * (W1 + W2) == Poly.parse(K, "w1^2 + w2^2")


def test_truncated_geometric_inverse_of_one_plus_w1():
    # (1 + w1)(1 + w1 + w1^2 + w1^3) = 1 + w1^4; truncating at degree 3 leaves 1
    series = Poly.parse(K, "1 + w1 + w1^2 + w1^3")
    product = (Poly.one(K) + W1) * series
    truncated = Poly(K, [t for t in product.terms if monomial_degree(t) <= 3])
    assert truncated == Poly.one(K)


def test_mixed_variable_counts_rejected():
    with pytest.raises(ValueError):
        Poly.variable(2, 1) + Poly.variable(3, 1)
    with pytest.raises(ValueError):
        Poly.variable(2, 1) * Poly.variable(3, 1)


def test_duplicate_terms_cancel_in_constructor():
    assert Poly(K, [(1, 0, 0), (1, 0, 0)]).is_zero
    assert Poly(K, [(1, 0, 0), (0, 1, 0), (1, 0, 0)]) == W2


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Poly(K, [(-1, 0, 0)])


def test_reduce_mod_vars_examples():
    assert Poly.parse(K, "w1^3 + w3").reduce_mod_vars({1}) == W3
    assert Poly.parse(K, "w1^2 + w2").reduce_mod_vars({1}) == W2
    assert W1.reduce_mod_vars({1}).is_zero


def test_reduce_mod_vars_validates_kill_set():
    with pytest.raises(ValueError):
        W1.reduce_mod_vars({4})


def test_reduce_mod_vars_composes_as_union():
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randint(2, 5)
        p = random_poly(rng, k)
        a = set(rng.sample(range(1, k + 1), rng.randint(0, k)))
        b = set(rng.sample(range(1, k + 1), rng.randint(0, k)))
        assert p.reduce_mod_vars(a).reduce_mod_vars(b) == p.reduce_mod_vars(a | b)


def test_ring_axioms_random():
    rng = random.Random(12345)
    for _ in range(60):
        k = rng.randint(1, 4)
        a, b, c = (random_poly(rng, k) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b).square() == a.square() + b.square()
        assert (a + b) * (a + b) == a * a + b * b


def test_pow():
    assert W2**0 == Poly.one(K)
    assert W2**5 == Poly.monomial(K, (0, 5, 0))
    assert (W1 + W2) ** 4 == Poly.parse(K, "w1^4 + w2^4")
    with pytest.raises(ValueError):
        (W1 + W2) ** -1


def test_homogeneous_degree():
    assert Poly.parse(K, "w1^3 + w3").homogeneous_degree == 3
    assert Poly.parse(K, "1 + w1").homogeneous_degree is None
    assert Poly.zero(K).homogeneous_degree is None
    assert Poly.one(K).homogeneous_degree == 0


def test_enumerate_monomials_order():
    assert enumerate_monomials(3, 0) == [(0, 0, 0)]
    assert enumerate_monomials(3, 3) == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]
    # partitions of 4 into parts <= 2: 1+1+1+1, 1+1+2, 2+2
    assert enumerate_monomials(2, 4) == [(4, 0), (2, 1), (0, 2)]
    assert len(enumerate_monomials(2, 4)) == 3


def test_enumerate_monomials_degrees_and_uniqueness():
    for k in range(1, 5):
        for j in range(0, 15):
            monos = enumerate_monomials(k, j)
            assert len(set(monos)) == len(monos)
            assert all(monomial_degree(m) == j for m in monos)


def test_enumeration_count_matches_partition_oracle():
    for k in range(1, 7):
        for j in range(0, 61):
            assert monomial_count(k, j) == partitions_with_parts_up_to(j, k)
            assert len(enumerate_monomials(k, j)) == partitions_with_parts_up_to(j, k)


def test_render_canonical():
    assert str(Poly.zero(K)) == "0"
    assert str(Poly.one(K)) == "1"
    assert str(Poly.parse(K, "w3 + w1^3")) == "w1^3 + w3"
    assert str(Poly.parse(K, "w2*w1^2 + w1")) == "w1 + w1^2*w2"


def test_parse_roundtrip_random():
    rng = random.Random(99)
    for _ in range(80):
        k = rng.randint(1, 5)
        p = random_poly(rng, k)
        assert parse_poly(k, str(p)) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly(3, "w4")
    with pytest.raises(ValueError):
        parse_poly(3, "x1")
    with pytest.raises(ValueError):
        parse_poly(3, "w1^0")


def test_doctests():
    failures, _ = doctest.testmod(gf2poly, verbose=False)
    assert failures == 0
