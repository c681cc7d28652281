import random
from fractions import Fraction

import pytest

from crmoser.gaussrat import GaussianRational
from crmoser.jets import HoloPoly, JetMap
from crmoser.poly import Poly, Powers


def random_holo(rng, n, terms=4, max_z=2, max_w=2):
    p = HoloPoly.zero(n)
    pool = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)]
    for _ in range(terms):
        ze = tuple(rng.randrange(max_z + 1) for _ in range(n))
        we = rng.randrange(max_w + 1)
        c = GaussianRational(rng.choice(pool), rng.choice(pool + [Fraction(0)]))
        p = p + HoloPoly(n, {(ze, we): c})
    return p


def naive_mul(a, b):
    out = {}
    for (za, wa), ca in a.terms.items():
        for (zb, wb), cb in b.terms.items():
            key = (tuple(x + y for x, y in zip(za, zb)), wa + wb)
            out[key] = out.get(key, GaussianRational(0)) + ca * cb
    return HoloPoly(a.n, out)


def test_mul_matches_naive():
    rng = random.Random(2)
    for _ in range(15):
        a = random_holo(rng, 2)
        b = random_holo(rng, 2)
        assert a.mul(b) == naive_mul(a, b)


def test_mul_truncation_consistent():
    rng = random.Random(3)
    a = random_holo(rng, 2)
    b = random_holo(rng, 2)
    assert a.mul(b, 4) == a.mul(b).weight_truncate(4)


def test_substitute_w_matches_poly_substitution():
    # z^2 w |-> z^2 (u + i Q) must agree with direct Poly arithmetic
    n = 2
    p = HoloPoly(n, {((2, 0), 1): GaussianRational(1),
                     ((0, 1), 0): GaussianRational(0, 1)})
    wmix = Poly.u(n) + Poly.monomial(n, (1, 0), (0, 1), 0).scale(GaussianRational(0, 1))
    got = p.substitute_w(wmix)
    expect = Poly.monomial(n, (2, 0), (0, 0), 0) * wmix \
        + Poly.z(n, 1).scale(GaussianRational(0, 1))
    assert got == expect


def test_substitute_w_truncation_exact_below_cap():
    rng = random.Random(5)
    n = 2
    wmix = Poly.u(n) + Poly.monomial(n, (1, 0), (0, 1), 0).scale(
        GaussianRational(0, 1)) + Poly.monomial(n, (0, 1), (1, 0), 0).scale(
        GaussianRational(0, 1))
    for _ in range(10):
        p = random_holo(rng, n, terms=5)
        full = p.substitute_w(wmix)
        capped = p.substitute_w(wmix, 5)
        assert capped == full.truncate_weight(5)


def test_substitute_w_reads_a_chain_capped_at_or_above_the_sum_and_refuses_one_below():
    rng = random.Random(6)
    n = 2
    wmix = Poly.u(n) + Poly.monomial(n, (1, 0), (1, 0), 0).scale(GaussianRational(0, 1))
    chain = Powers(wmix, 7)
    for _ in range(5):
        p = random_holo(rng, n, terms=5)
        for cap in (5, 7):
            assert p.substitute_w(chain, cap) == p.substitute_w(wmix).truncate_weight(cap)
        for cap in (8, None):
            with pytest.raises(ValueError, match="powers capped at weight 7 cannot serve"):
                p.substitute_w(chain, cap)
    assert HoloPoly.w(n).substitute_w(Powers(wmix), 3) == wmix.truncate_weight(3)  # exact


def test_jetmap_origin_invariant():
    n = 2
    with pytest.raises(ValueError):
        JetMap((HoloPoly.constant(n, 1), HoloPoly.z(n, 1)), HoloPoly.w(n), 4)
    with pytest.raises(ValueError):
        JetMap((HoloPoly.z(n, 0), HoloPoly.z(n, 1)),
               HoloPoly.w(n) + HoloPoly.constant(n, 2), 4)


def test_jetmap_json_round_trip():
    jet = JetMap.identity(2, 6)
    doc = jet.to_json()
    back = JetMap.from_json(doc)
    assert back.f == jet.f and back.g == jet.g and back.D == jet.D


def test_jet_components_with_a_conj_z_term_are_refused():
    n = 2
    z1, z2, w = HoloPoly.z(n, 0), HoloPoly.z(n, 1), HoloPoly.w(n)
    with pytest.raises(ValueError, match=r"jet component f1 has a conj\(z\) term"):
        JetMap((z1 + Poly.zbar(n, 1), z2), w, 4)
    with pytest.raises(ValueError, match=r"jet component g has a conj\(z\) term"):
        JetMap((z1, z2), w + z1 * Poly.zbar(n, 0), 4)
    with pytest.raises(ValueError, match="no conj"):
        HoloPoly.zbar(n, 0)
    with pytest.raises(ValueError, match="no conj"):
        HoloPoly.monomial(n, (1, 0), (0, 1), 0)
    assert HoloPoly.monomial(n, (1, 0), (0, 0), 1, 2) == HoloPoly(n, {((1, 0), 1): 2})


def test_holopoly_and_jet_json_round_trips_on_random_polynomials():
    rng = random.Random(11)
    for n in (1, 2, 3):
        for _ in range(10):
            p = random_holo(rng, n)
            assert HoloPoly.terms_from_json(n, p.terms_to_json()) == p
        jet = JetMap(tuple(HoloPoly.z(n, i) * random_holo(rng, n) for i in range(n)),
                     HoloPoly.w(n) * random_holo(rng, n), 6)
        back = JetMap.from_json(jet.to_json())
        assert back.f == jet.f and back.g == jet.g and back.D == jet.D


def test_identity_jet():
    jet = JetMap.identity(3, 5)
    assert jet.f[1] == HoloPoly.z(3, 1)
    assert jet.g == HoloPoly.w(3)


def test_holopoly_arithmetic_keeps_its_class():
    rng = random.Random(7)
    a = random_holo(rng, 2)
    b = random_holo(rng, 2)
    for result in (a * b, a.mul(b, 4), a + b, a - b, -a, a.scale(3), a.pow(2),
                   a.weight_truncate(3), a + 1, HoloPoly.zero(2) + a):
        assert type(result) is HoloPoly
    mixed = Poly.zbar(2, 0) + Poly.u(2)
    for result in (a * mixed, mixed * a, a + mixed, a - Poly.zero(2), a.conjugate(),
                   a.substitute_w(mixed)):
        assert type(result) is Poly


def test_holopoly_is_a_poly_with_w_in_the_u_slot():
    p = HoloPoly(2, {((2, 0), 1): GaussianRational(3), ((0, 1), 0): GaussianRational(0, 1)})
    assert p == Poly.monomial(2, (2, 0), (0, 0), 1, 3) + Poly.z(2, 1).scale(GaussianRational(0, 1))
    assert HoloPoly.w(2) == Poly.u(2)
    assert HoloPoly.monomial(2, (2, 0), (0, 0), 1, 3) == HoloPoly(2, {((2, 0), 1): 3})
    assert p.bidegrees() == [(1, 0), (2, 0)]
    assert (p * p).bidegrees() == [(2, 0), (3, 0), (4, 0)]
    assert dict(p.terms) == {((2, 0), 1): GaussianRational(3),
                             ((0, 1), 0): GaussianRational(0, 1)}
    assert set((p * p).terms) == {((4, 0), 2), ((2, 1), 1), ((0, 2), 0)}
    assert len(p) == len(p.terms) == 2
    with pytest.raises(TypeError):  # a read-only snapshot
        p.terms[((1, 1), 0)] = GaussianRational(1)
    assert p.min_weight() == 1 and p.max_weight() == 4


def test_substitute_w_rejects_a_target_of_another_dimension():
    with pytest.raises(ValueError):
        HoloPoly.w(2).substitute_w(Poly.u(3))
