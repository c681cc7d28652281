import random
from fractions import Fraction

import pytest
import sympy

from crmoser.forms import standard_form
from crmoser.gaussrat import GaussianRational
from crmoser.linalg import Matrix
from crmoser.models import model_umbilic
from crmoser.poly import Poly, ProductSum

from helpers import mono_weight, poly_to_sympy, random_real_poly, real_substitution, sym_vars


def naive_mul(a: Poly, b: Poly) -> Poly:
    """Reference convolution, independent of the packed fast path."""
    out = {}
    for (za, zba, ua), ca in a.terms.items():
        for (zb, zbb, ub), cb in b.terms.items():
            key = (tuple(x + y for x, y in zip(za, zb)),
                   tuple(x + y for x, y in zip(zba, zbb)), ua + ub)
            out[key] = out.get(key, GaussianRational(0)) + ca * cb
    return Poly(a.n, out)


# -- bidegree_component ----------------------------------------------------------


def test_bidegree_sorting_trivial():
    p = (Poly.monomial(2, (2, 0), (2, 0), 1)
         + Poly.monomial(2, (2, 0), (3, 0), 0)
         + Poly.monomial(2, (3, 0), (2, 0), 0))
    assert p.bidegree_component(2, 2) == Poly.monomial(2, (2, 0), (2, 0), 1)
    assert p.bidegree_component(3, 2) == Poly.monomial(2, (3, 0), (2, 0), 0)
    assert p.bidegree_component(4, 4).is_zero()


def test_bidegree_zero_poly():
    assert Poly.zero(3).bidegree_component(2, 2).is_zero()


def test_bidegree_inner_square_derived():
    # oracle: sympy expansion of (z1 zb1 + z2 zb2)^2 is bihomogeneous (2,2)
    form = standard_form(2, 0, "diagonal")
    q2 = form.inner_poly() ** 2
    z, zb, u = sym_vars(2)
    expanded = sympy.expand((z[0] * zb[0] + z[1] * zb[1]) ** 2)
    assert poly_to_sympy(q2) == expanded
    for mono in expanded.as_ordered_terms():
        degs = sympy.Poly(mono, *z, *zb).monoms()[0]
        assert sum(degs[:2]) == 2 and sum(degs[2:]) == 2
    assert q2.bidegree_component(2, 2) == q2
    assert q2.bidegree_component(2, 3).is_zero()


def test_bidegree_partition():
    rng = random.Random(3)
    p = random_real_poly(rng, 2, pairs=4)
    total = Poly.zero(2)
    for k, l in p.bidegrees():
        total = total + p.bidegree_component(k, l)
    assert total == p


# -- weight_decompose ------------------------------------------------------------


def test_weight_single_monomial():
    p = Poly.monomial(2, (0, 2), (0, 2), 0)
    assert list(p.weight_decompose()) == [4]


def test_weight_with_u():
    p = Poly.monomial(2, (2, 0), (2, 0), 1)
    assert list(p.weight_decompose()) == [6]


def test_weight_two_components_and_gamma():
    p = Poly.monomial(2, (2, 0), (2, 0), 0) + Poly.monomial(2, (2, 0), (2, 0), 1)
    comps = p.weight_decompose()
    assert sorted(comps) == [4, 6]
    assert p.min_weight() == 4
    assert sum(comps.values(), Poly.zero(2)) == p


# -- substitute_linear -----------------------------------------------------------


def test_substitute_linear_scaling():
    p = Poly.monomial(2, (1, 0), (1, 0), 0)  # |z1|^2
    out = p.substitute_linear(Matrix([[2, 0], [0, 1]]), Fraction(1))
    assert out == p.scale(4)


def test_substitute_linear_u_reflection():
    p = Poly.monomial(2, (0, 1), (0, 1), 1)  # u |z2|^2
    out = p.substitute_linear(Matrix.identity(2), Fraction(-1))
    assert out == -p


def test_substitute_linear_swap_derived():
    # oracle: sympy substitution z1<->z2, zb1<->zb2 on 2 Re(z1 zb2)
    p = Poly.monomial(2, (1, 0), (0, 1), 0) + Poly.monomial(2, (0, 1), (1, 0), 0)
    out = p.substitute_linear(Matrix([[0, 1], [1, 0]]), Fraction(1))
    z, zb, u = sym_vars(2)
    oracle = poly_to_sympy(p).subs(
        {z[0]: z[1], z[1]: z[0], zb[0]: zb[1], zb[1]: zb[0]}, simultaneous=True)
    assert poly_to_sympy(out) == sympy.expand(oracle)
    assert out == p


def test_substitute_linear_inverse_round_trip():
    rng = random.Random(5)
    a_mat = Matrix([[1, 2], [1, 3]])  # invertible over Q
    for _ in range(10):
        p = random_real_poly(rng, 2, pairs=3)
        moved = p.substitute_linear(a_mat, Fraction(2))
        back = moved.substitute_linear(a_mat.inverse(), Fraction(1, 2))
        assert back == p
        assert moved.is_real()


def test_substitute_linear_dimension_mismatch():
    with pytest.raises(ValueError):
        Poly.zero(2).substitute_linear(Matrix.identity(3), Fraction(1))


# -- partial -----------------------------------------------------------------------


def test_partial_power_rules():
    p = Poly.monomial(2, (0, 2), (0, 2), 0)
    assert p.partial("z", 1) == Poly.monomial(2, (0, 1), (0, 2), 0).scale(2)
    q = Poly.monomial(2, (1, 0), (1, 0), 2)
    assert q.partial("u") == Poly.monomial(2, (1, 0), (1, 0), 1).scale(2)


def test_partial_inner_form_derived():
    for n in (2, 3):
        form = standard_form(n, 0, "diagonal")
        inner = form.inner_poly()
        got = inner.partial("zbar", 0)
        z, zb, u = sym_vars(n)
        oracle = sympy.diff(poly_to_sympy(inner), zb[0])
        assert poly_to_sympy(got) == oracle
        assert got == Poly.z(n, 0)


def test_partial_commutes():
    rng = random.Random(7)
    for _ in range(20):
        p = random_real_poly(rng, 2, pairs=3)
        for a in range(2):
            for b in range(2):
                assert (p.partial("z", a).partial("zbar", b)
                        == p.partial("zbar", b).partial("z", a))


def test_partial_against_sympy_random():
    rng = random.Random(9)
    z, zb, u = sym_vars(2)
    for _ in range(10):
        p = random_real_poly(rng, 2, pairs=3)
        expr = poly_to_sympy(p)
        assert poly_to_sympy(p.partial("z", 0)) == sympy.diff(expr, z[0])
        assert poly_to_sympy(p.partial("zbar", 1)) == sympy.diff(expr, zb[1])
        assert poly_to_sympy(p.partial("u")) == sympy.diff(expr, u)


# -- ring structure and the packed fast path ----------------------------------------


def test_mul_matches_naive_reference():
    rng = random.Random(13)
    for n in (1, 2, 3):
        for _ in range(15):
            a = random_real_poly(rng, n, pairs=3)
            b = random_real_poly(rng, n, pairs=3)
            assert a * b == naive_mul(a, b)


def test_mul_truncated_agrees_below_cap():
    rng = random.Random(17)
    for _ in range(10):
        a = random_real_poly(rng, 2, pairs=3)
        b = random_real_poly(rng, 2, pairs=3)
        cap = 6
        capped = a.mul(b, cap)
        full = (a * b).truncate_weight(cap)
        assert capped == full


def test_mul_against_sympy():
    rng = random.Random(19)
    a = random_real_poly(rng, 2, pairs=3)
    b = random_real_poly(rng, 2, pairs=3)
    assert poly_to_sympy(a * b) == sympy.expand(poly_to_sympy(a) * poly_to_sympy(b))


def test_pow_large_exponents_no_packing_overflow():
    q = standard_form(2, 0, "diagonal").inner_poly()
    p = q ** 9
    z, zb, u = sym_vars(2)
    assert poly_to_sympy(p) == sympy.expand(
        (z[0] * zb[0] + z[1] * zb[1]) ** 9)


def test_a_square_keeps_an_exponent_too_wide_for_the_operand_fields():
    # 1 + z1^3 is packed with 2-bit fields; z1^6 needs 3 bits, so the product is wider
    zero = (0, 0)
    p = Poly(2, {(zero, zero, 0): 1, ((3, 0), zero, 0): 1})
    assert p * p == Poly(2, {(zero, zero, 0): 1, ((3, 0), zero, 0): 2, ((6, 0), zero, 0): 1})


def test_coeff_of_a_monomial_too_wide_for_the_fields_is_zero():
    # 1 + z1 has 1-bit fields and 1 + u 2-bit ones: z1^2 and u^4 fit in neither
    zero = (0, 0)
    p = Poly(2, {(zero, zero, 0): 1, ((1, 0), zero, 0): 1})
    assert p.coeff(((2, 0), zero, 0)) == 0 and p.coeff(((1, 0), zero, 0)) == 1
    q = Poly.constant(1, 1) + Poly.u(1)
    assert q.coeff(((0,), (0,), 4)) == 0 and q.coeff(((0,), (0,), 1)) == 1


def test_reality_closure():
    rng = random.Random(23)
    for _ in range(20):
        a = random_real_poly(rng, 2, pairs=2)
        b = random_real_poly(rng, 2, pairs=2)
        assert (a + b).is_real()
        assert (a * b).is_real()
        assert a.conjugate().conjugate() == a


def test_weight_additive_and_bidegree_convolution():
    rng = random.Random(29)
    a = random_real_poly(rng, 2, pairs=3)
    b = random_real_poly(rng, 2, pairs=3)
    prod = a * b
    for mono in prod.terms:
        w = mono_weight(mono)
        pieces = [
            (wa, wb) for wa in [mono_weight(ma) for ma in a.terms]
            for wb in [mono_weight(mb) for mb in b.terms] if wa + wb == w
        ]
        assert pieces, "product weight must come from summing factor weights"
    for k, l in prod.bidegrees():
        conv = Poly.zero(2)
        for ka, la in a.bidegrees():
            kb, lb = k - ka, l - la
            if kb >= 0 and lb >= 0:
                conv = conv + a.bidegree_component(ka, la) * b.bidegree_component(kb, lb)
        assert conv.bidegree_component(k, l) == prod.bidegree_component(k, l)


def test_operands_keep_their_stored_field_width():
    # a shared memoized power and a surface's F, each used with a wider operand
    form = standard_form(2, 1, "antidiagonal")
    model = model_umbilic(2, 1, "antidiagonal", {(4, 0): 1})
    far = Poly.u(2).pow(40)
    for p in (form.inner_power(2), model.F, Poly.z(2, 0) * Poly.zbar(2, 1)):
        stored = p._packed
        assert stored[0] < far._packed[0]
        assert p + far != far and p * far != far
        total = ProductSum(2)
        total.add(far, p)
        total.add(p)
        total.add(p, p.conjugate(), Fraction(1, 2))
        total.real()
        assert p._packed is stored


# -- serialization -------------------------------------------------------------------


def test_json_round_trip_and_canonical_order():
    rng = random.Random(31)
    p = random_real_poly(rng, 2, pairs=4)
    doc = p.to_json()
    assert Poly.from_json(doc) == p
    keys = [(t["u"], tuple(t["z"]), tuple(t["zbar"])) for t in doc["terms"]]
    assert keys == sorted(keys)


def test_zero_is_empty_term_map():
    p = Poly.monomial(2, (1, 0), (0, 1), 0)
    assert (p - p).terms == {}
    assert (p - p).is_zero()


def test_u_coefficients_lower_the_weight_by_two_per_power_of_u():
    # each u-power slice loses its u exponent from the u field and twice it from the weight
    n = 2
    z1 = Poly.z(n, 0)
    p = Poly.u(n).pow(2).scale(3) + z1 * Poly.u(n) + z1 * z1
    parts = p.u_coefficients()
    assert parts == {0: z1 * z1, 1: z1, 2: Poly.constant(n, 3)}
    assert [part.min_weight() for part in parts.values()] == [2, 1, 0]


# -- display ---------------------------------------------------------------------------


def test_str_writes_an_exponent_only_above_one():
    n = 2
    p = (Poly.u(n) + Poly.u(n).pow(2).scale(-3)
         + Poly.z(n, 0).scale(GaussianRational(Fraction(1, 2), -1))
         + Poly.zbar(n, 1).scale(GaussianRational(0, 2))
         + Poly.monomial(n, (2, 0), (0, 1), 1, Fraction(-5, 3)))
    assert str(p) == "(2i) ~z2 + (1/2-1i) z1 + (1) u + (-5/3) z1^2 ~z2 u + (-3) u^2"
    assert str(Poly.zero(n)) == "0" and str(Poly.constant(n, 1)) == "(1) 1"


# -- sums of products: small examples ----------------------------------------------------


def test_real_is_zero_sees_an_imaginary_coefficient_without_a_partner():
    """i z1 + conj(i z1) = i z1 - i ~z1: its cells differ only in their imaginary parts."""
    total = ProductSum(1)
    total.add(Poly.z(1, 0), c=GaussianRational(0, 1))
    assert not total.real_is_zero()
    assert total.real() == Poly.z(1, 0).scale(GaussianRational(0, 1)) - Poly.zbar(1, 0).scale(
        GaussianRational(0, 1))


def test_add_form_reads_the_matrix_denominator():
    z, zb = Poly.z(1, 0), Poly.zbar(1, 0)
    total = ProductSum(1)
    total.add_form(Matrix([[Fraction(1, 2)]]), [z], [zb])
    assert total.poly() == (z * zb).scale(Fraction(1, 2))


# -- powers ------------------------------------------------------------------------------


def test_a_real_substitution_reads_the_conjugates_of_its_chains():
    """A non-real target z1 + i z2: conj(z) slots must read conj(p^e), not p^e."""
    n = 2
    z1, z2 = Poly.z(n, 0), Poly.z(n, 1)
    zs = [z1 + z2.scale(GaussianRational(0, 1)), z2.scale(Fraction(1, 2)) + Poly.u(n)]
    f = random_real_poly(random.Random(7), n, pairs=4)
    u = Poly.u(n).scale(3)
    for cap in (None, 6):
        assert real_substitution(f, zs, u, cap) == f.substitute(zs, [p.conjugate() for p in zs],
                                                                u, cap)


def test_only_zero_is_a_real_u_multiple_of_zero():
    zero = Poly.zero(2)
    assert zero.is_real_u_multiple(zero)
    assert not Poly.u(2).is_real_u_multiple(zero)


def test_coeff_of_a_monomial_of_another_dimension_is_zero():
    p = Poly.z(2, 0) + Poly.constant(2, 3)
    assert p.coeff(((0, 0, 0), (0, 0, 0), 0)) == 0
    assert p.coeff(((1,), (0,), 0)) == 0
