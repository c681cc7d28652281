"""Property tests for the one-accumulator sums of products.

`ProductSum` adds every product into one packed accumulator; the
references are the separate paths it replaced: one `Poly.mul` per product
added up with `+`, a term-by-term product over GaussianRational, and
`Poly.substitute` with the conjugate targets written out.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crmoser.census import random_normal_form_surface
from crmoser.forms import standard_form
from crmoser.gaussrat import GaussianRational
from crmoser.linalg import Matrix
from crmoser.poly import Poly, ProductSum

from helpers import real_substitution, widened

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

numerators = st.one_of(st.integers(-6, 6), st.integers(-10**25, 10**25))
rationals = st.builds(Fraction, numerators, st.integers(1, 6))
coefficients = st.builds(GaussianRational, rationals, rationals)
# a weight cap is drawn as an offset above the lowest weight a sum can have
offsets = st.one_of(st.none(), st.integers(0, 6))


@st.composite
def polys(draw, n, max_size=5, coeffs=coefficients):
    exps = st.tuples(*[st.integers(0, 2)] * n)
    monos = st.tuples(exps, exps, st.integers(0, 2))
    p = Poly(n, draw(st.dictionaries(monos, coeffs, max_size=max_size)))
    return widened(p) if draw(st.booleans()) else p


@st.composite
def triples(draw):
    """(n, [(c, a, b or None)]) with one to four products."""
    n = draw(st.integers(1, 3))
    b = st.one_of(st.none(), polys(n))
    return n, draw(st.lists(st.tuples(coefficients, polys(n), b), min_size=1, max_size=4))


def termwise_product(a: Poly, b: Poly) -> Poly:
    """a * b over GaussianRational, one term pair at a time."""
    out = {}
    for (za, zba, ua), ca in a.terms.items():
        for (zb_, zbb, ub), cb in b.terms.items():
            mono = (tuple(x + y for x, y in zip(za, zb_)),
                    tuple(x + y for x, y in zip(zba, zbb)), ua + ub)
            out[mono] = out.get(mono, GaussianRational(0)) + ca * cb
    return Poly(a.n, out)


def capped(p: Poly, cap):
    return p if cap is None else p.truncate_weight(cap)


def cap_above(offset, *polys: Poly):
    """None for no offset, else offset plus the lowest weight of the polys."""
    lows = [p.min_weight() for p in polys if p]
    return None if offset is None else offset + min(lows, default=0)


def product_cap(offset, items):
    n = items[0][1].n
    return cap_above(offset, *(a * (Poly.constant(n, 1) if b is None else b)
                               for _c, a, b in items))


@SETTINGS
@given(triples(), offsets)
def test_sum_of_products_is_the_sum_of_separate_products(case, offset):
    n, items = case
    cap = product_cap(offset, items)
    total = ProductSum(n, cap)
    expected = Poly.zero(n)
    for c, a, b in items:
        total.add(a, b, c)
        expected = expected + (capped(a, cap) if b is None else a.mul(b, cap)).scale(c)
        if b is not None:  # one product alone: the same plan, down to the field width
            alone = ProductSum(n, cap)
            alone.add(a, b)
            assert alone.poly()._packed == a.mul(b, cap)._packed
    assert total.poly() == expected


@SETTINGS
@given(triples(), offsets)
def test_sum_of_products_matches_termwise_products(case, offset):
    n, items = case
    cap = product_cap(offset, items)
    total = ProductSum(n, cap)
    expected = Poly.zero(n)
    for c, a, b in items:
        total.add(a, b, c)
        b = Poly.constant(n, 1) if b is None else b
        expected = expected + termwise_product(a, b).scale(c)
    assert total.poly() == capped(expected, cap)


@SETTINGS
@given(triples(), offsets)
def test_real_is_the_sum_plus_its_conjugate(case, offset):
    n, items = case
    cap = product_cap(offset, items)
    total = ProductSum(n, cap)
    expected = Poly.zero(n)
    for c, a, b in items:
        total.add(a, b, c)
        expected = expected + (capped(a, cap) if b is None else a.mul(b, cap)).scale(c)
    assert total.real() == expected + expected.conjugate()


@st.composite
def forms(draw):
    """(n, m, left, right): a matrix of numerators over a random denominator, zeros among
    them, and one polynomial or None per row and per column."""
    n = draw(st.integers(1, 3))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    nums = st.lists(st.one_of(st.just(0), numerators), min_size=rows * cols,
                    max_size=rows * cols)
    m = Matrix.from_numerators(rows, cols, draw(st.integers(1, 12)), draw(nums), draw(nums))
    operand = st.one_of(st.none(), polys(n))
    return (n, m, [draw(operand) for _ in range(rows)], [draw(operand) for _ in range(cols)])


@SETTINGS
@given(forms(), offsets, st.booleans())
def test_add_form_is_the_loop_of_adds_over_the_entries(case, offset, as_real):
    n, m, left, right = case
    pairs = [(a, b) for a in left for b in right if a is not None and b is not None]
    cap = cap_above(offset, *[a * b for a, b in pairs])
    total, expected = ProductSum(n, cap), ProductSum(n, cap)
    total.add_form(m, left, right)
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            if a is not None and b is not None:
                expected.add(a, b, m[i, j])
    assert (total.real() == expected.real()) if as_real else (total.poly() == expected.poly())


@SETTINGS
@given(polys(2), st.one_of(st.none(), polys(2)), numerators, st.integers(1, 12), offsets)
def test_add_reads_an_int_a_fraction_and_a_gaussian_rational_alike(a, b, num, den, offset):
    cap = cap_above(offset, a if b is None else a * b)
    product = capped(a if b is None else a * b, cap)
    for value in (num, Fraction(num, den)):
        for c in (value, Fraction(value), GaussianRational(value)):
            total = ProductSum(2, cap)
            total.add(a, b, c)
            assert total.poly() == product.scale(value)


@st.composite
def mirrored_sums(draw):
    """(n, cap, parts, extra): parts of a sum S, a list of (c, a, b) for c a b
    (c a when b is None), with S + conj(S) = 0 unless `extra` names a last part: a random one, or
    r p or i r p for a rational r and a polynomial p with rational
    coefficients, whose imaginary or real parts cancel.

    Each block cancels in S + conj(S) only across conjugate keys: q and
    -conj(q), the product a b and -conj(a) conj(b), and i times a real
    polynomial (whose self-conjugate keys hold imaginary numerators).
    """
    n = draw(st.integers(1, 3))
    parts = []
    for kind in draw(st.lists(st.sampled_from(["conj", "product", "imaginary"]),
                              min_size=1, max_size=3)):
        a, b, c = draw(polys(n)), draw(polys(n)), draw(coefficients)
        if kind == "conj":
            parts += [(c, a, None), (-c.conjugate(), a.conjugate(), None)]
        elif kind == "product":
            parts += [(c, a, b), (-c.conjugate(), a.conjugate(), b.conjugate())]
        else:
            parts.append((GaussianRational(0, c.re), a + a.conjugate(), None))
    extra = draw(st.sampled_from([None, "any", "real", "imaginary"]))
    if extra == "any":
        parts.append((draw(coefficients), draw(polys(n)), draw(st.one_of(st.none(), polys(n)))))
    elif extra:
        r = draw(rationals)
        parts.append((GaussianRational(r) if extra == "real" else GaussianRational(0, r),
                      draw(polys(n, coeffs=rationals)), None))
    cap = cap_above(draw(offsets), *(p for _c, a, b in parts for p in (a, b) if p is not None))
    return n, cap, parts, extra


@settings(derandomize=True, deadline=None, max_examples=80)
@given(mirrored_sums())
def test_real_is_zero_equals_the_zero_test_of_real(case):
    n, cap, parts, extra = case
    total = ProductSum(n, cap)
    for c, a, b in parts:
        total.add(a, b, c)
    answer = total.real_is_zero()  # reads the accumulator, which `real` then uses up
    assert answer == total.real().is_zero()
    assert answer or extra


@st.composite
def census_substitutions(draw):
    """A census surface with real targets: (F, zs, u, gamma, top weight)."""
    n, m = draw(st.sampled_from([(2, 0), (2, 1), (3, 0), (3, 1)]))
    form = standard_form(n, m, "diagonal" if m == 0 else "antidiagonal")
    rng = random.Random(draw(st.integers(0, 10**6)))
    surface = random_normal_form_surface(rng, form, 8)
    # near-identity targets, as in reparametrize, keep every weight cap non-trivial
    zs = [Poly.z(n, i) + draw(polys(n, 3)) for i in range(n)]
    half = draw(polys(n, 3))
    u = Poly.u(n) + half + half.conjugate()
    return surface.F, zs, u, surface.F.min_weight(), surface.max_weight


@settings(derandomize=True, deadline=None, max_examples=25)
@given(census_substitutions())
def test_real_substitution_equals_the_general_substitution(case):
    f, zs, u, gamma, top = case
    zbars = [p.conjugate() for p in zs]
    for cap in range(gamma, top + 1):
        expected = f.substitute(zs, zbars, u, max_weight=cap)
        assert real_substitution(f, zs, u, cap) == expected
        # u kept: it is real too
        assert real_substitution(f, zs, None, cap) == f.substitute(zs, zbars, max_weight=cap)
    assert expected


def test_real_substitution_needs_z_targets():
    f = Poly.z(2, 0) * Poly.zbar(2, 0) + Poly.u(2)
    u = Poly.u(2) + Poly.constant(2, 1)
    with pytest.raises(ValueError):
        real_substitution(f, None, u)
    with pytest.raises(ValueError):
        ProductSum(2).add_real_substitution(f, None, u)


def test_product_sum_rejects_operands_of_another_dimension():
    total = ProductSum(2)
    with pytest.raises(ValueError):
        total.add(Poly.z(3, 0), Poly.z(3, 1))
    with pytest.raises(ValueError):
        total.add(Poly.z(2, 0), Poly.z(3, 1))
    with pytest.raises(ValueError):
        total.add(Poly.z(3, 0))
    assert total.poly() == Poly.zero(2)


fractions_with_zeros = st.one_of(
    st.just(0), st.just(Fraction(0)), st.builds(Fraction, st.just(0), st.integers(1, 9)),
    st.integers(-5, 5), rationals)


def reference_str(re: Fraction, im: Fraction) -> str:
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


@SETTINGS
@given(fractions_with_zeros, fractions_with_zeros)
def test_shared_zero_keeps_equality_hash_and_str(re, im):
    re_f, im_f = Fraction(re), Fraction(im)
    c = GaussianRational(re, im)
    assert (c.re, c.im) == (re_f, im_f)
    assert c == GaussianRational(re_f, im_f) and c == GaussianRational(re_f + 0, im_f * 1)
    assert hash(c) == hash((re_f, im_f)) == hash(GaussianRational(re_f, im_f))
    assert str(c) == reference_str(re_f, im_f)
    assert c.to_json() == {"re": str(re_f), "im": str(im_f)}
    # zeros made by arithmetic are the shared one, and still equal plain zeros
    diff = c - c
    assert diff.re is diff.im is GaussianRational(0).re
    assert diff == 0 and hash(diff) == hash(GaussianRational(0)) == hash((Fraction(0),) * 2)
    assert (c.re is GaussianRational(0).re) == (re_f == 0)
