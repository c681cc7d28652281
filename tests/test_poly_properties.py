"""Property tests for Poly in both of its stored forms.

A polynomial built from terms holds the term dict; a product holds the
packed integer form.  Every strategy below yields both kinds, so the laws
are checked on the packed arithmetic, on the dict arithmetic and across the
two.  Coefficients include numerators beyond 64 bits, which the packed form
keeps in tuples instead of machine-integer arrays.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crmoser.gaussrat import GaussianRational
from crmoser.poly import Poly

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

numerators = st.one_of(st.integers(-6, 6), st.integers(-10**25, 10**25))
rationals = st.builds(Fraction, numerators, st.integers(1, 4))
coefficients = st.builds(GaussianRational, rationals, rationals)


@st.composite
def polys(draw, n):
    exps = st.tuples(*[st.integers(0, 2)] * n)
    monos = st.tuples(exps, exps, st.integers(0, 2))
    p = Poly(n, draw(st.dictionaries(monos, coefficients, max_size=5)))
    if draw(st.booleans()):
        p = p.mul(Poly.constant(n, 1))  # the same polynomial, packed
    return p


@st.composite
def poly_tuples(draw, count):
    n = draw(st.integers(1, 3))
    return tuple(draw(polys(n)) for _ in range(count))


@SETTINGS
@given(poly_tuples(2))
def test_commutativity(ab):
    a, b = ab
    assert a * b == b * a
    assert a + b == b + a


@SETTINGS
@given(poly_tuples(3))
def test_associativity_and_distributivity(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * (b - c) == a * b - a * c


@SETTINGS
@given(poly_tuples(2), st.integers(0, 12))
def test_capped_product_is_truncated_product(ab, cap):
    a, b = ab
    assert a.mul(b, cap) == (a * b).truncate_weight(cap)


@SETTINGS
@given(poly_tuples(2))
def test_conjugate_of_product(ab):
    a, b = ab
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a * b).conjugate().conjugate() == a * b


@SETTINGS
@given(poly_tuples(2))
def test_product_equals_and_hashes_like_its_terms(ab):
    a, b = ab
    product = a * b
    rebuilt = Poly(a.n, dict((a * b).terms))
    assert product == rebuilt
    assert hash(product) == hash(rebuilt)
    assert len(product.terms) == len(rebuilt.terms)
    assert (a * b).conjugate() == rebuilt.conjugate()
    assert ((a * b).real_violation() is None) == rebuilt.is_real()
    real = a * a.conjugate()
    assert real.real_violation() is None and real.is_real()


@SETTINGS
@given(poly_tuples(2), st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                                          st.integers(0, 9)), max_size=6))
def test_coefficient_lookup_on_the_packed_form(ab, exps):
    a, b = ab
    n = a.n
    product = a * b
    rebuilt = Poly(n, dict((a * b).terms))
    spread = [((e,) * n, (f,) * n, u) for e, f, u in exps]  # exponents beyond a field too
    for mono in [*rebuilt.terms, *spread]:
        assert product.coeff(mono) == rebuilt.terms.get(mono, 0)


@SETTINGS
@given(poly_tuples(2), st.integers(-3, 3), rationals)
def test_scale_and_subtract(ab, k, q):
    a, b = ab
    assert (a * b).scale(q) == (a.scale(q)) * b
    assert a - a == Poly.zero(a.n)
    assert (a * b).scale(GaussianRational(k, 1)) == a * b.scale(GaussianRational(k, 1))


@SETTINGS
@given(poly_tuples(2))
def test_json_round_trip_of_product(ab):
    a, b = ab
    product = a * b
    assert Poly.from_json(product.to_json()) == product


@SETTINGS
@given(poly_tuples(2))
def test_identity_substitution(ab):
    a, b = ab
    n = a.n
    zs = [Poly.z(n, i) for i in range(n)]
    zbs = [Poly.zbar(n, i) for i in range(n)]
    for p in (a, a * b):
        assert p.substitute(zs, zbs, Poly.u(n)) == p
        assert p.substitute(zs, zbs, Poly.u(n), max_weight=6) == p.truncate_weight(6)


@st.composite
def kept_substitutions(draw):
    """(p, zsubs, zbarsubs, usub, cap): each group of variables kept (None) or not."""
    n = draw(st.integers(1, 2))
    p = draw(polys(n))
    exps = st.tuples(*[st.integers(0, 1)] * n)
    monos = st.tuples(exps, exps, st.integers(0, 1))

    def target():
        q = Poly(n, draw(st.dictionaries(monos, coefficients, max_size=3)))
        return q.mul(Poly.constant(n, 1)) if draw(st.booleans()) else q

    zs = [target() for _ in range(n)] if draw(st.booleans()) else None
    zbs = [target() for _ in range(n)] if draw(st.booleans()) else None
    us = target() if draw(st.booleans()) else None
    cap = draw(st.one_of(st.none(), st.integers(0, 8)))
    return p, zs, zbs, us, cap


@SETTINGS
@given(kept_substitutions())
def test_kept_variables_equal_identity_substitution(case):
    p, zs, zbs, us, cap = case
    n = p.n
    identity = ([Poly.z(n, i) for i in range(n)] if zs is None else zs,
                [Poly.zbar(n, i) for i in range(n)] if zbs is None else zbs,
                Poly.u(n) if us is None else us)
    got = p.substitute(zs, zbs, us, max_weight=cap)
    assert got == p.substitute(*identity, max_weight=cap)
    if cap is not None:
        assert got == p.substitute(zs, zbs, us).truncate_weight(cap)


def test_kept_variables_above_the_cap_are_dropped():
    z = Poly.z(1, 0)
    assert (z.pow(3) + Poly.u(1)).substitute(usub=z, max_weight=2) == z


def test_kept_variable_with_mismatched_target_dimension_raises():
    p = Poly.z(2, 0) * Poly.u(2)
    with pytest.raises(ValueError):
        p.substitute(usub=Poly.u(3))
    with pytest.raises(ValueError):
        p.substitute(zsubs=[Poly.z(3, 0), Poly.z(3, 1)], max_weight=4)
    # with every variable substituted, the target dimension is free
    moved = p.substitute([Poly.z(3, 0), Poly.z(3, 1)], [Poly.zbar(3, 0), Poly.zbar(3, 1)],
                         Poly.u(3))
    assert moved == Poly.z(3, 0) * Poly.u(3)


@st.composite
def term_documents(draw):
    """(n, JSON term list, its terms as a dict with repeats summed).

    Repeated monomials are common, and some repeats cancel their first
    occurrence exactly.  Parts are written reduced or with a common factor
    in numerator and denominator.
    """
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    monos = st.tuples(exps, exps, st.integers(0, 2))
    entries = draw(st.lists(st.tuples(monos, coefficients), max_size=6))
    if entries:
        cancel = draw(st.lists(st.sampled_from(entries), max_size=3))
        entries = draw(st.permutations(entries + [(mono, -c) for mono, c in cancel]))

    def part(q):
        k = draw(st.integers(1, 3))
        return f"{q.numerator * k}/{q.denominator * k}" if k > 1 else str(q)

    items, summed = [], {}
    for (z, zb, u), c in entries:
        item = {"z": list(z), "zbar": list(zb), "re": part(c.re)}
        if u or draw(st.booleans()):
            item["u"] = u
        if c.im or draw(st.booleans()):
            item["im"] = part(c.im)
        items.append(item)
        summed[(z, zb, u)] = summed.get((z, zb, u), GaussianRational(0)) + c
    return n, items, summed


@SETTINGS
@given(term_documents())
def test_terms_from_json_equals_the_summed_term_dict(doc):
    n, items, summed = doc
    parsed = Poly.terms_from_json(n, items)
    expected = Poly(n, summed)
    assert parsed == expected
    assert hash(parsed) == hash(expected)
    assert dict(parsed.terms) == dict(expected.terms)


@SETTINGS
@given(poly_tuples(2))
def test_derivatives_and_bidegrees_agree_with_the_terms(ab):
    a, b = ab
    n = a.n

    def packed(q):  # packed keys carry the weight, which a term dict does not
        return q.mul(Poly.constant(n, 1))

    for p in (a, a * b):
        terms = dict(p.mul(Poly.constant(n, 1)).terms)  # read a copy: p keeps its stored form
        for slot, kind in enumerate(("z", "zbar")):
            for j in range(n):
                expected = {}
                for mono, c in terms.items():
                    e = mono[slot][j]
                    if e:
                        exps = [list(mono[0]), list(mono[1])]
                        exps[slot][j] -= 1
                        expected[(tuple(exps[0]), tuple(exps[1]), mono[2])] = c * e
                assert p.partial(kind, j) == packed(Poly(n, expected))
        assert p.partial("u") == packed(Poly(n, {(z, zb, u - 1): c * u
                                                 for (z, zb, u), c in terms.items() if u}))
        degrees = {(sum(z), sum(zb)) for z, zb, _u in terms}
        assert p.bidegrees() == sorted(degrees)
        for k, l in degrees | {(5, 5)}:
            assert p.bidegree_component(k, l) == packed(Poly(n, {
                mono: c for mono, c in terms.items() if (sum(mono[0]), sum(mono[1])) == (k, l)}))
