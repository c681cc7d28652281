"""Property tests for Poly against its terms, and across field widths.

A Poly stores one packed integer form, whose field width may be wider than
its exponents need: a sum with a polynomial of higher weight is stored at
the wider width.  The `polys` strategy yields both narrow and
widened polynomials, so the ring laws, the substitutions and equality are
checked across widths.  The methods that select or lower terms on the
packed keys are checked against references computed term by term from
`dict(p.terms)`.  Coefficients include numerators beyond 64 bits, which the
packed form keeps in tuples instead of machine-integer arrays.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crmoser import packed as pk
from crmoser.gaussrat import GaussianRational
from crmoser.normal_form import trace_op
from crmoser.poly import Poly, Powers, real_coefficient_rows

from helpers import hermitian_forms, mono_weight, real_substitution, widened

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

numerators = st.one_of(st.integers(-6, 6), st.integers(-10**25, 10**25))
rationals = st.builds(Fraction, numerators, st.integers(1, 4))
coefficients = st.builds(GaussianRational, rationals, rationals)


@st.composite
def polys(draw, n):
    exps = st.tuples(*[st.integers(0, 2)] * n)
    monos = st.tuples(exps, exps, st.integers(0, 2))
    p = Poly(n, draw(st.dictionaries(monos, coefficients, max_size=5)))
    return widened(p) if draw(st.booleans()) else p


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


@settings(derandomize=True, deadline=None, max_examples=30)
@given(polys(2), st.one_of(st.none(), st.integers(0, 10)))
def test_a_chain_is_repeated_capped_products_at_any_base_width(p, cap):
    """Powers, conjugates and mixed powers of a chain against capped `mul` and `conjugate`,
    for the base as drawn and packed wider."""
    expect = [Poly.constant(2, 1)]
    for _ in range(3):
        expect.append(expect[-1].mul(p, cap))
    chain, wide = Powers(p, cap), Powers(widened(p), cap)
    for e, power in enumerate(expect):
        got = [(c.power(e), c.conjugate(e)) for c in (chain, wide)]
        assert got[0] == got[1] == (power, power.conjugate())
        assert hash(got[0]) == hash(got[1])
        for e2, other in enumerate(expect):
            mixed = power.mul(other.conjugate(), cap)
            assert chain.mixed(e, e2) == wide.mixed(e, e2) == mixed
            assert hash(chain.mixed(e, e2)) == hash(wide.mixed(e, e2))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(polys(2), st.integers(0, 10), st.integers(0, 10), st.integers(0, 3), st.integers(0, 3))
def test_a_chain_read_below_its_cap_is_the_truncated_exact_product(p, c, c2, a, b):
    """p^a conj(p)^b from a chain capped at c, multiplied under a lower cap c', agrees with
    the exact product through weight c' (the weight room of `reparametrize`)."""
    c, c2 = max(c, c2), min(c, c2)
    chain = Powers(p, c)
    exact = p ** a * p.conjugate() ** b
    assert chain.power(a).mul(chain.conjugate(b), c2) == exact.truncate_weight(c2)


@st.composite
def outgrowing_pairs(draw):
    """(a, b), each 1 + c x^e + terms of weight <= 3 for one z or conj(z) x, e_a + e_b >= 4.

    Each operand has at most 2-bit fields, and the product's x^(e_a + e_b)
    needs 3 bits, more than the lowest weights of the operands ask for.
    """
    n = draw(st.integers(1, 3))
    x = draw(st.integers(0, 2 * n - 1))  # the field of z_1..z_n, conj(z_1)..conj(z_n)
    small = st.tuples(*[st.integers(0, 1)] * n)
    extras = st.dictionaries(st.tuples(small, small, st.just(0)), coefficients, max_size=2)

    def operand(e):
        terms = {mono: c for mono, c in draw(extras).items() if mono_weight(mono) <= 3}
        exps = [0] * (2 * n)
        exps[x] = e
        terms[(tuple(exps[:n]), tuple(exps[n:]), 0)] = draw(st.integers(1, 3))
        terms[((0,) * n, (0,) * n, 0)] = 1
        return Poly(n, terms)

    e = draw(st.integers(1, 3))
    return operand(e), operand(draw(st.integers(4 - e, 3)))


@SETTINGS
@given(outgrowing_pairs())
def test_a_product_wider_than_its_operands_equals_the_product_of_a_widened_one(ab):
    a, b = ab
    assert a * b == widened(a) * b == b * widened(a)
    assert a * b == Poly(a.n, dict((widened(a) * b).terms))


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
    for p in (a, b, product):
        assert len(p) == len(p.terms) and bool(p) == (len(p) > 0)
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
        present = not product.coeff(mono).is_zero()
        assert (mono in product.terms) == (product.terms.get(mono) is not None) == present
        with pytest.raises(TypeError):  # a read-only snapshot
            product.terms[mono] = GaussianRational(1)


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


@st.composite
def capped_real_substitutions(draw):
    """(real p, z targets, real u target, cap): targets of positive weight, caps 4 to 12."""
    n = draw(st.integers(1, 2))
    p = draw(polys(n))
    exps = st.tuples(*[st.integers(0, 1)] * n)
    monos = st.tuples(exps, exps, st.integers(0, 1)).filter(lambda mono: mono_weight(mono) > 0)

    def target():
        return Poly(n, draw(st.dictionaries(monos, coefficients, min_size=1, max_size=2)))

    us = target()
    return p + p.conjugate(), [target() for _ in range(n)], us + us.conjugate(), \
        draw(st.integers(4, 12))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(capped_real_substitutions())
def test_capped_substitutions_do_not_depend_on_the_target_field_width(case):
    p, zs, us, cap = case
    wide_zs, wide_us = [widened(z) for z in zs], widened(us)
    got = p.substitute(zs, [z.conjugate() for z in zs], us, max_weight=cap)
    wide = p.substitute(wide_zs, [z.conjugate() for z in wide_zs], wide_us, max_weight=cap)
    assert got == wide and hash(got) == hash(wide)
    assert got == p.substitute(zs, [z.conjugate() for z in zs], us).truncate_weight(cap)
    real, wide_real = real_substitution(p, zs, us, cap), real_substitution(p, wide_zs, wide_us, cap)
    assert real == wide_real == got and hash(real) == hash(wide_real)


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
    for p in (a, a * b):
        terms = dict(p.terms)
        for slot, kind in enumerate(("z", "zbar")):
            for j in range(n):
                expected = {}
                for mono, c in terms.items():
                    e = mono[slot][j]
                    if e:
                        exps = [list(mono[0]), list(mono[1])]
                        exps[slot][j] -= 1
                        expected[(tuple(exps[0]), tuple(exps[1]), mono[2])] = c * e
                assert p.partial(kind, j) == Poly(n, expected)
        assert p.partial("u") == Poly(n, {(z, zb, u - 1): c * u
                                          for (z, zb, u), c in terms.items() if u})
        degrees = {(sum(z), sum(zb)) for z, zb, _u in terms}
        assert p.bidegrees() == sorted(degrees)
        # each term's bidegree read off its key, in key order (the order of `terms`)
        assert p.key_bidegrees() == [(sum(z), sum(zb)) for z, zb, _u in p.terms]
        for k, l in degrees | {(5, 5)}:
            assert p.bidegree_component(k, l) == Poly(n, {
                mono: c for mono, c in terms.items() if (sum(mono[0]), sum(mono[1])) == (k, l)})
        # one split into all parts: they sum to p, each holds exactly the terms of
        # its bidegree, and they come in the order of their first key
        parts = p.bidegree_parts()
        assert sum(parts.values(), Poly.zero(n)) == p
        for (k, l), part in parts.items():
            assert dict(part.terms) == {
                mono: c for mono, c in terms.items() if (sum(mono[0]), sum(mono[1])) == (k, l)}
        assert list(parts) == list(dict.fromkeys((sum(z), sum(zb)) for z, zb, _u in p.terms))


def terms_where(p: Poly, keep) -> Poly:
    """The terms of p whose monomial satisfies keep, selected term by term."""
    return Poly(p.n, {mono: c for mono, c in dict(p.terms).items() if keep(mono)})


@SETTINGS
@given(poly_tuples(2), st.integers(0, 20))
def test_weight_and_u_selections_agree_with_the_terms(ab, cap):
    a, b = ab
    for p in (a, a * b):
        weights = sorted({mono_weight(mono) for mono in p.terms})
        parts = p.weight_decompose()
        assert list(parts) == weights
        for w in weights:
            assert parts[w] == terms_where(p, lambda mono: mono_weight(mono) == w)
        for w in (*weights, cap):
            assert p.weight_component(w) == terms_where(p, lambda mono: mono_weight(mono) == w)
        assert p.truncate_weight(cap) == terms_where(p, lambda mono: mono_weight(mono) <= cap)
        assert p.at_u_zero() == terms_where(p, lambda mono: mono[2] == 0)
        for j, part in p.u_coefficients().items():
            assert part == Poly(p.n, {(z, zb, 0): c for (z, zb, u), c in dict(p.terms).items()
                                      if u == j})


@SETTINGS
@given(st.data())
def test_split_groups_terms_as_their_exponent_tuples_do(data):
    # packed.split groups terms by the key bits of the fields; the reference groups
    # them term by term by their exponents there, which it clears, in first-appearance order
    n = data.draw(st.integers(1, 3))
    p = data.draw(polys(n))
    bits = data.draw(st.integers(p._packed[0], p._packed[0] + 4))
    packed = pk.align(n, [p._packed, pk.one(bits)])[0]
    drawn = data.draw(st.lists(st.integers(0, 2 * n), unique=True))
    for fields in (drawn, [2 * n], list(range(2 * n + 1))):
        expected = {}
        for (z, zb, u), c in pk.unpack(n, packed):
            exps = [*z, *zb, u]
            key = tuple(exps[i] for i in fields)
            for i in fields:
                exps[i] = 0
            mono = (tuple(exps[:n]), tuple(exps[n:2 * n]), exps[2 * n])
            expected.setdefault(key, []).append((mono, c))
        groups = pk.split(packed, n, fields)
        assert list(groups) == list(expected)
        for key, part in groups.items():
            assert part[0] == bits
            assert list(pk.unpack(n, part)) == expected[key]
            assert list(pk.weights(part, n)) == [mono_weight(mono) for mono, _c in expected[key]]


@SETTINGS
@given(st.data())
def test_trace_op_agrees_with_the_terms(data):
    a, b = data.draw(poly_tuples(2))
    n = a.n
    form = data.draw(hermitian_forms(n))
    hinv = form.inverse_matrix()
    for p in (a, a * b):
        expected = {}
        for (z, zb, u), c in dict(p.terms).items():
            for i in range(n):
                for j in range(n):
                    if z[i] and zb[j]:
                        mono = (tuple(e - (k == i) for k, e in enumerate(z)),
                                tuple(e - (k == j) for k, e in enumerate(zb)), u)
                        expected[mono] = (expected.get(mono, GaussianRational(0))
                                          + c * hinv[i, j] * (z[i] * zb[j]))
        assert trace_op(form, p) == Poly(n, expected)


@SETTINGS
@given(poly_tuples(1))
def test_equal_polynomials_at_different_field_widths_hash_equal(a):
    (p,) = a
    terms = dict(p.terms)
    narrow, wide = Poly(p.n, terms), widened(Poly(p.n, terms))
    assert wide._packed[0] > narrow._packed[0]
    assert hash(narrow) == hash(wide)
    assert narrow == wide and wide == narrow
    other = narrow + Poly.z(p.n, 0)
    assert other != wide and wide != other


@SETTINGS
@given(poly_tuples(3))
def test_real_coefficient_rows_are_the_coefficients_over_one_denominator(abc):
    monos = list(dict.fromkeys(mono for p in abc for mono in p.terms))
    expected = [[getattr(p.coeff(mono), part) for p in abc]
                for mono in monos for part in ("re", "im")]
    rows = real_coefficient_rows(abc)
    den = lcm(*(e.denominator for row in expected for e in row))
    assert rows == [[e * den for e in row] for row in expected]
