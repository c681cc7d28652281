"""reparametrize against a fixed-point oracle, and the group law of the family.

`helpers.reparametrize_reference` repeats full rounds until one returns its
own input.  reparametrize stops earlier, as soon as the lowest weight k that
a round changed satisfies k + gamma - 2 > max_w; both must give the same F'
at every weight cap.  The maps z -> z/(1+qw), w -> w/(1+qw) form a
one-parameter group, so q1 followed by q2 must equal q1 + q2 exactly.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crmoser.autgroup import _geometric, reparametrize
from crmoser.census import random_normal_form_surface
from crmoser.forms import standard_form, w_poly
from crmoser.gaussrat import GaussianRational
from crmoser.models import model_corollary2, model_theorem1, model_theorem2, model_umbilic
from crmoser.normal_form import Hypersurface
from crmoser.poly import Poly, Powers

from helpers import mono_weight, reparametrize_reference, widened

QS = (Fraction(1, 2), Fraction(-1), Fraction(2), Fraction(-3))
CAP = 10

FORMS = [standard_form(n, m, kind) for n, m, kind in (
    (2, 0, "diagonal"), (2, 1, "antidiagonal"), (3, 0, "diagonal"),
    (3, 1, "antidiagonal"))]


def recapped(surface):
    return Hypersurface(surface.form, surface.F, CAP)


MODELS = {
    "umbilic-2": model_umbilic(2, 0, "diagonal", {(4, 0): 1}),
    "umbilic-3": model_umbilic(3, 1, "antidiagonal", {(4, 0): -1, (4, 1): 2}),
    "theorem1-2": model_theorem1(2, {(4, 0, 0): 1}),
    "theorem1-3": model_theorem1(3, {(1, 3, 0): 1}),
    "theorem2-2": model_theorem2(2, 1, Fraction(0), {(1, 2, 0): 1, (0, 2, 1): Fraction(-1, 2)}),
    "theorem2-3": model_theorem2(3, 1, Fraction(-1, 2), {(0, 2, 0): -1}),
    "corollary2-2": model_corollary2(2, 1, 1),
    "corollary2-3": model_corollary2(3, 1, -1),
}


def unbalanced(form, zexp, zbexp, coeff):
    """F = c z^a conj(z)^b + conj, with |a| != |b|: its lowest weight piece is
    not killed by the reality of F' the way a bidegree-(p,p) piece is, so the
    right side of a round moves already at weight k + gamma."""
    mono = Poly.monomial(form.n, zexp, zbexp, 0, coeff)
    return Hypersurface(form, mono + mono.conjugate(), 12)


UNBALANCED = {
    "2-3": unbalanced(FORMS[0], (2, 0), (1, 2), GaussianRational(1, 1)),
    "3-2": unbalanced(FORMS[3], (1, 0, 2), (0, 0, 2), GaussianRational(-2)),
}


def with_conjugates(form, max_weight, terms):
    """F = sum of c z^a conj(z)^b u^k + conj over the terms (a, b, k, c)."""
    f = Poly.zero(form.n)
    for zexp, zbexp, k, coeff in terms:
        mono = Poly.monomial(form.n, zexp, zbexp, k, coeff)
        f = f + mono + mono.conjugate()
    return Hypersurface(form, f, max_weight)


ROOM_EDGES = {  # parts at the edge of the weight room max_w - (a + b) of a part of bidegree (a, b)
    # a part of bidegree (3, 5) at weight 8: room 0 at the top cap
    "room-0": with_conjugates(FORMS[0], 8, [((2, 0), (2, 0), 0, 1),
                                            ((2, 1), (1, 4), 0, GaussianRational(1, 1))]),
    # a part of bidegree (3, 4) at weight 7: room 1 at the top cap
    "room-1": with_conjugates(FORMS[1], 8, [((1, 1), (1, 1), 0, 1),
                                            ((2, 1), (0, 4), 0, 2)]),
    # n = 3, parts of bidegree (2, 3) times u
    "n3-unbalanced-u": with_conjugates(FORMS[3], 8, [
        ((1, 0, 1), (0, 2, 0), 0, 1), ((2, 0, 0), (1, 0, 2), 1, GaussianRational(-1, 2)),
        ((0, 1, 1), (1, 1, 1), 1, Fraction(1, 2))]),
    # one bidegree (2, 2) at k = 0, 1, 2, sharing one s^2 conj(s)^2
    "shared-bidegree": with_conjugates(FORMS[0], 8, [
        ((2, 0), (1, 1), 0, 1), ((2, 0), (1, 1), 1, GaussianRational(0, 1)),
        ((1, 1), (1, 1), 2, -1)]),
}


def census_surfaces(count, seed):
    rng = random.Random(seed)
    return [random_normal_form_surface(rng, FORMS[i % len(FORMS)], CAP) for i in range(count)]


def assert_matches_reference(surface):
    for max_w in range(surface.F.min_weight(), surface.max_weight + 1):
        for q in QS:
            got = reparametrize(surface, q, max_w)
            assert got.F == reparametrize_reference(surface, q, max_w).F, (q, max_w)
            assert got.max_weight == max_w


@pytest.mark.parametrize("name", sorted(MODELS))
def test_reparametrize_matches_the_fixed_point_oracle_on_models(name):
    assert_matches_reference(recapped(MODELS[name]))


@pytest.mark.parametrize("name", sorted(UNBALANCED))
def test_reparametrize_matches_the_fixed_point_oracle_on_unbalanced_surfaces(name):
    assert_matches_reference(UNBALANCED[name])


@pytest.mark.parametrize("name", sorted(ROOM_EDGES))
def test_reparametrize_matches_the_fixed_point_oracle_at_the_weight_room_edges(name):
    assert_matches_reference(ROOM_EDGES[name])


def test_reparametrize_matches_the_fixed_point_oracle_on_census_surfaces():
    for surface in census_surfaces(12, 20240604):
        assert_matches_reference(surface)


@settings(derandomize=True, deadline=None, max_examples=48)
@given(st.integers(0, 2**32), st.sampled_from(QS), st.sampled_from(QS + (Fraction(1, 3),)))
def test_reparametrize_is_a_group_action(seed, q1, q2):
    rng = random.Random(seed)
    surface = random_normal_form_surface(rng, rng.choice(FORMS), 8)
    w = surface.max_weight
    twice = reparametrize(reparametrize(surface, q1, w), q2, w)
    assert twice.F == reparametrize(surface, q1 + q2, w).F


@st.composite
def series_ratios(draw):
    """A polynomial of positive minimal weight: up to three terms of weight 1 to 4."""
    n = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 1)] * n)
    monos = st.tuples(exps, exps, st.integers(0, 1)).filter(lambda mono: mono_weight(mono) > 0)
    parts = st.sampled_from(QS)
    coeffs = st.builds(GaussianRational, parts, parts)
    return Poly(n, draw(st.dictionaries(monos, coeffs, min_size=1, max_size=3)))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(series_ratios(), st.integers(4, 12))
def test_geometric_series_does_not_depend_on_the_field_width(t, cap):
    series = _geometric(t, cap)
    wide = _geometric(widened(t), cap)
    assert series == wide and hash(series) == hash(wide)
    assert (1 - t).mul(series, cap) == 1  # (1 - t) sum_k t^k = 1 below the cap


@settings(derandomize=True, deadline=None, max_examples=30)
@given(series_ratios(), st.sampled_from(QS), st.integers(2, 4), st.integers(2, 4),
       st.integers(4, 10))
def test_the_prefactor_divides_into_the_powers_of_s(half, q, a, b, cap):
    """|1 - q w|^2 s^a conj(s)^b = s^(a-1) conj(s)^(b-1) through the cap,
    for s = 1/(1 - q w) and w = u + i v, v real: the identity reparametrize sums."""
    w = w_poly(half + half.conjugate())
    chain = Powers(_geometric(w.scale(q), cap), cap)
    d = 1 - w.scale(q)
    assert d.mul(d.conjugate(), cap).mul(chain.mixed(a, b), cap) == chain.mixed(a - 1, b - 1)
