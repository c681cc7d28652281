"""stabilizer_algebra against the column construction it replaced.

`helpers.stabilizer_columns_reference` builds the columns of the invariance
system by the chain of Poly sums, scalings, products and conjugates that
stabilizer_algebra ran before it collected each column in one ProductSum,
and `helpers.coefficient_rows` reads them into rows through `coeff`.  The
kernel of those rows must be the kernel the solve keeps.  The surfaces are
census draws over the standard forms, F with u-terms, F over explicit forms
with complex off-diagonal entries, whose u(H) bases have complex entries,
and F whose top weight fills its packed fields, where the products
z_k dF/dz_j are key shifts that reach that top.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crmoser.autgroup import stabilizer_algebra
from crmoser.census import random_normal_form_surface
from crmoser.forms import standard_form
from crmoser.linalg import rational_nullspace
from crmoser.normal_form import Hypersurface
from crmoser.poly import Poly

from helpers import (
    cayley_pseudounitary,
    coefficient_rows,
    hermitian_forms,
    random_fraction,
    random_gauss,
    stabilizer_columns_reference,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)

FORMS = [standard_form(n, m, kind) for n, m, kind in (
    (2, 0, "diagonal"), (2, 1, "antidiagonal"), (3, 0, "diagonal"),
    (3, 1, "antidiagonal"))]

seeds = st.integers(0, 2**32)


def assert_matches_reference(surface):
    columns = stabilizer_columns_reference(surface)
    expected = rational_nullspace(coefficient_rows(columns), len(columns))
    assert stabilizer_algebra(surface)._kernel == expected


def random_f(rng, form, min_u):
    """A real, harmonic-free F: one to three conjugate pairs of monomials of
    bidegree at least (2,2), the first with a u-power of at least min_u."""
    n = form.n
    f_poly = Poly.zero(n)
    for i in range(rng.randint(1, 3)):
        exps = []
        for _ in range(2):
            e = [0] * n
            for _ in range(rng.randint(2, 4)):
                e[rng.randrange(n)] += 1
            exps.append(e)
        z, zb = exps
        coeff = random_fraction(rng) if z == zb else random_gauss(rng)
        mono = Poly.monomial(n, z, zb, rng.randint(min_u if i == 0 else 0, 2), coeff)
        f_poly = f_poly + mono + mono.conjugate()
    return f_poly


def invariant_f(rng, form, min_u):
    """F with a large stabilizer: c <z,z>^k u^r, perhaps plus d |z_1|^4 and
    random pairs, moved by a random pseudounitary map, so that its
    stabilizer is spanned by complex combinations of the u(H) basis."""
    n = form.n
    f_poly = (form.inner_power(rng.choice((2, 3))) * Poly.u(n).pow(rng.randint(min_u, 2))
              ).scale(random_fraction(rng))
    if rng.random() < 0.5:
        e1 = [2] + [0] * (n - 1)
        f_poly = f_poly + Poly.monomial(n, e1, e1, 0, random_fraction(rng))
    if rng.random() < 0.3:
        f_poly = f_poly + random_f(rng, form, 0)
    return f_poly.substitute_linear(cayley_pseudounitary(rng, form), 1)


def surface(form, f_poly):
    assume(not f_poly.is_zero())
    return Hypersurface(form, f_poly, f_poly.max_weight())


@SETTINGS
@given(seeds, st.sampled_from(FORMS))
def test_kernel_matches_the_reference_columns_on_census_surfaces(seed, form):
    assert_matches_reference(random_normal_form_surface(random.Random(seed), form, 10))


@SETTINGS
@given(seeds, st.sampled_from(FORMS), st.booleans())
def test_kernel_matches_the_reference_columns_with_u_terms(seed, form, invariant):
    make = invariant_f if invariant else random_f
    assert_matches_reference(surface(form, make(random.Random(seed), form, 1)))


@SETTINGS
@given(st.data(), st.booleans())
def test_kernel_matches_the_reference_columns_over_explicit_forms(data, invariant):
    form = data.draw(hermitian_forms(data.draw(st.integers(2, 3))))
    rng = random.Random(data.draw(seeds))
    make = invariant_f if invariant else random_f
    assert_matches_reference(surface(form, make(rng, form, 0)))


@pytest.mark.parametrize("top", [7, 15])
@pytest.mark.parametrize("form", FORMS, ids=lambda f: f"{f.kind}-{f.n}-{f.m}")
def test_kernel_matches_the_reference_columns_at_the_top_of_a_field(form, top):
    # F's top weight is 2^bits - 1 for its field width bits, and the degree
    # of its first term lies on z_1 and conj(z_1) alone: the key shifts
    # z_k dF/dz_j reach the top weight without widening F's fields
    n = form.n
    rng = random.Random(top)
    f_poly = Poly.zero(n)
    for z, zb, r in (((top - 2, 0), (2, 0), 0), ((top - 4, 0), (2, 0), 1),
                     ((top - 3, 1), (1, 1), 0)):
        pad = [0] * (n - 2)
        mono = Poly.monomial(n, [*z, *pad], [*zb, *pad], r, random_gauss(rng))
        f_poly = f_poly + mono + mono.conjugate()
    assert f_poly.max_weight() == top and f_poly._packed[0] == top.bit_length()
    assert_matches_reference(Hypersurface(form, f_poly, top))
