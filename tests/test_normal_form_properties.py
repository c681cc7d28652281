"""trace_op and is_function_of_form_and_u against the Poly chains they replaced.

`helpers.trace_op_reference` sums one scaled second derivative per nonzero
entry of H^{-1}, and `helpers.is_function_of_form_and_u_reference` divides
each u-power slice by <z,z>^k with Poly arithmetic.  The packed kernels
must agree with them on real polynomials of mixed bidegree, over the
standard forms and over explicit forms whose inverses have complex and
rational entries.  The function test also gets positives
sum c <z,z>^k u^j, some moved by a pseudounitary map, and negatives that
differ from one by one monomial or by one coefficient of a slice.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crmoser.forms import standard_form
from crmoser.normal_form import Hypersurface, is_function_of_form_and_u, trace_op
from crmoser.poly import Poly

from helpers import (
    cayley_pseudounitary,
    hermitian_forms,
    is_function_of_form_and_u_reference,
    random_fraction,
    random_gauss,
    random_real_poly,
    trace_op_reference,
    widened,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

FORMS = [standard_form(n, m, kind) for n, m, kind in (
    (2, 0, "diagonal"), (2, 1, "antidiagonal"), (3, 0, "diagonal"),
    (3, 1, "antidiagonal"), (4, 2, "antidiagonal"))]

forms = st.one_of(st.sampled_from(FORMS), st.integers(2, 3).flatmap(hermitian_forms))
seeds = st.integers(0, 2**32)


@SETTINGS
@given(forms, seeds)
def test_trace_op_matches_the_reference(form, seed):
    rng = random.Random(seed)
    p = random_real_poly(rng, form.n, pairs=rng.randint(1, 4), max_bidegree=4, max_u=2)
    for q in (p, widened(p), p.scale(random_gauss(rng))):
        traced = trace_op(form, q)
        assert traced == trace_op_reference(form, q)
        assert trace_op(form, traced) == trace_op_reference(form, traced)


def monomial_pair(rng, n):
    """m + conj(m) for a random monomial m of bidegree at least (2,2)."""
    exps = []
    for _ in range(2):
        e = [0] * n
        for _ in range(rng.randint(2, 4)):
            e[rng.randrange(n)] += 1
        exps.append(e)
    z, zb = exps
    coeff = random_fraction(rng) if z == zb else random_gauss(rng)
    mono = Poly.monomial(n, z, zb, rng.randint(0, 2), coeff)
    return mono + mono.conjugate()


def form_and_u_poly(rng, form):
    """sum c <z,z>^k u^j over one to three (k, j), c real."""
    u = Poly.u(form.n)
    f_poly = Poly.zero(form.n)
    for _ in range(rng.randint(1, 3)):
        f_poly = f_poly + (form.inner_power(rng.randint(2, 3)) * u.pow(rng.randint(0, 2))
                           ).scale(random_fraction(rng))
    return f_poly


def one_coefficient_changed(rng, f_poly):
    """f_poly with the coefficient of one monomial m (and of conj(m)) changed."""
    (z, zb, r), _c = rng.choice(sorted(f_poly.terms.items()))
    if z == zb:  # a real coefficient of a self-conjugate monomial
        return f_poly + Poly.monomial(f_poly.n, z, zb, r, random_fraction(rng))
    mono = Poly.monomial(f_poly.n, z, zb, r, random_gauss(rng))
    return f_poly + mono + mono.conjugate()


@SETTINGS
@given(forms, seeds, st.sampled_from(["sum", "moved", "extra", "changed", "random"]),
       st.booleans())
def test_function_test_matches_the_reference(form, seed, kind, wide):
    rng = random.Random(seed)
    n = form.n
    if kind == "random":
        f_poly = Poly.zero(n)
        for _ in range(rng.randint(1, 3)):
            f_poly = f_poly + monomial_pair(rng, n)
    else:
        f_poly = form_and_u_poly(rng, form)
        assume(not f_poly.is_zero())
        if kind == "moved":
            f_poly = f_poly.substitute_linear(cayley_pseudounitary(rng, form), 1)
        elif kind == "extra":
            f_poly = f_poly + monomial_pair(rng, n)
        elif kind == "changed":
            f_poly = one_coefficient_changed(rng, f_poly)
    if wide:  # the keys of F and of <z,z>^k at different field widths
        f_poly = widened(f_poly)
    surface = Hypersurface(form, f_poly, f_poly.max_weight() or 4)
    expected = is_function_of_form_and_u_reference(surface)
    assert is_function_of_form_and_u(surface) == expected
    if kind in ("sum", "moved"):
        assert expected
    elif kind in ("extra", "changed"):
        # every slice of <z,z>^k has at least three monomials, so a change
        # to one conjugate pair of them leaves no real multiple
        assert not expected
