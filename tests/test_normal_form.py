import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from crmoser.forms import standard_form
from crmoser.gaussrat import GaussianRational
from crmoser.normal_form import (
    Hypersurface,
    NormalFormError,
    check_normal_form,
    is_function_of_form_and_u,
    is_umbilic_origin,
    trace_op,
)
from crmoser.poly import Poly
from crmoser.surface_io import (
    SurfaceParseError,
    parse_surface,
    parse_surface_text,
    surface_from_json,
)

from helpers import poly_to_sympy, random_real_poly, sympy_trace_oracle, widened


def surface(form, f_poly, max_w=None):
    if max_w is None:
        max_w = f_poly.max_weight() or 4
    return Hypersurface(form, f_poly, max_w)


# -- trace operator -------------------------------------------------------------


def test_trace_product_rule_example():
    form = standard_form(2, 0, "diagonal")
    p = Poly.monomial(2, (1, 1), (1, 1), 0)  # z1 zb1 z2 zb2
    got = trace_op(form, p)
    expect = Poly.monomial(2, (1, 0), (1, 0), 0) + Poly.monomial(2, (0, 1), (0, 1), 0)
    assert got == expect
    assert poly_to_sympy(got) == sympy_trace_oracle(form, p)


def test_trace_inner_square_frozen():
    # derived by the sympy differentiation oracle: tr <z,z>^2 = 2(n+1) <z,z>
    for n in (2, 3):
        form = standard_form(n, 0, "diagonal")
        q = form.inner_poly()
        got = trace_op(form, q * q)
        assert poly_to_sympy(got) == sympy_trace_oracle(form, q * q)
        assert got == q.scale(2 * (n + 1))


def test_trace_antidiagonal_kills_zn_power():
    form = standard_form(2, 1, "antidiagonal")
    p = Poly.monomial(2, (0, 2), (0, 2), 0)
    assert trace_op(form, p).is_zero()
    assert sympy_trace_oracle(form, p) == 0


def test_trace_commutes_with_u_and_is_real_linear():
    rng = random.Random(41)
    form = standard_form(2, 1, "antidiagonal")
    for _ in range(10):
        p = random_real_poly(rng, 2, pairs=2)
        u_p = Poly.u(2) * p
        assert trace_op(form, u_p) == Poly.u(2) * trace_op(form, p)
        q = random_real_poly(rng, 2, pairs=2)
        assert trace_op(form, p + q) == trace_op(form, p) + trace_op(form, q)


def test_trace_maps_kk_real_to_real_and_drops_bidegree():
    rng = random.Random(43)
    form = standard_form(3, 1, "antidiagonal")
    for _ in range(10):
        p = random_real_poly(rng, 3, pairs=2, max_bidegree=3)
        comp = p.bidegree_component(2, 2) + p.bidegree_component(3, 3)
        traced = trace_op(form, comp)
        assert traced.is_real()
        for k, l in traced.bidegrees():
            assert (k, l) in ((1, 1), (2, 2))


def test_trace_power_identity_diagonal():
    # tr(C u^r <z,z>^k) = C k(n+k-1) u^r <z,z>^{k-1}
    for n in (2, 3):
        form = standard_form(n, 0, "diagonal")
        q = form.inner_poly()
        for k in (1, 2, 3, 4):
            for r in (0, 2):
                p = (q**k * Poly.u(n).pow(r)).scale(Fraction(3, 2))
                expect = (q**(k - 1) * Poly.u(n).pow(r)).scale(
                    Fraction(3, 2) * k * (n + k - 1))
                assert trace_op(form, p) == expect


def test_trace_condition_forces_zero_inner_square_coefficient():
    # for F = C(u) <z,z>^2, tr F_22 = 2(n+1) C(u) <z,z>, so the first trace
    # condition holds only for C = 0
    form = standard_form(2, 0, "diagonal")
    q = form.inner_poly()
    for c_of_u in (Poly.constant(2, Fraction(3)),
                   Poly.u(2).scale(Fraction(-1, 2)) + Poly.constant(2, 1)):
        f_poly = c_of_u * q * q
        residual = trace_op(form, f_poly.bidegree_component(2, 2))
        assert residual == (c_of_u * q).scale(6)
        assert residual.is_zero() == c_of_u.is_zero()


def test_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_op(standard_form(2, 0, "diagonal"), Poly.zero(3))


# -- hypersurface invariants -----------------------------------------------------


def test_hypersurface_rejects_harmonic_terms():
    form = standard_form(2, 0, "diagonal")
    bad = Poly.monomial(2, (1, 0), (1, 0), 0)
    with pytest.raises(NormalFormError):
        surface(form, bad)


def test_hypersurface_names_the_first_harmonic_bidegree_in_key_order():
    # harmonic (2,0), (0,2), (3,1) and (1,3) parts: z1^2 has the least key,
    # though (0,2) is the least bidegree
    form = standard_form(2, 0, "diagonal")
    text = "z1^2 + ~z1^2 + z2^3 ~z1 + z1 ~z2^3 + z1^2 ~z1^2"
    message = "harmonic term (degree (2,0)) not allowed in a normal-form F"
    with pytest.raises(NormalFormError) as raised:
        surface(form, parse_surface_text(text, form))
    assert str(raised.value) == message
    with pytest.raises(SurfaceParseError) as raised:
        parse_surface(text, form)
    assert str(raised.value) == message


def test_hypersurface_rejects_broken_reality():
    form = standard_form(2, 0, "diagonal")
    bad = Poly.monomial(2, (2, 0), (0, 2), 0)  # z1^2 zb2^2 without partner
    with pytest.raises(NormalFormError):
        surface(form, bad)


def test_hypersurface_rejects_overweight():
    form = standard_form(2, 0, "diagonal")
    q4 = form.inner_poly() ** 4
    with pytest.raises(NormalFormError):
        Hypersurface(form, q4, 6)


def validation_error(form, f_poly, max_w):
    try:
        Hypersurface(form, f_poly, max_w)
    except NormalFormError as exc:
        return str(exc)
    return None


exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
mixed_terms = st.lists(st.tuples(st.tuples(exponents, exponents, st.integers(0, 1)),
                                 st.integers(-3, 3), st.integers(-3, 3), st.booleans()),
                       max_size=5)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(mixed_terms, st.integers(2, 10))
def test_validation_errors_do_not_depend_on_the_stored_form(terms, max_w):
    # each term comes with its conjugate partner unless its flag says no,
    # so the draws pass, break reality, hold harmonic terms or exceed max_w
    form = standard_form(2, 0, "diagonal")
    coeffs = {}
    for (z, zb, u), re, im, paired in terms:
        c = GaussianRational(re, im)
        coeffs[(z, zb, u)] = coeffs.get((z, zb, u), 0) + c
        if paired:
            coeffs[(zb, z, u)] = coeffs.get((zb, z, u), 0) + c.conjugate()
    narrow, wide = Poly(2, coeffs), widened(Poly(2, coeffs))
    assert validation_error(form, narrow, max_w) == validation_error(form, wide, max_w)


def test_validation_names_the_first_violation_in_weight_order():
    # both monomials violate; the witness is the first in key order, not in
    # document order, whichever way the polynomial is written
    form = standard_form(2, 0, "diagonal")
    text = "z1^2 ~z1^3 + 2 z1^3 ~z1^2"
    doc = {"n": 2, "m": 0, "kind": "diagonal", "terms": [
        {"z": [2, 0], "zbar": [3, 0], "re": "1"}, {"z": [3, 0], "zbar": [2, 0], "re": "2"}]}
    expected = "coefficient symmetry broken at monomial ((3, 0), (2, 0), 0)"
    with pytest.raises(SurfaceParseError) as from_text:
        parse_surface(text, form)
    with pytest.raises(SurfaceParseError) as from_terms:
        surface_from_json(doc)
    assert str(from_text.value) == str(from_terms.value) == expected


# -- check_normal_form ------------------------------------------------------------


def test_check_corollary2_model_passes():
    form = standard_form(2, 1, "antidiagonal")
    m = surface(form, Poly.monomial(2, (0, 2), (0, 2), 0))
    assert check_normal_form(m).passed


def test_check_inner_square_fails_with_frozen_residual():
    for n in (2, 3):
        form = standard_form(n, 0, "diagonal")
        q = form.inner_poly()
        report = check_normal_form(surface(form, q * q))
        assert not report.passed
        assert [name for name, _ in report.violations] == ["trF22"]
        assert report.violations[0][1] == q.scale(2 * (n + 1))


def test_check_inner_fourth_power_passes():
    form = standard_form(2, 0, "diagonal")
    m = surface(form, form.inner_poly() ** 4)
    report = check_normal_form(m)
    assert report.passed and report.violations == ()


def test_report_passed_iff_no_violations():
    form = standard_form(2, 0, "diagonal")
    good = check_normal_form(surface(form, form.inner_poly() ** 4))
    bad = check_normal_form(surface(form, form.inner_poly() ** 2))
    assert good.passed == (not good.violations)
    assert bad.passed == (not bad.violations)
    doc = bad.to_json()
    assert doc["passed"] is False and doc["violations"][0]["condition"] == "trF22"


# -- umbilicity ---------------------------------------------------------------------


def test_umbilic_examples():
    diag = standard_form(2, 0, "diagonal")
    assert is_umbilic_origin(surface(diag, diag.inner_poly() ** 4))
    anti = standard_form(2, 1, "antidiagonal")
    zn4 = Poly.monomial(2, (0, 2), (0, 2), 0)
    assert not is_umbilic_origin(surface(anti, zn4))
    assert is_umbilic_origin(surface(anti, Poly.u(2) * zn4))


def test_umbilic_requires_normal_form():
    diag = standard_form(2, 0, "diagonal")
    with pytest.raises(NormalFormError):
        is_umbilic_origin(surface(diag, diag.inner_poly() ** 2))


# -- membership in the <z,z>, u family ------------------------------------------------


def test_function_of_form_examples():
    diag = standard_form(2, 0, "diagonal")
    q = diag.inner_poly()
    f = q**4 + (Poly.u(2).pow(2) * q**5)
    assert is_function_of_form_and_u(surface(diag, f))
    anti = standard_form(2, 1, "antidiagonal")
    zn4 = Poly.monomial(2, (0, 2), (0, 2), 0)
    assert not is_function_of_form_and_u(surface(anti, zn4))
    assert is_function_of_form_and_u(surface(anti, Poly.zero(2)))


def test_function_of_form_detects_scaled_powers():
    anti = standard_form(3, 1, "antidiagonal")
    q = anti.inner_poly()
    f = q.pow(4).scale(Fraction(-2, 3)) + (Poly.u(3) * q**5).scale(Fraction(1, 7))
    assert is_function_of_form_and_u(surface(anti, f))
    # perturb a self-conjugate coefficient: no longer a multiple of <z,z>^4
    mono = ((0, 4, 0), (0, 4, 0), 0)  # (z2 zb2)^4, present in <z,z>^4
    assert mono in q.pow(4).terms
    perturbed = f + Poly(3, {mono: Fraction(1, 11)})
    assert not is_function_of_form_and_u(surface(anti, perturbed))
