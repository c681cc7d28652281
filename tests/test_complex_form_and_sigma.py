"""Coverage for genuinely complex Hermitian matrices and the sigma = -1
component: every other test runs over real form matrices, where a
transposed index convention would be invisible."""

import random
from fractions import Fraction

from crmoser.autgroup import (
    AutoParams,
    extract_params,
    is_linear_automorphism,
    quadric_automorphism,
    stabilizer_algebra,
    verify_automorphism,
)
from crmoser.forms import (
    HermitianForm,
    is_pseudounitary,
    standard_form,
    u_basis,
)
from crmoser.gaussrat import GaussianRational
from crmoser.linalg import Matrix
from crmoser.normal_form import Hypersurface, trace_op
from crmoser.poly import Poly

from helpers import (
    is_in_lie_algebra,
    poly_to_sympy,
    random_real_poly,
    sympy_real_rank,
    sympy_trace_oracle,
)

I = GaussianRational(0, 1)


def complex_form():
    # [[0, i], [-i, 0]]: Hermitian, signature (1, 1)
    return HermitianForm(2, 1, Matrix([[0, I], [-I, 0]]))


def test_complex_form_inner_poly_is_real():
    inner = complex_form().inner_poly()
    assert inner.is_real()
    assert inner == (Poly.monomial(2, (1, 0), (0, 1), 0, I)
                     + Poly.monomial(2, (0, 1), (1, 0), 0, -I))


def test_complex_form_u_basis():
    form = complex_form()
    basis = u_basis(form)
    assert len(basis) == 4
    assert all(is_in_lie_algebra(x, form) for x in basis)
    assert sympy_real_rank(basis) == 4


def test_complex_form_trace_matches_oracle_and_stays_real():
    rng = random.Random(7)
    form = complex_form()
    for _ in range(10):
        p = random_real_poly(rng, 2, pairs=2)
        comp = p.bidegree_component(2, 2)
        traced = trace_op(form, comp)
        assert poly_to_sympy(traced) == sympy_trace_oracle(form, comp)
        assert traced.is_real()


def test_complex_form_full_dimension_model():
    form = complex_form()
    surface = Hypersurface(form, form.inner_poly() ** 4, 8)
    assert stabilizer_algebra(surface).dim == 4


def test_sigma_minus_one_linear_automorphism():
    # diag(1,-1) form; the swap reverses the form sign, so it maps
    # Im w = <z,z> + F to itself when paired with w -> -w and even F in the
    # right sense: F(swap z, conj swap z, -u) = -F must hold
    form = standard_form(2, 1, "diagonal")
    swap = Matrix([[0, 1], [1, 0]])
    assert is_pseudounitary(swap, form) == -1
    # F = |z1|^2 |z2|^2 (<z,z>-even): u-odd partner needed for sigma = -1,
    # so take F = u |z1|^2 |z2|^2 times... check the exact condition instead
    f_even = Poly.monomial(2, (1, 1), (1, 1), 1)  # u |z1|^2 |z2|^2, weight 6
    m = Hypersurface(form, f_even, 8)
    # F(swap z, ., -u) = -u |z2|^2 |z1|^2 = -F: invariant with sigma = -1
    assert is_linear_automorphism(m, swap, Fraction(1), -1)
    f_odd = Poly.monomial(2, (1, 1), (1, 1), 0)
    m_bad = Hypersurface(form, f_odd, 8)
    assert not is_linear_automorphism(m_bad, swap, Fraction(1), -1)


def test_sigma_minus_one_quadric_jet_round_trip_and_verify():
    form = standard_form(2, 1, "diagonal")
    swap = Matrix([[0, 1], [1, 0]])
    params = AutoParams(U=swap,
                        a=(GaussianRational(Fraction(1, 2)), GaussianRational(0, 1)),
                        lam=Fraction(2), sigma=-1, r=Fraction(-1, 3))
    jet = quadric_automorphism(params, form, 8)
    assert extract_params(jet, form) == params
    spherical = Hypersurface(form, Poly.zero(2), 10)
    assert verify_automorphism(spherical, jet, 7)
