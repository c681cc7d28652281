import json
import pathlib
import random
from fractions import Fraction

import pytest
import sympy

from crmoser.autgroup import (
    AutoParams,
    ExtractionError,
    InfSym,
    TruncationError,
    T_operator,
    extract_params,
    is_linear_automorphism,
    moser_weight_identity,
    quadric_automorphism,
    reparametrize,
    stabilizer_algebra,
    verify_automorphism,
)
from crmoser.census import random_normal_form_surface
from crmoser.forms import HermitianForm, standard_form, u_basis
from crmoser.gaussrat import GaussianRational
from crmoser.jets import HoloPoly, JetMap
from crmoser.linalg import Matrix
from crmoser.models import model_umbilic
from crmoser.normal_form import Hypersurface
from crmoser.poly import Poly
from crmoser.surface_io import surface_from_json

from helpers import (
    cayley_pseudounitary,
    eager_stabilizer_basis,
    is_in_lie_algebra,
    poly_to_sympy,
    random_fraction,
    random_gauss,
    random_real_poly,
    stabilizer_residual,
    sym_vars,
)

I = GaussianRational(0, 1)
SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


def surface(form, f_poly, max_w=None):
    if max_w is None:
        max_w = f_poly.max_weight() or 4
    return Hypersurface(form, f_poly, max_w)


def linear_jet(u_mat, lam, sigma, D):
    n = u_mat.nrows
    f = []
    for i in range(n):
        fi = HoloPoly.zero(n)
        for j in range(n):
            c = u_mat[i, j] * GaussianRational(lam)
            if not c.is_zero():
                fi = fi + HoloPoly.z(n, j).scale(c)
        f.append(fi)
    g = HoloPoly.w(n).scale(GaussianRational(sigma * lam * lam))
    return JetMap(tuple(f), g, D)


# -- extract_params -----------------------------------------------------------------


def test_extract_pure_dilation():
    n = 2
    form = standard_form(n, 0, "diagonal")
    jet = linear_jet(Matrix.identity(2).scale(1), Fraction(2), 1, 4)
    params = extract_params(jet, form)
    assert params.U == Matrix.identity(2)
    assert params.a == (GaussianRational(0), GaussianRational(0))
    assert params.lam == 2 and params.sigma == 1 and params.r == 0


def test_extract_quadric_round_trip():
    form = standard_form(2, 0, "diagonal")
    original = AutoParams(U=Matrix.identity(2), a=(GaussianRational(0),) * 2,
                          lam=Fraction(1), sigma=1, r=Fraction(1))
    jet = quadric_automorphism(original, form, 6)
    back = extract_params(jet, form)
    assert back == original


def test_extract_round_trip_general_params():
    rng = random.Random(61)
    for form in (standard_form(2, 0, "diagonal"),
                 standard_form(2, 1, "antidiagonal"),
                 standard_form(3, 1, "antidiagonal")):
        for _ in range(5):
            u_mat = cayley_pseudounitary(rng, form)
            params = AutoParams(
                U=u_mat,
                a=tuple(random_gauss(rng, allow_zero=True) for _ in range(form.n)),
                lam=rng.choice([Fraction(1), Fraction(2), Fraction(1, 3)]),
                sigma=1,
                r=random_fraction(rng),
            )
            jet = quadric_automorphism(params, form, 5)
            assert extract_params(jet, form) == params


def test_extract_sigma_minus_one_inconsistent_jet():
    form = standard_form(2, 1, "diagonal")
    jet = linear_jet(Matrix.identity(2), Fraction(1), -1, 4)
    with pytest.raises(ExtractionError, match="U not pseudounitary"):
        extract_params(jet, form)


def test_extract_sigma_minus_one_consistent_jet():
    form = standard_form(2, 1, "diagonal")
    swap = Matrix([[0, 1], [1, 0]])
    jet = linear_jet(swap, Fraction(1), -1, 4)
    params = extract_params(jet, form)
    assert params.sigma == -1 and params.U == swap


def test_extract_irrational_scale():
    form = standard_form(2, 0, "diagonal")
    jet = linear_jet(Matrix.identity(2), Fraction(1), 1, 4)
    jet = JetMap(jet.f, HoloPoly.w(2).scale(GaussianRational(2)), 4)
    with pytest.raises(ExtractionError, match="irrational scale"):
        extract_params(jet, form)


def test_extract_bad_gw():
    form = standard_form(2, 0, "diagonal")
    base = JetMap.identity(2, 4)
    complex_g = JetMap(base.f, HoloPoly.w(2).scale(I), 4)
    with pytest.raises(ExtractionError):
        extract_params(complex_g, form)
    no_w = JetMap(base.f, HoloPoly(2, {((1, 1), 0): GaussianRational(1)}), 4)
    with pytest.raises(ExtractionError):
        extract_params(no_w, form)


# -- quadric_automorphism --------------------------------------------------------------


def test_quadric_identity_params():
    form = standard_form(2, 0, "diagonal")
    params = AutoParams(U=Matrix.identity(2), a=(GaussianRational(0),) * 2,
                        lam=Fraction(1), sigma=1, r=Fraction(0))
    jet = quadric_automorphism(params, form, 6)
    ident = JetMap.identity(2, 6)
    assert jet.f == ident.f and jet.g == ident.g


def test_quadric_r_gives_fractional_reparametrization():
    # with a = 0 the map is z/(1-rw), w/(1-rw); r = -q matches z/(1+qw)
    form = standard_form(2, 0, "diagonal")
    q = Fraction(2, 3)
    params = AutoParams(U=Matrix.identity(2), a=(GaussianRational(0),) * 2,
                        lam=Fraction(1), sigma=1, r=-q)
    jet = quadric_automorphism(params, form, 8)
    n = 2
    w = HoloPoly.w(n)
    series = HoloPoly.constant(n, 1)
    power = HoloPoly.constant(n, 1)
    for _ in range(4):
        power = power.mul(w.scale(GaussianRational(-q)), 8)
        series = series + power
    for i in range(n):
        assert jet.f[i] == HoloPoly.z(n, i).mul(series, 8)
    assert jet.g == w.mul(series, 8)


def test_quadric_preserves_sphere_with_translation_parameter():
    form = standard_form(2, 0, "diagonal")
    params = AutoParams(U=Matrix.identity(2),
                        a=(GaussianRational(1), GaussianRational(0)),
                        lam=Fraction(1), sigma=1, r=Fraction(0))
    jet = quadric_automorphism(params, form, 4)
    spherical = surface(form, Poly.zero(2), 10)
    assert verify_automorphism(spherical, jet, 3)


def test_quadric_random_params_preserve_quadric():
    rng = random.Random(67)
    for form in (standard_form(2, 0, "diagonal"),
                 standard_form(2, 1, "antidiagonal")):
        spherical = surface(form, Poly.zero(form.n), 10)
        for _ in range(3):
            params = AutoParams(
                U=cayley_pseudounitary(rng, form),
                a=tuple(random_gauss(rng, allow_zero=True) for _ in range(form.n)),
                lam=rng.choice([Fraction(1), Fraction(3, 2)]),
                sigma=1,
                r=random_fraction(rng),
            )
            jet = quadric_automorphism(params, form, 6)
            assert verify_automorphism(spherical, jet, 5)


# -- is_linear_automorphism -------------------------------------------------------------


def test_linear_scaled_antidiagonal_example():
    form = standard_form(2, 1, "antidiagonal")
    m = surface(form, Poly.monomial(2, (0, 2), (0, 2), 0))
    u_mat = Matrix([[2, 0], [0, Fraction(1, 2)]])
    assert is_linear_automorphism(m, u_mat, Fraction(4), 1)
    # concrete substitution: z1 -> 8 z1, z2 -> 2 z2, u -> 16 u scales F by 16
    moved = m.F.substitute_linear(u_mat.scale(4), Fraction(16))
    assert moved == m.F.scale(16)


def test_linear_unitary_block_example():
    form = standard_form(2, 0, "diagonal")
    m = surface(form, Poly.monomial(2, (4, 0), (4, 0), 0))
    assert is_linear_automorphism(m, Matrix([[I, 0], [0, 1]]), Fraction(1), 1)
    assert not is_linear_automorphism(m, Matrix([[0, 1], [1, 0]]), Fraction(1), 1)


def test_linear_precondition_failure():
    form = standard_form(2, 0, "diagonal")
    m = surface(form, form.inner_poly() ** 4)
    with pytest.raises(ValueError):
        is_linear_automorphism(m, Matrix.identity(2).scale(2), Fraction(1), 1)


# -- stabilizer_algebra ------------------------------------------------------------------


def test_stabilizer_full_dimension_cases():
    for n, m, kind in ((2, 0, "diagonal"), (3, 0, "diagonal"),
                       (2, 1, "antidiagonal"), (3, 1, "antidiagonal")):
        form = standard_form(n, m, kind)
        result = stabilizer_algebra(surface(form, form.inner_poly() ** 4))
        assert result.dim == n * n and not result.spherical


def test_stabilizer_theorem1_cases():
    for n, expect in ((2, 2), (3, 5)):
        form = standard_form(n, 0, "diagonal")
        e1 = tuple(4 if i == 0 else 0 for i in range(n))
        result = stabilizer_algebra(surface(form, Poly.monomial(n, e1, e1, 0)))
        assert result.dim == expect
        for sym in result.basis:
            assert sym.rho == 0
            for i in range(1, n):
                assert sym.X[0, i].is_zero() and sym.X[i, 0].is_zero()


def test_stabilizer_theorem2_cases():
    for n, m, expect in ((2, 1, 3), (3, 1, 6), (4, 2, 11)):
        form = standard_form(n, m, "antidiagonal")
        zn = tuple(2 if i == n - 1 else 0 for i in range(n))
        result = stabilizer_algebra(surface(form, Poly.monomial(n, zn, zn, 0)))
        assert result.dim == expect


def test_stabilizer_corollary2_basis_constraints():
    form = standard_form(2, 1, "antidiagonal")
    result = stabilizer_algebra(surface(form, Poly.monomial(2, (0, 2), (0, 2), 0)))
    assert result.dim == 3
    for sym in result.basis:
        assert sym.X[1, 0].is_zero()
        assert sym.X[0, 0].re == Fraction(sym.rho, 2)
        assert sym.X[1, 1] == -sym.X[0, 0].conjugate()
        assert sym.X[0, 1].re == 0


def test_stabilizer_spherical_flag():
    for n, m, kind in ((2, 0, "diagonal"), (3, 1, "antidiagonal")):
        form = standard_form(n, m, kind)
        result = stabilizer_algebra(surface(form, Poly.zero(n), 6))
        assert result.dim == n * n + 1 and result.spherical


def test_stabilizer_spherical_basis_is_u_h_and_the_scaling():
    form = standard_form(3, 1, "antidiagonal")
    result = stabilizer_algebra(surface(form, Poly.zero(3), 6))
    assert result.basis == (*(InfSym(x, Fraction(0)) for x in u_basis(form)),
                            InfSym(Matrix.zeros(3, 3), Fraction(1)))


def test_stabilizer_basis_is_built_once_on_read():
    form = standard_form(2, 1, "antidiagonal")
    result = stabilizer_algebra(surface(form, Poly.monomial(2, (0, 2), (0, 2), 0)))
    assert result.basis is result.basis
    assert len(result.basis) == result.dim == 3


def test_lazy_stabilizer_basis_equals_eager_recombination_on_census_surfaces():
    rng = random.Random(20240604)
    forms = [standard_form(n, m, kind) for n, m, kind in (
        (2, 0, "diagonal"), (2, 1, "antidiagonal"), (3, 0, "diagonal"),
        (3, 1, "antidiagonal"), (3, 1, "diagonal"))]
    for i in range(20):
        form = forms[i % len(forms)]
        result = stabilizer_algebra(random_normal_form_surface(rng, form, 8))
        # the kernel the result keeps, recombined by the loop it used to run eagerly
        assert result.basis == eager_stabilizer_basis(form, result._kernel)
        assert len(result.basis) == result.dim


def test_stabilizer_basis_solves_equation_and_lies_in_uH():
    rng = random.Random(71)
    for form in (standard_form(2, 0, "diagonal"),
                 standard_form(2, 1, "antidiagonal")):
        for _ in range(6):
            f_poly = random_real_poly(rng, 2, pairs=2, max_bidegree=3)
            f_poly = Poly(2, {mono: c for mono, c in f_poly.terms.items()
                              if sum(mono[0]) >= 2 and sum(mono[1]) >= 2})
            if f_poly.is_zero():
                continue
            m = surface(form, f_poly)
            result = stabilizer_algebra(m)
            for sym in result.basis:
                assert is_in_lie_algebra(sym.X, form)
                assert stabilizer_residual(m, sym.X, sym.rho).is_zero()


def test_stabilizer_dimension_conjugation_invariant():
    rng = random.Random(73)
    form = standard_form(2, 1, "antidiagonal")
    m = surface(form, Poly.monomial(2, (0, 2), (0, 2), 0))
    base = stabilizer_algebra(m).dim
    for _ in range(4):
        u_mat = cayley_pseudounitary(rng, form, sparse=False)
        moved = surface(form, m.F.substitute_linear(u_mat, Fraction(1)))
        assert stabilizer_algebra(moved).dim == base


def test_stabilizer_solution_set_closed_under_bracket():
    form = standard_form(3, 1, "antidiagonal")
    zn = (0, 0, 2)
    m = surface(form, Poly.monomial(3, zn, zn, 0))
    result = stabilizer_algebra(m)
    for a in result.basis:
        for b in result.basis:
            comm = a.X * b.X - b.X * a.X
            assert stabilizer_residual(m, comm, Fraction(0)).is_zero()


def test_function_of_form_surfaces_fix_all_uH_directions():
    # F a polynomial in <z,z> and u: the stabilizer equation holds with
    # rho = 0 for every direction of u(H)
    from crmoser.forms import u_basis
    for n, m, kind in ((2, 0, "diagonal"), (3, 1, "antidiagonal")):
        form = standard_form(n, m, kind)
        q = form.inner_poly()
        f_poly = q**4 + (Poly.u(n) * q**5).scale(Fraction(-2, 3))
        m_surf = surface(form, f_poly)
        for x_mat in u_basis(form):
            assert stabilizer_residual(m_surf, x_mat, Fraction(0)).is_zero()


def test_stabilizer_monotone_under_fresh_blocks():
    # adding terms in fresh (k, l, u-degree) blocks stacks constraints
    form = standard_form(2, 1, "antidiagonal")
    zn = (0, 2)
    f1 = Poly.monomial(2, zn, zn, 0)
    base = stabilizer_algebra(surface(form, f1)).dim
    q = form.inner_poly()
    for extra in (Poly.monomial(2, zn, zn, 1),
                  q ** 5,
                  (q ** 4) * Poly.u(2)):
        combined = surface(form, f1 + extra)
        assert stabilizer_algebra(combined).dim <= base


# -- T operator ---------------------------------------------------------------------------


def test_T_vanishes_for_zero_a():
    rng = random.Random(79)
    form = standard_form(2, 1, "antidiagonal")
    zero_a = (GaussianRational(0), GaussianRational(0))
    for _ in range(20):
        fg = random_real_poly(rng, 2, pairs=2)
        assert T_operator(fg, zero_a, form).is_zero()


def sympy_T_oracle(fg, a, form):
    """The displayed T formula written directly in sympy."""
    n = form.n
    z, zb, u = sym_vars(n)
    h = [[sympy.Rational(form.matrix[i, j].re) + sympy.I * sympy.Rational(
        form.matrix[i, j].im) for j in range(n)] for i in range(n)]
    a_sym = [sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im) for c in a]
    a_conj = [sympy.conjugate(c) for c in a_sym]
    f_expr = poly_to_sympy(fg)
    za = sum(h[i][j] * z[i] * a_conj[j] for i in range(n) for j in range(n))
    inner_zz = sum(h[i][j] * z[i] * zb[j] for i in range(n) for j in range(n))
    upz = u + sympy.I * inner_zz
    expr = (-2 * sympy.I * za * f_expr
            + upz * sum(a_sym[j] * sympy.diff(f_expr, z[j]) for j in range(n))
            + 2 * sympy.I * za * sum(z[j] * sympy.diff(f_expr, z[j]) for j in range(n))
            + sympy.I * za * upz * sympy.diff(f_expr, u))
    # 2 Re: add the algebra conjugate (swap z <-> zb, conjugate scalars)
    swap = {z[i]: zb[i] for i in range(n)}
    swap.update({zb[i]: z[i] for i in range(n)})
    conj_expr = sympy.conjugate(expr).subs(
        {sympy.conjugate(z[i]): z[i] for i in range(n)}, simultaneous=True)
    conj_expr = conj_expr.subs(
        {sympy.conjugate(v): v for v in list(z) + list(zb) + [u]}, simultaneous=True)
    conj_expr = conj_expr.subs(swap, simultaneous=True)
    return sympy.expand(expr + conj_expr)


def test_T_matches_sympy_formula():
    form = standard_form(2, 1, "antidiagonal")
    fg = Poly.monomial(2, (0, 2), (0, 2), 0)
    a = (GaussianRational(1), GaussianRational(0))
    got = T_operator(fg, a, form)
    assert got.is_real()
    assert poly_to_sympy(got) == sympy_T_oracle(fg, a, form)
    a2 = (GaussianRational(Fraction(1, 2), Fraction(1, 3)), GaussianRational(2))
    got2 = T_operator(fg, a2, form)
    assert poly_to_sympy(got2) == sympy_T_oracle(fg, a2, form)
    # F with u terms, so the i<z,a>(u+i<z,z>) dF/du product is compared too
    rng = random.Random(89)
    p = Matrix([[1, I, 0], [0, 1, Fraction(1, 2)], [1, 0, 2]])
    d = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    forms = [standard_form(n, m, "diagonal" if m == 0 else "antidiagonal")
             for n in (2, 3) for m in (0, 1)]
    forms.append(HermitianForm(3, 1, p.conj_transpose() * d * p))
    for form in forms:
        n = form.n
        fg = random_real_poly(rng, n, pairs=1) + random_real_poly(rng, n, pairs=1) * Poly.u(n)
        assert not fg.partial("u").is_zero()
        a = [random_gauss(rng, allow_zero=True) for _ in range(n)]
        assert poly_to_sympy(T_operator(fg, a, form)) == sympy_T_oracle(fg, a, form)


def test_T_raises_weight_by_one_and_is_linear():
    rng = random.Random(83)
    form = standard_form(2, 1, "antidiagonal")
    a = (random_gauss(rng), random_gauss(rng))
    fg = Poly.monomial(2, (0, 2), (0, 2), 0)  # pure weight 4
    out = T_operator(fg, a, form)
    assert set(w for w, _ in out.weight_decompose().items()) <= {5}
    fg2 = Poly.monomial(2, (1, 1), (1, 1), 0) + Poly.monomial(2, (0, 2), (2, 0), 0) \
        + Poly.monomial(2, (2, 0), (0, 2), 0)
    s = T_operator(fg + fg2, a, form)
    assert s == T_operator(fg, a, form) + T_operator(fg2, a, form)
    # additive in a as well
    b = (random_gauss(rng), random_gauss(rng))
    ab = tuple(x + y for x, y in zip(a, b))
    assert T_operator(fg, ab, form) == T_operator(fg, a, form) + T_operator(fg, b, form)


# -- moser_weight_identity -----------------------------------------------------------------


def test_moser_identity_map_residual_zero():
    form = standard_form(2, 0, "diagonal")
    m = surface(form, form.inner_poly() ** 4, 10)
    assert moser_weight_identity(m, JetMap.identity(2, 10)).is_zero()


def test_moser_linear_automorphisms_residual_zero():
    form = standard_form(2, 1, "antidiagonal")
    m = surface(form, Poly.monomial(2, (0, 2), (0, 2), 0), 10)
    jet = linear_jet(Matrix([[2, 0], [0, Fraction(1, 2)]]).scale(1), Fraction(4), 1, 10)
    assert moser_weight_identity(m, jet).is_zero()
    form0 = standard_form(2, 0, "diagonal")
    m1 = surface(form0, Poly.monomial(2, (4, 0), (4, 0), 0), 10)
    jet1 = linear_jet(Matrix([[I, 0], [0, 1]]), Fraction(1), 1, 10)
    assert moser_weight_identity(m1, jet1).is_zero()


def test_moser_residual_tracks_jet_perturbations():
    # perturbing the jet above its quadric part feeds the residual through
    # Re(i g~_{gamma+1} + 2 <lambda^{-1} U^{-1} f~_gamma, z>): build both
    # sides by hand for pure weight-gamma / weight-(gamma+1) perturbations
    form = standard_form(2, 1, "antidiagonal")
    m = surface(form, Poly.monomial(2, (0, 2), (0, 2), 0), 10)  # gamma = 4
    u_mat = Matrix([[2, 0], [0, Fraction(1, 2)]])
    lam = Fraction(4)
    base = linear_jet(u_mat, lam, 1, 10)
    assert moser_weight_identity(m, base).is_zero()
    wmix = Poly.u(2) + form.inner_poly().scale(I)

    c = GaussianRational(Fraction(1, 3), Fraction(-2, 5))
    df = HoloPoly(2, {((2, 0), 1): c})  # weight 4 = gamma correction to f_1
    jet_f = JetMap((base.f[0] + df, base.f[1]), base.g, 10)
    got = moser_weight_identity(m, jet_f)
    df_mixed = df.substitute_w(wmix).weight_component(4)
    uinv = u_mat.inverse().scale(Fraction(1) / lam)
    vec = [df_mixed.scale(uinv[i, 0]) for i in range(2)]
    zvars = [Poly.z(2, i) for i in range(2)]
    expected = form.pair_polys(vec, zvars).scale(2).real_part()
    assert got == expected
    assert not got.is_zero()

    dg = HoloPoly(2, {((3, 0), 1): c})  # weight 5 = gamma + 1 correction to g
    jet_g = JetMap(base.f, base.g + dg, 10)
    got_g = moser_weight_identity(m, jet_g)
    dg_mixed = dg.substitute_w(wmix).weight_component(5)
    expected_g = dg_mixed.scale(I).real_part()
    assert got_g == expected_g
    assert not got_g.is_zero()


def test_moser_spherical_rejected():
    form = standard_form(2, 0, "diagonal")
    m = surface(form, Poly.zero(2), 8)
    with pytest.raises(ValueError):
        moser_weight_identity(m, JetMap.identity(2, 8))


# -- verify_automorphism ------------------------------------------------------------------


def test_verify_truncation_error():
    form = standard_form(2, 0, "diagonal")
    m = surface(form, Poly.zero(2), 12)
    with pytest.raises(TruncationError):
        verify_automorphism(m, JetMap.identity(2, 6), 6)


def test_verify_rejects_a_negative_weight():
    form = standard_form(2, 0, "diagonal")
    m = surface(form, Poly.monomial(2, (2, 0), (2, 0), 0), 8)
    not_auto = JetMap((HoloPoly.z(2, 0).scale(2), HoloPoly.z(2, 1)), HoloPoly.w(2), 6)
    assert not verify_automorphism(m, not_auto, 2)
    for weight in (-1, -3):
        with pytest.raises(ValueError, match="non-negative"):
            verify_automorphism(m, not_auto, weight)
    # a weight above maxWeight stays allowed
    assert verify_automorphism(surface(form, Poly.zero(2), 4), JetMap.identity(2, 10), 9)


def test_verify_nonspherical_linear_maps():
    form = standard_form(2, 0, "diagonal")
    m = surface(form, Poly.monomial(2, (4, 0), (4, 0), 0), 10)
    assert verify_automorphism(m, JetMap.identity(2, 10), 9)
    good = linear_jet(Matrix([[I, 0], [0, 1]]), Fraction(1), 1, 10)
    assert verify_automorphism(m, good, 9)
    bad = JetMap((HoloPoly.z(2, 1), HoloPoly.z(2, 0)), HoloPoly.w(2), 10)
    assert not verify_automorphism(m, bad, 9)


def test_verify_rejects_a_singular_linear_part():
    q4 = model_umbilic(2, 0, "diagonal", {(4, 0): 1})
    zero = JetMap((HoloPoly.zero(2), HoloPoly.zero(2)), HoloPoly.zero(2), 6)
    assert not verify_automorphism(q4, zero, 5)
    quadric = surface(standard_form(2, 1, "antidiagonal"), Poly.zero(2), 6)
    # f = (z1, 0), g = 0 preserves v = <z,z> (<f,f> = 0) but is degenerate
    flat = JetMap((HoloPoly.z(2, 0), HoloPoly.zero(2)), HoloPoly.zero(2), 6)
    assert not verify_automorphism(quadric, flat, 5)
    # an invertible linear part with an empty g is still singular as a whole
    no_w = JetMap((HoloPoly.z(2, 0), HoloPoly.z(2, 1)), HoloPoly.zero(2), 6)
    assert not verify_automorphism(quadric, no_w, 5)
    assert verify_automorphism(quadric, JetMap.identity(2, 6), 5)


def holo_terms_of_weight(n, k):
    """Two holomorphic monomials of weight k >= 2: z_1^k and z_n^(k-2) w."""
    first = tuple(k if i == 0 else 0 for i in range(n))
    last = tuple(k - 2 if i == n - 1 else 0 for i in range(n))
    c = GaussianRational(Fraction(1, 3), Fraction(-2, 5))
    return [HoloPoly(n, {(first, 0): c}), HoloPoly(n, {(last, 1): c})]


@pytest.mark.parametrize("case", ["quadric jet on F = 0", "linear jet on umbilic_q4"])
def test_a_jet_term_of_weight_k_first_fails_at_k_plus_one_in_f_and_at_k_in_g(case):
    # f(0) = 0, so a term of weight k in f_i first reaches the residual in
    # <f,f> at weight k + 1, where it meets the weight-1 part of conj(f);
    # a term in g reaches Im g at its own weight.  This pins the weight cap
    # of f in verify_automorphism and its zero test of the residual.
    D = 10
    if case == "quadric jet on F = 0":
        form = standard_form(2, 1, "antidiagonal")
        m = surface(form, Poly.zero(2), D)
        params = AutoParams(U=Matrix([[2, 0], [0, Fraction(1, 2)]]),
                            a=(GaussianRational(Fraction(1, 2), 1), GaussianRational(-1, 3)),
                            lam=Fraction(2), sigma=1, r=Fraction(1, 3))
        base = quadric_automorphism(params, form, D)
    else:
        m = surface_from_json(json.loads((SAMPLES / "umbilic_q4.json").read_text()))
        base = linear_jet(Matrix([[I, 0], [0, 1]]), Fraction(1), 1, D)
    assert verify_automorphism(m, base, D - 1)
    for k in range(2, D):
        for term in holo_terms_of_weight(2, k):
            if k + 1 < D:
                for i in range(2):
                    f = list(base.f)
                    f[i] = f[i] + term
                    jet = JetMap(tuple(f), base.g, D)
                    assert verify_automorphism(m, jet, k), (case, k, i)
                    assert not verify_automorphism(m, jet, k + 1), (case, k, i)
            jet = JetMap(base.f, base.g + term, D)
            assert verify_automorphism(m, jet, k - 1), (case, k)
            assert not verify_automorphism(m, jet, k), (case, k)


# -- reparametrize ------------------------------------------------------------------------


def test_reparametrize_trivial_cases():
    form = standard_form(2, 1, "antidiagonal")
    m = surface(form, Poly.monomial(2, (0, 2), (0, 2), 0), 8)
    assert reparametrize(m, Fraction(0), 8).F == m.F
    spherical = surface(form, Poly.zero(2), 8)
    assert reparametrize(spherical, Fraction(5, 7), 8).F.is_zero()


def test_reparametrize_composition_law_weight_8():
    form = standard_form(2, 1, "antidiagonal")
    m = surface(form, Poly.monomial(2, (0, 2), (0, 2), 0), 8)
    q1, q2 = Fraction(1, 3), Fraction(1, 5)
    twice = reparametrize(reparametrize(m, q1, 8), q2, 8)
    once = reparametrize(m, q1 + q2, 8)
    assert twice.F == once.F
    moved = reparametrize(m, q1, 8)
    assert not moved.F == m.F  # q != 0 genuinely moves F
    assert moved.F.min_weight() >= 4  # quadric part untouched
    back = reparametrize(moved, -q1, 8)
    assert back.F == m.F


def test_reparametrize_agrees_with_jet_transport():
    # dual route: the image surface F' must satisfy the mapping equation
    # Im g = <f,f> + F'(f, conj f, Re g) along the source surface, where
    # (f, g) is the jet of z -> z/(1+qw), w -> w/(1+qw) (a quadric map with
    # U = E, a = 0, lambda = 1, r = -q)
    form = standard_form(2, 1, "antidiagonal")
    m = surface(form, Poly.monomial(2, (0, 2), (0, 2), 0), 8)
    q = Fraction(1, 4)
    moved = reparametrize(m, q, 8)
    params = AutoParams(U=Matrix.identity(2),
                        a=(GaussianRational(0), GaussianRational(0)),
                        lam=Fraction(1), sigma=1, r=-q)
    jet = quadric_automorphism(params, form, 10)
    w_cap = 8
    wmix = (Poly.u(2) + (form.inner_poly() + m.F).scale(I)).truncate_weight(w_cap)
    gm = jet.g.substitute_w(wmix, w_cap)
    fm = [fi.substitute_w(wmix, w_cap) for fi in jet.f]
    residual = (gm.imag_part()
                - form.pair_polys(fm, fm, w_cap)
                - moved.F.substitute(fm, [p.conjugate() for p in fm],
                                     gm.real_part(), max_weight=w_cap))
    assert residual.truncate_weight(w_cap).is_zero()


def test_reparametrize_weight_cap_enforced():
    form = standard_form(2, 1, "antidiagonal")
    m = surface(form, Poly.monomial(2, (0, 2), (0, 2), 0), 8)
    with pytest.raises(ValueError):
        reparametrize(m, Fraction(1), 10)


def test_reparametrize_refuses_a_negative_weight_before_any_round():
    form = standard_form(2, 1, "antidiagonal")
    m = surface(form, Poly.monomial(2, (0, 2), (0, 2), 0), 8)
    for q in (Fraction(0), Fraction(1, 2)):
        with pytest.raises(ValueError, match="reparametrization weight must be non-negative"):
            reparametrize(m, q, -1)


def test_reparametrize_scales_a_bidegree_2_2_part_by_s_conj_s():
    """F = |z1|^4: F' = F s conj(s), and s conj(s) = 1 + 2qu below weight 4, so
    F' = F (1 + 2qu) through weight 6.  A prefactor left undivided on one
    side, F s^2 conj(s), would add q w F, which is not real."""
    form = standard_form(2, 0, "diagonal")
    f = Poly.monomial(2, (2, 0), (2, 0), 0)
    q = Fraction(1, 2)
    moved = reparametrize(surface(form, f, 6), q, 6)
    assert moved.F == f + f * Poly.u(2).scale(2 * q)


# -- exact scalars at the entry points -----------------------------------------------------


def test_the_automorphism_entry_points_refuse_floats_and_read_ints_as_fractions():
    form = standard_form(2, 1, "antidiagonal")
    m = surface(form, Poly.monomial(2, (0, 2), (0, 2), 0), 8)
    u_mat = Matrix([[2, 0], [0, Fraction(1, 2)]])
    zero = (GaussianRational(0),) * 2
    with pytest.raises(TypeError, match="exact rational"):
        reparametrize(m, 0.5, 8)
    with pytest.raises(TypeError, match="exact rational"):
        AutoParams(U=Matrix.identity(2), a=zero, lam=0.5, sigma=1, r=0)
    with pytest.raises(TypeError, match="exact rational"):
        AutoParams(U=Matrix.identity(2), a=zero, lam=1, sigma=1, r=0.5)
    with pytest.raises(TypeError, match="exact rational"):
        is_linear_automorphism(m, u_mat, 0.5, 1)
    assert reparametrize(m, 2, 8) == reparametrize(m, Fraction(2), 8)
    params = AutoParams(U=Matrix.identity(2), a=zero, lam=2, sigma=-1, r=-3)
    assert params == AutoParams(U=Matrix.identity(2), a=zero, lam=Fraction(2), sigma=-1,
                                r=Fraction(-3))
    assert type(params.lam) is type(params.r) is Fraction
    assert is_linear_automorphism(m, u_mat, 4, 1)
    assert is_linear_automorphism(m, u_mat, Fraction(4), 1)
