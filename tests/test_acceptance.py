"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check here is an equality over Q or Q(i) — there are no numerical
tolerances anywhere.  Each test prints one pass line (visible with
``pytest -s``); a failure raises before the line is printed.
"""

import random
from fractions import Fraction

from crmoser.autgroup import (
    AutoParams,
    T_operator,
    extract_params,
    is_linear_automorphism,
    moser_weight_identity,
    quadric_automorphism,
    reparametrize,
    stabilizer_algebra,
    verify_automorphism,
)
from crmoser.census import CensusConfig, run_census
from crmoser.forms import standard_form, u_basis
from crmoser.gaussrat import GaussianRational
from crmoser.jets import HoloPoly, JetMap
from crmoser.linalg import Matrix
from crmoser.models import (
    ScaledSAuto,
    is_in_S,
    model_corollary2,
    model_theorem2,
    model_umbilic,
    s_dimension,
    s_to_matrix,
    verify_scaled_automorphism,
)
from crmoser.normal_form import Hypersurface, check_normal_form
from crmoser.poly import Poly

from helpers import (
    cayley_pseudounitary,
    is_in_lie_algebra,
    random_fraction,
    random_gauss,
    random_real_poly,
    random_s_element,
    sympy_real_rank,
)

I = GaussianRational(0, 1)


def _ok(num, label):
    print(f"[criterion {num:02d}] {label}: PASS")


def _surface(form, f_poly, max_w=None):
    return Hypersurface(form, f_poly, max_w or f_poly.max_weight() or 4)


def test_c01_u_basis_dimension():
    for n in (2, 3, 4):
        for m in range(n // 2 + 1):
            for kind in ("diagonal", "antidiagonal"):
                form = standard_form(n, m, kind)
                basis = u_basis(form)
                assert len(basis) == n * n
                assert all(is_in_lie_algebra(x, form) for x in basis)
                assert sympy_real_rank(basis) == n * n
    _ok(1, "u(H) has dimension n^2 for n in {2,3,4}, both forms, all m")


def test_c02_spherical_baseline():
    for n in (2, 3):
        for m, kind in ((0, "diagonal"), (1, "antidiagonal")):
            form = standard_form(n, m, kind)
            result = stabilizer_algebra(_surface(form, Poly.zero(n), 6))
            assert result.dim == n * n + 1
            assert result.spherical
    _ok(2, "spherical F = 0 gives n^2 + 1 with the spherical flag")


def test_c03_full_dimension_case():
    for n, m, kind in ((2, 0, "diagonal"), (3, 0, "diagonal"),
                       (2, 1, "antidiagonal"), (3, 1, "antidiagonal")):
        form = standard_form(n, m, kind)
        result = stabilizer_algebra(_surface(form, form.inner_poly() ** 4))
        assert result.dim == n * n
    _ok(3, "F = <z,z>^4 gives dim n^2 at (2,0), (3,0), (2,1), (3,1)")


def test_c04_theorem1_case():
    for n, expect in ((2, 2), (3, 5)):
        form = standard_form(n, 0, "diagonal")
        z1 = tuple(4 if i == 0 else 0 for i in range(n))
        result = stabilizer_algebra(_surface(form, Poly.monomial(n, z1, z1, 0)))
        assert result.dim == expect == n * n - 2 * n + 2
        for sym in result.basis:
            assert sym.rho == 0
            for i in range(1, n):
                assert sym.X[0, i].is_zero() and sym.X[i, 0].is_zero()
        assert sympy_real_rank([sym.X for sym in result.basis]) == expect
    _ok(4, "F = |z1|^8 gives dim 2 (n=2), 5 (n=3); basis is u(1)+u(n-1), rho = 0")


def test_c05_theorem2_case():
    for n, m, expect in ((2, 1, 3), (3, 1, 6), (4, 2, 11)):
        form = standard_form(n, m, "antidiagonal")
        zn = tuple(2 if i == n - 1 else 0 for i in range(n))
        for sign in (1, -1):
            f_poly = Poly.monomial(n, zn, zn, 0).scale(sign)
            result = stabilizer_algebra(_surface(form, f_poly))
            assert result.dim == expect == n * n - 2 * n + 3
    _ok(5, "F = +-|z_n|^4 gives dim 3 at (2,1), 6 at (3,1), 11 at (4,2)")


def test_c06_s_group_dimension_and_closure():
    rng = random.Random(20240601)
    for n in range(2, 6):
        for m in range(1, n // 2 + 1):
            assert s_dimension(n, m) == n * n - 2 * n + 3
            for _ in range(50):
                a = s_to_matrix(random_s_element(rng, n, m))
                b = s_to_matrix(random_s_element(rng, n, m))
                assert is_in_S(a * b, m)
                assert is_in_S(a.inverse(), m)
    _ok(6, "dim S = n^2-2n+3 for 2<=n<=5; closure on 50 random pairs per (n,m)")


def test_c07_normal_form_checker():
    for n, m in ((2, 1), (3, 1), (4, 2)):
        assert check_normal_form(model_corollary2(n, m, 1)).passed
    for n in (2, 3):
        form = standard_form(n, 0, "diagonal")
        q = form.inner_poly()
        report = check_normal_form(_surface(form, q * q))
        assert not report.passed
        assert [name for name, _ in report.violations] == ["trF22"]
        assert report.violations[0][1] == q.scale(2 * (n + 1))
    _ok(7, "corollary2 models pass; <z,z>^2 fails with residual 2(n+1)<z,z>")


def test_c08_scaled_automorphisms():
    rng = random.Random(20240602)
    cases = [
        (2, 1, Fraction(-1, 2), {(0, 2, 0): Fraction(1)}),
        (3, 1, Fraction(-1, 2), {(0, 2, 0): Fraction(1)}),
        (2, 1, Fraction(0), {(1, 2, 0): Fraction(1), (0, 2, 1): Fraction(1)}),
        (2, 1, Fraction(1), {(3, 2, 0): Fraction(1)}),
        (2, 1, Fraction(2), {(5, 2, 0): Fraction(1)}),
    ]
    for n, m, s, coeffs in cases:
        surface = model_theorem2(n, m, s, coeffs)
        for _ in range(20):
            element = random_s_element(rng, n, m)
            auto = ScaledSAuto(s=s, element=element)
            assert verify_scaled_automorphism(surface, auto)
            lam = auto.rational_scale()
            if lam is not None:
                assert is_linear_automorphism(surface, s_to_matrix(element), lam, 1)
    # the concrete rational instance: mu = 2, s = -1/2, lambda = |mu|^2 = 4
    c2 = model_corollary2(2, 1, 1)
    u_mat = Matrix([[2, 0], [0, Fraction(1, 2)]])
    assert is_linear_automorphism(c2, u_mat, Fraction(4), 1)
    moved = c2.F.substitute_linear(u_mat.scale(4), Fraction(16))
    assert moved == c2.F.scale(16)
    _ok(8, "scaled S-maps verify for s in {-1/2,0,1,2}, 20 random elements each")


def test_c09_quadric_automorphism_weight9():
    rng = random.Random(20240603)
    lam_pool = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)]
    for n, m, kind, dense_a in ((2, 0, "diagonal", True),
                                (2, 1, "antidiagonal", True),
                                (3, 1, "antidiagonal", False)):
        form = standard_form(n, m, kind)
        spherical = Hypersurface(form, Poly.zero(n), 12)
        for _ in range(20):
            u_mat = Matrix.identity(n) if rng.random() < 0.4 \
                else cayley_pseudounitary(rng, form)
            if dense_a:
                a = tuple(random_gauss(rng, allow_zero=True) for _ in range(n))
            else:
                vec = [GaussianRational(0)] * n
                vec[rng.randrange(n)] = GaussianRational(
                    random_fraction(rng), random_fraction(rng, True))
                a = tuple(vec)
            params = AutoParams(U=u_mat, a=a, lam=rng.choice(lam_pool),
                                sigma=1, r=random_fraction(rng))
            jet = quadric_automorphism(params, form, 10)
            assert extract_params(jet, form) == params
            assert verify_automorphism(spherical, jet, 9)
    _ok(9, "phi^Q preserves the quadric at weights <= 9 (D = 10); exact round-trip")


def test_c10_gap_property_census():
    report = run_census(CensusConfig(ns=(2, 3), ms=(0, 1), samples=200,
                                     seed=20240604))
    pairs = {(p["n"], p["m"]) for p in report["pairs"]}
    assert pairs == {(2, 0), (2, 1), (3, 0), (3, 1)}
    for pair in report["pairs"]:
        assert pair["samples"] == 200
        assert pair["gap_violations"] == 0
        assert pair["control_failures"] == []
    assert report["gap_violations"] == 0
    _ok(10, "census: 200 samples per (n,m), zero forbidden-band violations")


def test_c11_T_operator_and_weight_identity():
    rng = random.Random(20240605)
    form = standard_form(2, 1, "antidiagonal")
    zero_a = (GaussianRational(0), GaussianRational(0))
    for _ in range(20):
        fg = random_real_poly(rng, 2, pairs=2)
        assert T_operator(fg, zero_a, form).is_zero()
    for gamma_mono, gamma in (( ((0, 2), (0, 2), 0), 4),
                              (((1, 1), (1, 1), 1), 6)):
        fg = Poly(2, {gamma_mono: Fraction(1)})
        out = T_operator(fg, (random_gauss(rng), random_gauss(rng)), form)
        assert set(out.weight_decompose()) <= {gamma + 1}
    # weight identity residuals
    c2 = model_corollary2(2, 1, 1)
    c2 = Hypersurface(c2.form, c2.F, 10)
    ident = JetMap.identity(2, 10)
    assert moser_weight_identity(c2, ident).is_zero()
    scaled = JetMap(
        (HoloPoly.z(2, 0).scale(GaussianRational(8)),
         HoloPoly.z(2, 1).scale(GaussianRational(2))),
        HoloPoly.w(2).scale(GaussianRational(16)), 10)
    assert moser_weight_identity(c2, scaled).is_zero()
    q4 = model_umbilic(2, 0, "diagonal", {(4, 0): Fraction(1)})
    q4 = Hypersurface(q4.form, q4.F, 10)
    rot = JetMap((HoloPoly.z(2, 0).scale(I), HoloPoly.z(2, 1)),
                 HoloPoly.w(2), 10)
    assert moser_weight_identity(q4, rot).is_zero()
    assert verify_automorphism(q4, rot, 9)
    _ok(11, "T(F,0) = 0; T raises weight by 1; weight-identity residuals vanish")


def test_c12_reparametrization_group_law():
    for surface in (model_corollary2(2, 1, 1),
                    model_umbilic(2, 0, "diagonal", {(4, 0): Fraction(1)})):
        surface = Hypersurface(surface.form, surface.F, 8)
        q1, q2 = Fraction(1, 3), Fraction(-1, 4)
        combined = reparametrize(reparametrize(surface, q1, 8), q2, 8)
        direct = reparametrize(surface, q1 + q2, 8)
        assert combined.F == direct.F
        assert reparametrize(surface, Fraction(0), 8).F == surface.F
    spherical = Hypersurface(standard_form(2, 1, "antidiagonal"), Poly.zero(2), 8)
    for q in (Fraction(1, 2), Fraction(-2, 5)):
        assert reparametrize(spherical, q, 8).F.is_zero()
    _ok(12, "reparametrization composes as a 1-parameter group and fixes the quadric")
