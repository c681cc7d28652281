import json
import pathlib
import random
from fractions import Fraction

import pytest

from crmoser import forms, models
from crmoser.autgroup import is_linear_automorphism, reparametrize, stabilizer_algebra
from crmoser.census import random_normal_form_surface
from crmoser.forms import is_pseudounitary, standard_form, u_basis
from crmoser.gaussrat import GaussianRational
from crmoser.linalg import Matrix, rational_nullspace
from crmoser.models import (
    ModelError,
    ScaledSAuto,
    SElement,
    classify,
    forbidden_band,
    is_in_S,
    model_corollary2,
    model_theorem1,
    model_theorem2,
    model_umbilic,
    s_decompose,
    s_dimension,
    s_named_subgroup,
    s_to_matrix,
    theorem2_decompose,
    verify_scaled_automorphism,
)
from crmoser.normal_form import check_normal_form, is_umbilic_origin, trace_op
from crmoser.poly import Poly
from crmoser.surface_io import surface_from_json

from helpers import random_s_element, sympy_pseudounitary_sign

I = GaussianRational(0, 1)
SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


# -- the matrix group S -----------------------------------------------------------


def test_s_to_matrix_examples():
    e = SElement(n=2, m=1, mu=GaussianRational(2), c=GaussianRational(0),
                 x=(), A=Matrix.identity(0))
    assert s_to_matrix(e) == Matrix([[2, 0], [0, Fraction(1, 2)]])

    e2 = SElement(n=3, m=1, mu=GaussianRational(1),
                  c=GaussianRational(Fraction(-1, 2)),
                  x=(GaussianRational(1),), A=Matrix.identity(1))
    u2 = s_to_matrix(e2)
    assert u2 == Matrix([[1, -1, Fraction(-1, 2)], [0, 1, 1], [0, 0, 1]])
    form = standard_form(3, 1, "antidiagonal")
    assert is_pseudounitary(u2, form) == 1
    assert sympy_pseudounitary_sign(u2, form) == 1

    t = Fraction(5, 7)
    e3 = SElement(n=2, m=1, mu=GaussianRational(1), c=GaussianRational(0, t),
                  x=(), A=Matrix.identity(0))
    u3 = s_to_matrix(e3)
    assert u3 == Matrix([[1, GaussianRational(0, t)], [0, 1]])
    assert is_pseudounitary(u3, standard_form(2, 1, "antidiagonal")) == 1


def test_s_element_invariants_rejected():
    with pytest.raises(ModelError):
        SElement(n=2, m=1, mu=GaussianRational(0), c=GaussianRational(0),
                 x=(), A=Matrix.identity(0))
    with pytest.raises(ModelError):
        SElement(n=2, m=1, mu=GaussianRational(1), c=GaussianRational(1),
                 x=(), A=Matrix.identity(0))  # Re(c/mu) != 0
    with pytest.raises(ModelError):
        SElement(n=3, m=1, mu=GaussianRational(1), c=GaussianRational(0),
                 x=(GaussianRational(1),), A=Matrix.identity(1))  # corner
    with pytest.raises(ModelError):
        SElement(n=3, m=1, mu=GaussianRational(1), c=GaussianRational(0),
                 x=(GaussianRational(0),), A=Matrix.identity(1).scale(2))


def test_is_in_S_examples():
    assert is_in_S(Matrix.identity(2), 1)
    assert is_in_S(Matrix.identity(4), 2)
    assert not is_in_S(Matrix([[0, 1], [1, 0]]), 1)
    rng = random.Random(5)
    for n, m in ((2, 1), (3, 1), (4, 2)):
        for _ in range(20):
            element = random_s_element(rng, n, m)
            u_mat = s_to_matrix(element)
            assert is_in_S(u_mat, m)
            back = s_decompose(u_mat, m)
            assert back == element


def test_is_in_S_rejects_products_with_pseudounitaries_outside_S():
    """S elements times pseudounitaries of the antidiagonal form that break one cell each.

    N = E + (i/2) E_n1 is pseudounitary.  U N moves column 1 below the
    diagonal, N U moves row n left of it, and N J, with J in the subgroup J
    and c != 0, moves the corner U_nn conj(mu) off 1.  N U and N J keep
    rows 1..n-1, from which (mu, c, x, A) are read, so only the equality
    with the reassembled matrix rejects them.  At (2,1), diag(1, -1) U
    keeps the zero pattern and has corner -1 (sigma = -1).
    """
    rng = random.Random(13)
    for n, m in ((2, 1), (3, 1), (4, 1), (5, 2)):
        form = standard_form(n, m, "antidiagonal")
        nil = Matrix([[GaussianRational(0, Fraction(1, 2)) if (i, j) == (n - 1, 0) else int(i == j)
                       for j in range(n)] for i in range(n)])
        assert is_pseudounitary(nil, form) == 1
        j_mat = s_to_matrix(s_named_subgroup("J", n, m, c=GaussianRational(0, 2)))
        corner = nil * j_mat
        assert not (corner[n - 1, n - 1] * corner[0, 0].conjugate() - 1).is_zero()
        broken = [corner]
        for _ in range(5):
            u_mat = s_to_matrix(random_s_element(rng, n, m))
            column, row = u_mat * nil, nil * u_mat
            assert any(column[i, 0] for i in range(1, n))
            assert any(row[n - 1, j] for j in range(n - 1))
            broken += [column, row]
            if n == 2:
                broken.append(Matrix([[1, 0], [0, -1]]) * u_mat)
        for p in broken:
            assert is_pseudounitary(p, form) in (1, -1)
            assert not is_in_S(p, m)


def test_s_pseudounitary_and_group_closure():
    rng = random.Random(7)
    for n, m in ((2, 1), (3, 1), (4, 1), (4, 2), (5, 1), (5, 2)):
        form = standard_form(n, m, "antidiagonal")
        for _ in range(10):
            a = s_to_matrix(random_s_element(rng, n, m))
            b = s_to_matrix(random_s_element(rng, n, m))
            assert is_pseudounitary(a, form) == 1
            assert is_in_S(a * b, m)
            assert is_in_S(a.inverse(), m)


def test_s_dimension_values():
    for n in range(2, 6):
        for m in range(1, n // 2 + 1):
            assert s_dimension(n, m) == n * n - 2 * n + 3
    with pytest.raises(ModelError):
        s_dimension(3, 2)
    with pytest.raises(ModelError):
        s_dimension(4, 0)


def test_s_dimension_is_one_solve_over_the_memoized_u_basis(monkeypatch):
    solves = []

    def counting_nullspace(rows, ncols):
        solves.append(ncols)
        return rational_nullspace(rows, ncols)

    monkeypatch.setattr(models, "rational_nullspace", counting_nullspace)
    monkeypatch.setattr(forms, "rational_nullspace", counting_nullspace)
    for n, m in ((2, 1), (5, 1), (6, 3)):
        form = standard_form(n, m, "antidiagonal")  # held: standard forms are kept weakly
        u_basis(form)
        solves.clear()
        assert s_dimension(n, m) == n * n - 2 * n + 3
        assert solves == [n * n]


@pytest.mark.parametrize("n", range(2, 9))
def test_models_and_s_land_on_their_dimensions(n):
    for m in range(n // 2 + 1):
        kind = "antidiagonal" if m else "diagonal"
        assert stabilizer_algebra(model_umbilic(n, m, kind, {(4, 0): 1})).dim == n * n
        if m == 0:
            assert stabilizer_algebra(model_theorem1(n, {(1, 3, 0): 1})).dim == n * n - 2 * n + 2
        else:
            model = model_theorem2(n, m, Fraction(-1, 2), {(0, 2, 0): 1})
            assert stabilizer_algebra(model).dim == n * n - 2 * n + 3
            assert s_dimension(n, m) == n * n - 2 * n + 3


def test_named_subgroups():
    k = s_named_subgroup("K", 2, 1, t=Fraction(2))
    assert s_to_matrix(k) == Matrix([[2, 0], [0, Fraction(1, 2)]])
    with pytest.raises(ModelError):
        s_named_subgroup("K", 2, 1, t=Fraction(-1))

    i1 = s_named_subgroup("I", 2, 1, t=Fraction(1))
    assert i1.mu == I
    assert i1.mu_abs2 == 1
    for t in (Fraction(0), Fraction(2, 3), Fraction(-5)):
        assert s_named_subgroup("I", 3, 1, t=t).mu_abs2 == 1

    j = s_named_subgroup("J", 3, 1, c=GaussianRational(Fraction(-1, 2)),
                         x=(GaussianRational(1),))
    assert s_to_matrix(j) == Matrix(
        [[1, -1, Fraction(-1, 2)], [0, 1, 1], [0, 0, 1]])
    with pytest.raises(ModelError):
        s_named_subgroup("J", 3, 1, c=GaussianRational(1), x=(GaussianRational(0),))


# -- model constructors --------------------------------------------------------------


def test_model_umbilic():
    m = model_umbilic(2, 0, "diagonal", {(4, 0): Fraction(1)})
    assert check_normal_form(m).passed
    assert stabilizer_algebra(m).dim == 4
    m31 = model_umbilic(3, 1, "antidiagonal", {(4, 0): Fraction(1)})
    assert stabilizer_algebra(m31).dim == 9
    with pytest.raises(ModelError):
        model_umbilic(2, 0, "diagonal", {})
    with pytest.raises(ModelError):
        model_umbilic(2, 0, "diagonal", {(3, 0): Fraction(1)})


def test_model_theorem1():
    m = model_theorem1(2, {(4, 0, 0): Fraction(1)})
    assert m.F == Poly.monomial(2, (4, 0), (4, 0), 0)
    assert stabilizer_algebra(m).dim == 2
    m3 = model_theorem1(3, {(1, 3, 0): Fraction(1)})
    assert stabilizer_algebra(m3).dim == 5
    with pytest.raises(ModelError):
        model_theorem1(2, {(1, 1, 0): Fraction(1)})
    with pytest.raises(ModelError):
        model_theorem1(2, {(0, 4, 0): Fraction(1)})  # no p >= 1 term


def test_model_theorem2():
    m = model_theorem2(2, 1, Fraction(-1, 2), {(0, 2, 0): Fraction(1)})
    assert m.F == Poly.monomial(2, (0, 2), (0, 2), 0)
    assert stabilizer_algebra(m).dim == 3
    m3 = model_theorem2(3, 1, Fraction(-1, 2), {(0, 2, 0): Fraction(-1)})
    assert stabilizer_algebra(m3).dim == 6
    with pytest.raises(ModelError, match="!= s"):
        model_theorem2(2, 1, Fraction(1), {(0, 2, 0): Fraction(1)})
    with pytest.raises(ModelError, match="trace conditions"):
        model_theorem2(2, 1, Fraction(0), {(0, 1, 1): Fraction(1)})
    with pytest.raises(ModelError):
        model_theorem2(2, 0, Fraction(0), {(1, 2, 0): Fraction(1)})


def test_model_theorem2_stored_monomials_satisfy_ratio():
    # s = -1/2 admits only the key (0, 2, 0): r+q-1 = -p/2 forces r=q=0, p=2
    for s, keys in ((Fraction(-1, 2), {(0, 2, 0): 1}),
                    (Fraction(0), {(1, 2, 0): 1, (0, 2, 1): 1}),
                    (Fraction(1), {(3, 2, 0): 1, (2, 2, 1): 1})):
        m = model_theorem2(2, 1, s, {k: Fraction(v) for k, v in keys.items()})
        for (r, p, q), c in theorem2_decompose(m).items():
            assert Fraction(r + q - 1, p) == s
        assert stabilizer_algebra(m).dim == 3


def test_model_corollary2():
    c2 = model_corollary2(2, 1, 1)
    assert c2.F == Poly.monomial(2, (0, 2), (0, 2), 0)
    assert check_normal_form(c2).passed
    assert not is_umbilic_origin(c2)
    c3 = model_corollary2(3, 1, -1)
    assert c3.F == Poly.monomial(3, (0, 0, 2), (0, 0, 2), 0).scale(-1)
    c4 = model_corollary2(4, 2, 1)
    assert c4.F == Poly.monomial(4, (0, 0, 0, 2), (0, 0, 0, 2), 0)
    q4 = standard_form(4, 2, "antidiagonal").inner_poly()
    # v = 2Re z1 zb4 + 2Re z2 zb3 + |z4|^4
    assert q4 == (Poly.monomial(4, (1, 0, 0, 0), (0, 0, 0, 1), 0)
                  + Poly.monomial(4, (0, 0, 0, 1), (1, 0, 0, 0), 0)
                  + Poly.monomial(4, (0, 1, 0, 0), (0, 0, 1, 0), 0)
                  + Poly.monomial(4, (0, 0, 1, 0), (0, 1, 0, 0), 0))
    with pytest.raises(ModelError):
        model_corollary2(2, 1, 2)


# -- scaled automorphisms ---------------------------------------------------------------


def test_scaled_automorphism_symbolic_and_concrete():
    c2 = model_corollary2(2, 1, 1)
    e = SElement(n=2, m=1, mu=GaussianRational(2), c=GaussianRational(0),
                 x=(), A=Matrix.identity(0))
    auto = ScaledSAuto(s=Fraction(-1, 2), element=e)
    assert verify_scaled_automorphism(c2, auto)
    assert auto.rational_scale() == 4
    # concrete check by direct substitution: lambda = |mu|^{1/(s+1)} = 4
    assert is_linear_automorphism(c2, s_to_matrix(e), Fraction(4), 1)


def test_scaled_automorphism_unimodular_mu():
    c2 = model_corollary2(2, 1, 1)
    e = s_named_subgroup("I", 2, 1, t=Fraction(1, 2))
    auto = ScaledSAuto(s=Fraction(-1, 2), element=e)
    assert verify_scaled_automorphism(c2, auto)
    assert auto.rational_scale() == 1
    assert is_linear_automorphism(c2, s_to_matrix(e), Fraction(1), 1)


def test_scaled_automorphism_s_mismatch():
    c2 = model_corollary2(2, 1, 1)
    e = SElement(n=2, m=1, mu=GaussianRational(4), c=GaussianRational(0),
                 x=(), A=Matrix.identity(0))
    auto = ScaledSAuto(s=Fraction(0), element=e)
    with pytest.raises(ModelError, match="s mismatch"):
        verify_scaled_automorphism(c2, auto)


def test_scaled_automorphism_rational_lambda_cross_check():
    rng = random.Random(11)
    for s, keys in ((Fraction(-1, 2), {(0, 2, 0): 1}),
                    (Fraction(0), {(1, 2, 0): 1}),
                    (Fraction(1), {(3, 2, 0): 1})):
        m = model_theorem2(2, 1, s, {k: Fraction(v) for k, v in keys.items()})
        for _ in range(8):
            element = random_s_element(rng, 2, 1)
            auto = ScaledSAuto(s=s, element=element)
            assert verify_scaled_automorphism(m, auto)
            lam = auto.rational_scale()
            if lam is not None:
                assert is_linear_automorphism(m, s_to_matrix(element), lam, 1)


def test_theorem2_decompose_rejects_foreign_surfaces():
    form = standard_form(2, 1, "antidiagonal")
    from crmoser.normal_form import Hypersurface
    q4 = Hypersurface(form, form.inner_poly() ** 4, 8)
    with pytest.raises(ModelError):
        theorem2_decompose(q4)  # p = 0 everywhere: not the theorem2 family
    diag = standard_form(2, 0, "diagonal")
    with pytest.raises(ModelError):
        theorem2_decompose(Hypersurface(diag, diag.inner_poly() ** 4, 8))


# -- classify -----------------------------------------------------------------------------


def test_classify_cases():
    assert classify(model_umbilic(2, 0, "diagonal", {(4, 0): 1})).case == "FULL"
    assert classify(model_theorem1(2, {(4, 0, 0): 1})).case == "T1_CASE"
    result = classify(model_corollary2(2, 1, 1))
    assert result.case == "T2_CASE" and result.dim == 3 and result.gap_ok


def test_classify_other_case():
    # a surface with small symmetry: mixed monomial pair at (2,1)
    form = standard_form(2, 1, "antidiagonal")
    from crmoser.normal_form import Hypersurface
    f_poly = (Poly.monomial(2, (0, 2), (0, 2), 0)
              + Poly.monomial(2, (1, 1), (0, 2), 1)
              + Poly.monomial(2, (0, 2), (1, 1), 1))
    m = Hypersurface(form, f_poly, 8)
    if check_normal_form(m).passed:
        result = classify(m)
        assert result.case in ("OTHER", "T2_CASE")
        assert result.gap_ok


def test_classify_rejects_bad_inputs():
    form = standard_form(2, 0, "diagonal")
    from crmoser.normal_form import Hypersurface
    with pytest.raises(ModelError):
        classify(Hypersurface(form, Poly.zero(2), 6))
    with pytest.raises(ModelError):
        classify(Hypersurface(form, form.inner_poly() ** 2, 6))


def test_forbidden_band_bounds():
    assert forbidden_band(2, 0) == (3, 3)
    assert forbidden_band(3, 0) == (6, 8)
    assert forbidden_band(2, 1) == (4, 3)  # empty band
    assert forbidden_band(3, 1) == (7, 8)


def test_the_kernel_builds_no_gaussian_rational(monkeypatch):
    # the surfaces are built first, at the boundary; after that the stabilizer solve, the
    # function test, reparametrization and the trace read integer numerators only
    census = [random_normal_form_surface(random.Random(seed), standard_form(n, m, kind), 10)
              for seed, (n, m, kind) in enumerate([(2, 0, "diagonal"), (3, 1, "antidiagonal")])]
    explicit = surface_from_json(json.loads((SAMPLES / "explicit_2_1.json").read_text()))
    model = models.model_umbilic(3, 1, "antidiagonal", {(4, 0): 1, (4, 1): Fraction(-1, 2)})

    def forbidden(self, *args):
        raise AssertionError("a GaussianRational was built inside the kernel")

    monkeypatch.setattr(GaussianRational, "__init__", forbidden)
    for surface in (*census, explicit):
        assert models.classify(surface).dim == stabilizer_algebra(surface).dim
    assert reparametrize(model, Fraction(1, 3), model.max_weight).F.min_weight() == 8
    assert not trace_op(explicit.form, explicit.F).is_zero()


def test_a_model_coefficient_may_be_a_real_gaussian_rational_only():
    assert models._as_coeff(GaussianRational(Fraction(3, 2))) == Fraction(3, 2)
    assert (model_theorem1(3, {(2, 2, 0): GaussianRational(2)}).F
            == model_theorem1(3, {(2, 2, 0): 2}).F)
    with pytest.raises(ModelError, match="real rationals"):
        models._as_coeff(GaussianRational(1, 1))
    with pytest.raises(ModelError, match="real rationals"):
        model_theorem1(3, {(2, 2, 0): GaussianRational(1, 1)})


def test_s_decompose_refuses_a_matrix_not_square_or_below_2x2():
    for rows in ([[1]], [[1, 0], [0, 1], [0, 0]], []):
        assert s_decompose(Matrix(rows), 0) is None
