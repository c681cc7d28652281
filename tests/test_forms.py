import gc
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crmoser import forms
from crmoser.forms import (
    EXPLICIT,
    HermitianForm,
    invariance_columns,
    is_pseudounitary,
    standard_form,
    u_basis,
)
from crmoser.gaussrat import GaussianRational
from crmoser.linalg import Matrix, hermitian_inertia, rational_nullspace
from crmoser.poly import Poly, real_coefficient_rows

from helpers import (
    cayley_pseudounitary,
    is_in_lie_algebra,
    sympy_pseudounitary_sign,
    sympy_real_rank,
    u_basis_reference,
)

I = GaussianRational(0, 1)


def test_standard_antidiagonal_matrices():
    assert standard_form(2, 1, "antidiagonal").matrix == Matrix([[0, 1], [1, 0]])
    assert standard_form(3, 1, "antidiagonal").matrix == Matrix(
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert standard_form(4, 2, "antidiagonal").matrix == Matrix(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])


def test_standard_diagonal_matrices():
    for n in (2, 3):
        assert standard_form(n, 0, "diagonal").matrix == Matrix.identity(n)
    assert standard_form(2, 1, "diagonal").matrix == Matrix([[1, 0], [0, -1]])
    # antidiagonal with m = 0 degenerates to the identity
    assert standard_form(3, 0, "antidiagonal").matrix == Matrix.identity(3)


def test_standard_form_range_errors():
    with pytest.raises(ValueError):
        standard_form(3, 2, "antidiagonal")
    with pytest.raises(ValueError):
        standard_form(2, 2, "diagonal")  # signature (0,2) violates n >= 2m
    with pytest.raises(ValueError):
        standard_form(2, 1, "bogus")


def test_explicit_form_validation():
    ok = HermitianForm(2, 1, Matrix([[0, I], [-I, 0]]))
    assert ok.n == 2
    with pytest.raises(ValueError):
        HermitianForm(2, 0, Matrix([[0, 1], [1, 0]]))  # signature is (1,1)
    with pytest.raises(ValueError):
        HermitianForm(2, 1, Matrix([[1, 1], [1, 1]]))  # degenerate
    with pytest.raises(ValueError):
        HermitianForm(2, 1, Matrix([[0, 1], [2, 0]]))  # not Hermitian


def test_inner_poly_values():
    diag = standard_form(2, 0, "diagonal")
    assert diag.inner_poly() == (
        Poly.monomial(2, (1, 0), (1, 0), 0) + Poly.monomial(2, (0, 1), (0, 1), 0))
    anti2 = standard_form(2, 1, "antidiagonal")
    assert anti2.inner_poly() == (
        Poly.monomial(2, (1, 0), (0, 1), 0) + Poly.monomial(2, (0, 1), (1, 0), 0))
    anti3 = standard_form(3, 1, "antidiagonal")
    expect = (Poly.monomial(3, (1, 0, 0), (0, 0, 1), 0)
              + Poly.monomial(3, (0, 0, 1), (1, 0, 0), 0)
              + Poly.monomial(3, (0, 1, 0), (0, 1, 0), 0))
    assert anti3.inner_poly() == expect
    assert anti3.inner_poly().is_real()


def test_is_pseudounitary_examples():
    anti2 = standard_form(2, 1, "antidiagonal")
    assert is_pseudounitary(Matrix.identity(2), anti2) == 1
    u_mat = Matrix([[2, 0], [0, Fraction(1, 2)]])
    assert is_pseudounitary(u_mat, anti2) == 1
    assert sympy_pseudounitary_sign(u_mat, anti2) == 1
    diag11 = standard_form(2, 1, "diagonal")
    swap = Matrix([[0, 1], [1, 0]])
    assert is_pseudounitary(swap, diag11) == -1
    assert sympy_pseudounitary_sign(swap, diag11) == -1
    assert is_pseudounitary(swap.scale(2), diag11) is None
    with pytest.raises(ValueError):
        is_pseudounitary(Matrix.identity(3), anti2)


def test_u_basis_dimension_is_n_squared():
    for n in (2, 3, 4):
        for m in range(n // 2 + 1):
            for kind in ("diagonal", "antidiagonal"):
                form = standard_form(n, m, kind)
                basis = u_basis(form)
                assert len(basis) == n * n
                assert all(is_in_lie_algebra(x, form) for x in basis)
                assert sympy_real_rank(basis) == n * n


def test_u_basis_returns_a_fresh_list_each_call():
    form = standard_form(3, 1, "antidiagonal")
    first = u_basis(form)
    kept = list(first)
    first[0] = Matrix.zeros(3, 3)
    first.append(Matrix.identity(3))
    second = u_basis(form)
    assert second is not first and second == kept
    second.clear()
    assert u_basis(form) == kept


def test_u_basis_depends_on_the_form_value_only():
    for n, m, kind in ((2, 1, "antidiagonal"), (3, 0, "diagonal"), (4, 1, "diagonal")):
        standard = standard_form(n, m, kind)
        explicit = HermitianForm(n, m, standard.matrix, EXPLICIT)
        assert explicit == standard and explicit.kind != standard.kind
        assert u_basis(explicit) == u_basis(standard)
        assert u_basis(HermitianForm(n, m, standard.matrix, EXPLICIT)) == u_basis(standard)


def test_standard_forms_are_shared_instances():
    for n, m, kind in ((2, 1, "antidiagonal"), (3, 0, "diagonal"), (4, 1, "diagonal")):
        assert standard_form(n, m, kind) is standard_form(n, m, kind)
    assert standard_form(3, 0, "diagonal") is not standard_form(3, 0, "antidiagonal")


def test_an_explicit_copy_of_a_standard_form_is_distinct_but_equal():
    standard = standard_form(3, 1, "antidiagonal")
    explicit = HermitianForm(3, 1, standard.matrix, EXPLICIT)
    assert explicit is not standard
    assert explicit == standard and hash(explicit) == hash(standard)
    assert u_basis(explicit) == u_basis(standard)


@pytest.mark.parametrize("kind", ["diagonal", "antidiagonal"])
def test_standard_inner_powers_have_as_many_terms_as_the_limit_counts(kind):
    for n in (2, 3, 4):
        form = standard_form(n, 1, kind)
        for k in range(5):
            assert len(form.inner_power(k).terms) == math.comb(k + n - 1, n - 1), (n, kind, k)


def test_an_inner_power_past_the_limit_is_refused_before_any_product(monkeypatch):
    def no_product(self, other, max_weight=None):
        raise AssertionError("a power of <z,z> was multiplied out")

    # nothing memoized yet
    form, line, plane = [HermitianForm(n, 0, Matrix.identity(n), "diagonal") for n in (8, 1, 2)]
    for each in (form, line, plane):
        each.inner_poly()
    monkeypatch.setattr(Poly, "mul", no_product)
    assert forms.MAX_POWER_TERMS == 10 ** 5
    with pytest.raises(ValueError) as refused:
        form.inner_power(30)
    assert str(refused.value) == "<z,z>^30 has 10295472 terms, more than the limit of 100000"
    with pytest.raises(ValueError, match=r"<z,z>\^14 has 116280 terms"):
        form.inner_power(14)
    with pytest.raises(AssertionError, match="multiplied out"):  # 77520 terms: allowed
        form.inner_power(13)  # with C(21, 8) = 203490 terms over the powers 0..13

    # at n = 1 and 2 each power is small, but the memo would keep the powers 0..k
    assert forms.MAX_MEMO_TERMS == 250000
    with pytest.raises(ValueError) as refused:
        plane.inner_power(99999)  # one power of 100000 terms passes the per-power limit
    assert str(refused.value) == ("the powers <z,z>^0..<z,z>^99999 hold 5000050000 terms in "
                                  "all, more than the memo limit of 250000")
    with pytest.raises(ValueError, match=r"<z,z>\^0..<z,z>\^250000 hold 250001 terms"):
        line.inner_power(250000)  # every power has one term
    # the largest chains allowed: 250000 one-term powers, and C(707, 2) = 249571 terms at n = 2
    for each, k in ((line, 249999), (plane, 705)):
        with pytest.raises(AssertionError, match="multiplied out"):
            each.inner_power(k)
    with pytest.raises(ValueError, match="hold 250278 terms"):
        plane.inner_power(706)


def test_a_form_past_the_largest_dimension_is_refused():
    assert forms.MAX_N == 24
    assert standard_form(forms.MAX_N, 1, "antidiagonal").n == forms.MAX_N
    for make in (lambda n: standard_form(n, 0, "diagonal"),
                 lambda n: standard_form(n, 1, "antidiagonal"),
                 lambda n: HermitianForm(n, 0, Matrix.identity(n))):
        with pytest.raises(ValueError, match="n = 25 exceeds the largest supported dimension 24"):
            make(forms.MAX_N + 1)


def test_u_basis_is_solved_once_per_form(monkeypatch):
    solves = []

    def counting_nullspace(*args):
        solves.append(args)
        return rational_nullspace(*args)

    monkeypatch.setattr(forms, "rational_nullspace", counting_nullspace)
    form = HermitianForm(2, 1, Matrix([[0, I], [-I, 0]]), EXPLICIT)
    first, second = u_basis(form), u_basis(form)
    assert len(solves) == 1
    assert first is not second
    assert all(a is b for a, b in zip(first, second, strict=True))


def test_a_dropped_standard_form_is_built_again(monkeypatch):
    form = standard_form(7, 2, "diagonal")
    dropped = weakref.ref(form)
    del form
    gc.collect()
    assert dropped() is None
    certified = []

    def counting_inertia(matrix):
        certified.append(matrix)
        return hermitian_inertia(matrix)

    monkeypatch.setattr(forms, "hermitian_inertia", counting_inertia)
    rebuilt = standard_form(7, 2, "diagonal")
    assert standard_form(7, 2, "diagonal") is rebuilt and len(certified) == 1
    assert (rebuilt.n, rebuilt.m, rebuilt.kind) == (7, 2, "diagonal")
    assert rebuilt.matrix == Matrix([[(1 if i < 5 else -1) if i == j else 0 for j in range(7)]
                                     for i in range(7)])


def test_u_basis_of_a_complex_explicit_form_is_the_nullspace():
    matrix = Matrix([[2, 1 + I, 0],
                     [1 - I, -1, I * 2],
                     [0, -I * 2, Fraction(1, 2)]])
    pos, neg, zero = hermitian_inertia(matrix)
    assert zero == 0
    n, m = 3, min(pos, neg)
    if pos < neg:
        matrix = matrix.scale(-1)
    form = HermitianForm(n, m, matrix, EXPLICIT)
    u_basis(standard_form(n, m, "diagonal"))  # a memo entry of the same signature
    basis = u_basis(form)
    assert basis == u_basis_reference(form) and len(basis) == n * n
    # the complex off-diagonal entries reach the basis: some entry has re and im
    assert any(e.re and e.im for x in basis for row in x.rows for e in row)
    assert all(is_in_lie_algebra(x, form) for x in basis)


@st.composite
def congruent_forms(draw):
    """H = P^* D P, D = diag(+1 x (n-m), -1 x m) and P an invertible
    Gaussian-rational matrix: complex off-diagonal entries, den > 1."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(0, n // 2))
    part = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
    p = Matrix([[GaussianRational(draw(part), draw(part)) for _ in range(n)] for _ in range(n)])
    assume(not p.det().is_zero())
    h = p.conj_transpose() * standard_form(n, m, "diagonal").matrix * p
    assume(h.den > 1 and any(h.im[a * n + b] for a in range(n) for b in range(n) if a != b))
    return HermitianForm(n, m, h, EXPLICIT)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(congruent_forms())
def test_u_basis_of_explicit_congruent_forms(form):
    n = form.n
    directions = [Matrix([[c if (j, k) == (a, b) else 0 for k in range(n)] for j in range(n)])
                  for a in range(n) for b in range(n) for c in (1, I)]
    rows = real_coefficient_rows(invariance_columns(form.inner_poly(), directions))
    assert all(type(x) is int for row in rows for x in row)
    basis = u_basis(form)
    assert basis == u_basis_reference(form)
    assert len(basis) == n * n
    assert all(is_in_lie_algebra(x, form) for x in basis)
    assert sympy_real_rank(basis) == n * n


@pytest.mark.parametrize("n,m,kind", [(n, m, kind) for n in range(1, 7)
                                      for kind in ("diagonal", "antidiagonal")
                                      for m in range(n // 2 + 1)])
def test_u_basis_of_standard_forms_is_the_pseudounitarity_nullspace(n, m, kind):
    form = standard_form(n, m, kind)
    assert u_basis(form) == u_basis_reference(form)


def test_u1_basis():
    form = standard_form(1, 0, "diagonal")
    basis = u_basis(form)
    assert len(basis) == 1
    assert basis[0] in (Matrix([[I]]), Matrix([[-I]]))


def test_listed_antidiagonal_basis_is_valid():
    form = standard_form(2, 1, "antidiagonal")
    listed = [
        Matrix([[I, 0], [0, I]]),
        Matrix([[1, 0], [0, -1]]),
        Matrix([[0, I], [0, 0]]),
        Matrix([[0, 0], [I, 0]]),
    ]
    for x in listed:
        assert is_in_lie_algebra(x, form)
    assert sympy_real_rank(listed) == 4
    assert sympy_real_rank(listed + u_basis(form)) == 4  # same span


def test_lie_closure_under_commutator():
    for kind in ("diagonal", "antidiagonal"):
        form = standard_form(2, 1, kind)
        basis = u_basis(form)
        for x in basis:
            for y in basis:
                assert is_in_lie_algebra(x * y - y * x, form)


def test_pseudounitary_determinant_unimodular():
    rng = random.Random(21)
    for kind, m in (("diagonal", 0), ("antidiagonal", 1)):
        form = standard_form(2, m, kind)
        for _ in range(10):
            u_mat = cayley_pseudounitary(rng, form, sparse=False)
            assert is_pseudounitary(u_mat, form) == 1
            det = u_mat.det()
            assert det * det.conjugate() == GaussianRational(1)


def test_first_order_exponential_defect():
    # (E + tX)^t H conj(E + tX) - H = t (X^t H + H conj X) + O(t^2); the
    # t-linear term must vanish identically for every basis element.
    form = standard_form(3, 1, "antidiagonal")
    for x in u_basis(form):
        linear = x.transpose() * form.matrix + form.matrix * x.conjugate()
        assert linear.is_zero()


def test_form_json_round_trip():
    from crmoser.forms import form_from_json, form_to_json
    for form in (standard_form(3, 1, "antidiagonal"),
                 standard_form(2, 0, "diagonal"),
                 HermitianForm(2, 1, Matrix([[0, I], [-I, 0]]))):
        doc = form_to_json(form)
        back = form_from_json(doc)
        assert back.matrix == form.matrix and back.m == form.m


def test_inner_power_is_the_memoized_power_of_the_inner_poly():
    i = GaussianRational(0, 1)
    explicit = HermitianForm(2, 1, Matrix([[0, i], [-i, 0]]))
    for form in (standard_form(2, 0, "diagonal"), standard_form(3, 1, "antidiagonal"),
                 standard_form(4, 2, "diagonal"), explicit):
        for k in (3, 0, 1, 5, 2):  # out of order: the memo grows on demand
            assert form.inner_power(k) == form.inner_poly().pow(k)
            assert form.inner_power(k) is form.inner_power(k)
    with pytest.raises(ValueError):
        explicit.inner_power(-1)
