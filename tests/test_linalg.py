import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from crmoser.gaussrat import GaussianRational
from crmoser.linalg import (
    Matrix,
    SingularMatrixError,
    hermitian_inertia,
    rational_nullspace,
)

from helpers import gauss_to_sympy, matrix_to_sympy, random_gauss


def random_matrix(rng, n):
    return Matrix([[random_gauss(rng, allow_zero=True) for _ in range(n)]
                   for _ in range(n)])


def test_inverse_round_trip():
    rng = random.Random(1)
    done = 0
    while done < 10:
        m = random_matrix(rng, 3)
        try:
            inv = m.inverse()
        except SingularMatrixError:
            continue
        assert m * inv == Matrix.identity(3)
        assert inv * m == Matrix.identity(3)
        done += 1


def test_det_against_sympy():
    rng = random.Random(2)
    for n in (2, 3):
        for _ in range(8):
            m = random_matrix(rng, n)
            ours = m.det()
            oracle = matrix_to_sympy(m).det()
            assert sympy.Rational(ours.re) + sympy.I * sympy.Rational(ours.im) \
                == sympy.expand(oracle)


def test_singular_matrix_raises():
    m = Matrix([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        m.inverse()
    assert m.det() == GaussianRational(0)


def cleared(row):
    """A rational row times the lcm of its denominators: integers, with the same kernel."""
    den = lcm(*[Fraction(e).denominator for e in row])
    return [int(e * den) for e in row]


def test_nullspace_vectors_annihilate():
    rng = random.Random(3)
    pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
    for _ in range(10):
        rows = [[rng.choice(pool) for _ in range(6)] for _ in range(4)]
        basis = rational_nullspace([cleared(r) for r in rows], 6)
        for den, nums in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, nums)) == 0
        oracle_rank = sympy.Matrix(rows).rank()
        assert len(basis) == 6 - oracle_rank


def test_nullspace_empty_system():
    basis = rational_nullspace([], 3)
    assert basis == [(1, [int(i == j) for i in range(3)]) for j in range(3)]


entries = st.one_of(
    st.just(0), st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-10**25, 10**25), st.integers(1, 10**22)),
)
factors = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))


@st.composite
def systems(draw):
    """(rows, ncols): a few rational base rows plus duplicates, nonzero
    multiples and zero rows of them, shuffled."""
    ncols = draw(st.integers(1, 6))
    base = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=4))
    rows = [list(r) for r in base]
    for row in base:
        for c in draw(st.lists(st.one_of(st.just(1), factors), max_size=2)):
            rows.append([c * e for e in row])
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    return draw(st.permutations(rows)), ncols


@settings(derandomize=True, deadline=None, max_examples=150)
@given(systems())
def test_nullspace_equals_sympy(system):
    # sympy solves the rational rows; rational_nullspace takes each row with
    # its denominators cleared, and gives the same vectors over their least
    # denominators
    rows, ncols = system
    oracle = sympy.Matrix(len(rows), ncols, [sympy.Rational(e.numerator, e.denominator)
                                             for row in rows for e in row]).nullspace()
    expected = []
    for vec in oracle:
        den = lcm(*[int(x.q) for x in vec])
        expected.append((den, [int(x.p) * (den // int(x.q)) for x in vec]))
    basis = rational_nullspace([cleared(r) for r in rows], ncols)
    assert basis == expected
    assert all(type(x) is int for den, nums in basis for x in (den, *nums))


@st.composite
def integer_systems(draw):
    """(rows, ncols): integer rows with zeros, repeats and multiples among them."""
    ncols = draw(st.integers(1, 7))
    ints = st.one_of(st.just(0), st.integers(-6, 6), st.integers(-10**22, 10**22))
    base = draw(st.lists(st.lists(ints, min_size=ncols, max_size=ncols), max_size=6))
    rows = base + [[c * e for e in row] for row in base
                   for c in draw(st.lists(st.integers(-3, 3), max_size=1))]
    return draw(st.permutations(rows)), ncols


@settings(derandomize=True, deadline=None, max_examples=150)
@given(integer_systems(), st.data())
def test_nullspace_is_unchanged_by_scaling_integer_rows(system, data):
    # a nonzero multiple of a row has the same primitive row, and the kernel
    # is read off the unique reduced row echelon form
    rows, ncols = system
    scales = data.draw(st.lists(st.integers(-10**6, 10**6).filter(bool),
                                min_size=len(rows), max_size=len(rows)))
    basis = rational_nullspace(rows, ncols)
    scaled = [[e * s for e in row] for row, s in zip(rows, scales)]
    assert rational_nullspace(scaled, ncols) == basis
    assert all(type(x) is int for den, nums in basis for x in (den, *nums))


def test_inertia_known_matrices():
    assert hermitian_inertia(Matrix.identity(3)) == (3, 0, 0)
    assert hermitian_inertia(Matrix([[1, 0], [0, -1]])) == (1, 1, 0)
    assert hermitian_inertia(Matrix([[0, 1], [1, 0]])) == (1, 1, 0)
    i = GaussianRational(0, 1)
    assert hermitian_inertia(Matrix([[0, i], [-i, 0]])) == (1, 1, 0)
    assert hermitian_inertia(Matrix([[0, 0], [0, 0]])) == (0, 0, 2)
    assert hermitian_inertia(Matrix([[1, 1], [1, 1]])) == (1, 0, 1)


parts = st.one_of(st.just(0), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)),
                 st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**12)))
gaussians = st.builds(GaussianRational, parts, parts)


@st.composite
def hermitian_matrices(draw):
    """Hermitian n x n matrices over Q(i): entrywise random (zero diagonals are
    common), or a sum of r < n signed rank-one terms s v v^*, which is singular."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        a = [[None] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = GaussianRational(draw(parts))
            for j in range(i + 1, n):
                a[i][j] = draw(gaussians)
                a[j][i] = a[i][j].conjugate()
        return Matrix(a)
    a = [[GaussianRational(0)] * n for _ in range(n)]
    for _ in range(draw(st.integers(0, n - 1))):
        s = draw(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
        v = draw(st.lists(gaussians, min_size=n, max_size=n))
        a = [[a[i][j] + v[i] * v[j].conjugate() * s for j in range(n)] for i in range(n)]
    return Matrix(a)


def sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(hermitian_matrices())
def test_inertia_equals_the_sign_changes_of_the_characteristic_polynomial(m):
    # every root of the characteristic polynomial of a Hermitian matrix is
    # real, so Descartes' rule of signs counts the positive and negative ones
    x = sympy.Symbol("x")
    coeffs = [sympy.expand(c) for c in matrix_to_sympy(m).charpoly(x).all_coeffs()]
    assert all(sympy.im(c) == 0 for c in coeffs)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in map(sympy.re, coeffs)]  # x^n first
    zero = 0  # the multiplicity of the root 0
    while zero < m.nrows and coeffs[-1 - zero] == 0:
        zero += 1
    pos = sign_changes(coeffs)
    neg = sign_changes([c * (-1) ** k for k, c in enumerate(reversed(coeffs))])
    assert pos + neg + zero == m.nrows
    assert hermitian_inertia(m) == (pos, neg, zero)


def test_inertia_sylvester_invariance():
    rng = random.Random(5)
    h = Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    base = hermitian_inertia(h)
    done = 0
    while done < 8:
        c = random_matrix(rng, 3)
        try:
            c.inverse()
        except SingularMatrixError:
            continue
        congruent = c.transpose() * h * c.conjugate()
        assert hermitian_inertia(congruent) == base
        done += 1


def test_matrix_json_round_trip():
    rng = random.Random(7)
    m = random_matrix(rng, 2)
    assert Matrix.from_json(m.to_json()) == m
    # an unreduced entry is read to the least denominator
    half = Matrix([[Fraction(1, 2)]])
    assert Matrix.from_json([[{"re": "2/4"}]]) == half
    assert hash(Matrix.from_json([[{"re": "2/4"}]])) == hash(half)


# -- Matrix against sympy over Gaussian rationals with large parts ----------------------


def matrix_of(rows, ncols):
    """The matrix of a list of rows; with no rows, the zero matrix of shape 0 x ncols."""
    return Matrix(rows) if rows else Matrix.zeros(0, ncols)


@st.composite
def matrices(draw, nrows, ncols):
    return matrix_of([[draw(gaussians) for _ in range(ncols)] for _ in range(nrows)], ncols)


@st.composite
def square_matrices(draw):
    """Square matrices of size 0..4; half of them singular: one row a Gaussian
    combination of two others (or zero), rows shuffled."""
    n = draw(st.integers(0, 4))
    rows = [[draw(gaussians) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        c, d = draw(gaussians), draw(gaussians)
        i, j = draw(st.integers(0, max(n - 2, 0))), draw(st.integers(0, max(n - 2, 0)))
        rows[-1] = [c * x + d * y for x, y in zip(rows[i], rows[j])] if n > 1 else [0]
        rows = draw(st.permutations(rows))
    return matrix_of(rows, n)


def assert_equals_sympy(ours: Matrix, theirs):
    assert (ours.nrows, ours.ncols) == theirs.shape
    assert (matrix_to_sympy(ours) - theirs).expand() == sympy.zeros(*theirs.shape)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_product_mulvec_and_conj_transpose_equal_sympy(r, k, c, data):
    a = data.draw(matrices(r, k))
    b = data.draw(matrices(k, c))
    vec = data.draw(st.lists(gaussians, min_size=k, max_size=k))
    sa = matrix_to_sympy(a)
    assert_equals_sympy(a * b, sa * matrix_to_sympy(b))
    column = sympy.Matrix(k, 1, [gauss_to_sympy(x) for x in vec])
    assert_equals_sympy(a * matrix_of([[x] for x in vec], 1), sa * column)
    assert_equals_sympy(a.conj_transpose(), sa.H)
    assert_equals_sympy(a.transpose(), sa.T)
    assert_equals_sympy(a + a.conjugate(), sa + sa.conjugate())


@settings(derandomize=True, deadline=None, max_examples=120)
@given(square_matrices())
def test_det_and_inverse_equal_sympy(m):
    sm = matrix_to_sympy(m)
    det = sympy.expand(sm.det())
    assert gauss_to_sympy(m.det()) == det
    if det == 0:
        with pytest.raises(SingularMatrixError):
            m.inverse()
        return
    inv = m.inverse()
    assert m * inv == Matrix.identity(m.nrows) == inv * m
    assert_equals_sympy(Matrix.identity(m.nrows), sm * matrix_to_sympy(inv))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 10**6), st.data())
def test_equal_matrices_from_different_denominators_are_equal_and_hash_alike(r, c, k, data):
    m = data.draw(matrices(r, c))
    # the same entries with numerator and denominator multiplied by k
    unreduced = [[{part: f"{getattr(e, part).numerator * k}/{getattr(e, part).denominator * k}"
                   for part in ("re", "im")} for e in row] for row in m.rows]
    again = Matrix.from_json(unreduced)
    by_numerators = Matrix.from_numerators(r, c, m.den * k, [x * k for x in m.re],
                                           [x * k for x in m.im])
    assert again == m == by_numerators
    assert hash(again) == hash(m) == hash(by_numerators)
    assert again.den == m.den and again.re == m.re
    assert m.scale(2) != m or m.is_zero()


def test_sums_of_matrices_of_different_shapes_raise():
    a = Matrix.zeros(2, 2)
    for b in (Matrix.zeros(2, 3), Matrix.zeros(3, 2)):  # one dimension differs
        for x, y in ((a, b), (b, a)):
            for op in (Matrix.__add__, Matrix.__sub__):
                with pytest.raises(ValueError, match="shape mismatch"):
                    op(x, y)
            with pytest.raises(ValueError, match="shape mismatch"):
                Matrix.combination(2, (1, 3), (x, y))


def test_sum_difference_and_negation_are_entrywise():
    rng = random.Random(31)
    for _ in range(10):
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        for i in range(3):
            for j in range(3):
                assert (a + b)[i, j] == a[i, j] + b[i, j]
                assert (a - b)[i, j] == a[i, j] - b[i, j]
                assert (-a)[i, j] == -a[i, j]


def test_empty_shapes():
    empty, row = Matrix([]), Matrix([[]])
    assert (empty.nrows, empty.ncols) == (0, 0) and (row.nrows, row.ncols) == (1, 0)
    assert empty == Matrix.identity(0) == Matrix.zeros(0, 0) != row
    assert empty.det() == GaussianRational(1)
    assert empty.inverse() == empty
    assert row.transpose() == Matrix.zeros(0, 1)
    assert row * Matrix.zeros(0, 3) == Matrix.zeros(1, 3)
    assert row * Matrix.zeros(0, 1) == Matrix.zeros(1, 1)
    assert row.conj_transpose().conj_transpose() == row
    with pytest.raises(ValueError):
        row.det()
    assert str(empty) == "[]" and row.to_json() == [[]]


def test_entries_are_built_on_read_and_checked_against_the_shape():
    m = Matrix([[1, GaussianRational(0, Fraction(1, 2))], [3, 0]])
    assert m[0, 1] == GaussianRational(0, Fraction(1, 2)) and m[1, 1] == 0
    assert m.rows == ((1, GaussianRational(0, Fraction(1, 2))), (3, 0))
    for i, j in ((2, 0), (0, 2), (-1, 0), (0, -1)):
        with pytest.raises(IndexError):
            m[i, j]
