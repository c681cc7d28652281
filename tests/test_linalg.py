import random
from fractions import Fraction

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

from helpers import matrix_to_sympy, random_gauss


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


def test_nullspace_vectors_annihilate():
    rng = random.Random(3)
    pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
    for _ in range(10):
        rows = [[rng.choice(pool) for _ in range(6)] for _ in range(4)]
        basis = rational_nullspace([list(r) for r in rows], 6)
        for vec in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        oracle_rank = sympy.Matrix(rows).rank()
        assert len(basis) == 6 - oracle_rank


def test_nullspace_empty_system():
    basis = rational_nullspace([], 3)
    assert basis == [[Fraction(int(i == j)) for i in range(3)] for j in range(3)]
    with pytest.raises(ValueError):
        rational_nullspace([])


entries = st.one_of(
    st.just(0), st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-10**25, 10**25), st.integers(1, 10**22)),
)
factors = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))


@st.composite
def systems(draw):
    """(rows, ncols): a few base rows plus duplicates, nonzero multiples and
    zero rows of them, shuffled, with integral entries as int or Fraction."""
    ncols = draw(st.integers(1, 6))
    base = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=4))
    rows = [list(r) for r in base]
    for row in base:
        for c in draw(st.lists(st.one_of(st.just(1), factors), max_size=2)):
            rows.append([c * e for e in row])
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    rows = draw(st.permutations(rows))
    return [[int(e) if e.denominator == 1 and draw(st.booleans()) else Fraction(e)
             for e in row] for row in rows], ncols


@settings(derandomize=True, deadline=None, max_examples=150)
@given(systems())
def test_nullspace_equals_sympy(system):
    rows, ncols = system
    oracle = sympy.Matrix(len(rows), ncols, [sympy.Rational(e.numerator, e.denominator)
                                             for row in rows for e in row]).nullspace()
    expected = [[Fraction(int(x.p), int(x.q)) for x in vec] for vec in oracle]
    basis = rational_nullspace(rows, ncols)
    assert basis == expected
    assert all(type(x) is Fraction for vec in basis for x in vec)
    if rows:
        assert rational_nullspace(rows) == expected


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
def test_nullspace_of_integer_rows_equals_that_of_fraction_and_mixed_rows(system, data):
    # integer rows take the gcd path of _primitive_row at once; the same
    # system scaled row by row into Fractions, or mixing int and Fraction
    # entries within a row, takes the common-denominator path
    rows, ncols = system
    scales = data.draw(st.lists(factors, min_size=len(rows), max_size=len(rows)))
    scaled = [[Fraction(e) * s for e in row] for row, s in zip(rows, scales)]
    mixed = [[Fraction(e) if data.draw(st.booleans()) else e for e in row] for row in rows]
    basis = rational_nullspace(rows, ncols)
    assert rational_nullspace(scaled, ncols) == basis
    assert rational_nullspace(mixed, ncols) == basis
    assert all(type(x) is Fraction for vec in basis for x in vec)


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
