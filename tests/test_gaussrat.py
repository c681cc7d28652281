import operator
import random
from fractions import Fraction

import pytest

from crmoser.gaussrat import (
    GaussianRational,
    _integer_root,
    format_rational,
    parse_rational,
    rational_root,
    rational_sqrt,
)
from crmoser.linalg import Matrix
from crmoser.poly import Poly


def test_field_axioms_random():
    rng = random.Random(11)
    pool = [Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 7), Fraction(0)]
    for _ in range(200):
        a = GaussianRational(rng.choice(pool), rng.choice(pool))
        b = GaussianRational(rng.choice(pool), rng.choice(pool))
        c = GaussianRational(rng.choice(pool), rng.choice(pool))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a - b) + b == a
        if not b.is_zero():
            assert (a / b) * b == a


def test_conjugation_and_abs2():
    a = GaussianRational(Fraction(3, 2), Fraction(-1, 2))
    assert a.conjugate().conjugate() == a
    assert a.abs2() == Fraction(9, 4) + Fraction(1, 4)
    assert (a * a.conjugate()) == GaussianRational(a.abs2())


def test_division_exact():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    q = a / b
    assert q * b == a
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational(0)


def test_parse_format_round_trip():
    for text in ("3", "-1/2", "0", "7/3"):
        assert format_rational(parse_rational(text)) == text
    with pytest.raises(ValueError):
        parse_rational("0.5")


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(-4)) is None


def test_rational_root():
    assert rational_root(Fraction(27, 8), 3) == Fraction(3, 2)
    assert rational_root(Fraction(16), 4) == 2
    assert rational_root(Fraction(2), 2) is None
    big = Fraction(10**30)
    assert rational_root(big, 2) == 10**15


def test_integer_root_beyond_float_range():
    assert _integer_root(10**400, 2) == 10**200
    assert _integer_root(10**400 + 1, 2) is None
    base = int("9" * 500)
    assert _integer_root(base**3, 3) == base
    assert _integer_root(base**3 - 1, 3) is None
    assert _integer_root(2**4000 * 3**5, 5) == 2**800 * 3
    assert rational_root(Fraction(10**400, 3**600), 2) == Fraction(10**200, 3**300)


def test_integer_root_small_values():
    for k in (1, 2, 3, 4, 7):
        for r in range(40):
            assert _integer_root(r**k, k) == r
            if r > 1 and k > 1:
                assert _integer_root(r**k + 1, k) is None
                assert _integer_root(r**k - 1, k) is None


@pytest.mark.parametrize("text", [
    "1e5", "1e-3", "1_0", " 3 ", "3\n", "1.5", "", "/2", "1/", "1/-2", "++1", "\u0661", "1/0", "-7/00",
])
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_parse_rational_accepts_signed_fractions():
    assert parse_rational("+3") == 3
    assert parse_rational("-0") == 0
    assert parse_rational("6/4") == Fraction(3, 2)
    assert parse_rational("-12/8") == Fraction(-3, 2)


def test_json_round_trip():
    a = GaussianRational(Fraction(-5, 3), Fraction(2))
    assert GaussianRational.from_json(a.to_json()) == a


def test_immutability():
    a = GaussianRational(1)
    with pytest.raises(AttributeError):
        a.re = Fraction(2)


def test_operators_leave_polynomials_and_matrices_to_their_own_operators():
    # a Gaussian rational on the left of a Poly or a Matrix defers to its reflected operator
    p = Poly.z(2, 0)
    i = GaussianRational(0, 1)
    assert i * p == p * i == p.scale(i)
    assert GaussianRational(1) + p == p + 1
    assert GaussianRational(1) - p == 1 - p == Poly.constant(2, 1) - p
    assert i * Matrix.identity(2) == Matrix.identity(2).scale(i)
    for other in (1.5, 2j, "1"):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(i, other)
            with pytest.raises(TypeError):
                op(other, i)
