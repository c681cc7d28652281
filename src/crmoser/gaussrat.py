"""Exact Gaussian-rational scalars.

Coefficients throughout the library are elements of Q(i): complex numbers
whose real and imaginary parts are `fractions.Fraction` values.  All
arithmetic is exact; there is no floating-point mode anywhere.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .value import Frozen

RationalLike = Union[int, Fraction]

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse a 'p/q' or 'p' string of ASCII digits with an optional sign."""
    return Fraction(*rational_parts(text))


def rational_parts(text: str) -> Tuple[int, int]:
    """(p, q) of a 'p/q' or 'p' string, q > 0 and not reduced; see parse_rational."""
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ValueError(f"rational must be a decimal-free string 'p' or 'p/q', got {text!r}")
    num, _, den = text.partition("/")
    if den and not int(den):
        raise ValueError(f"rational has a zero denominator: {text!r}")
    return int(num), int(den or 1)


def gaussian_parts(obj) -> Tuple[int, int, int, int]:
    """(re p, re q, im p, im q) of a JSON {"re", "im"} object; see rational_parts."""
    if not isinstance(obj, dict):
        raise ValueError(f"a Gaussian rational must be a JSON object, got {obj!r}")
    return (*rational_parts(obj.get("re", "0")), *rational_parts(obj.get("im", "0")))


def scalar_parts(value) -> Tuple[int, int, int, int]:
    """(re p, re q, im p, im q) of an int, a Fraction or a GaussianRational; see gaussian_parts."""
    if isinstance(value, GaussianRational):
        re, im = value.re, value.im
        return re.numerator, re.denominator, im.numerator, im.denominator
    if isinstance(value, int):
        return value, 1, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator, 0, 1
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _over_one_den(parts: Sequence[Tuple[int, int, int, int]]) -> Tuple[int, List[int], List[int]]:
    """(den, re, im): scalar_parts as Gaussian-integer numerators over their least common den."""
    den = math.lcm(*[d for _rn, rd, _in, idn in parts for d in (rd, idn)])
    return (den, [rn * (den // rd) for rn, rd, _in, _idn in parts],
            [inum * (den // idn) for _rn, _rd, inum, idn in parts])


def parse_int(value, field: str) -> int:
    """An integer document field: a JSON integer or a string of ASCII digits.

    Anything else, `null`, booleans and floats included, raises ValueError
    naming the field.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INTEGER.fullmatch(value):
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")


def format_rational(value: Fraction) -> str:
    """Reduced decimal-free string: '3', '-1/2'."""
    return str(value)


def rational_sqrt(value: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, or None if irrational."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def rational_root(value: Fraction, k: int) -> Optional[Fraction]:
    """Exact k-th root of a positive rational, or None if irrational."""
    if k <= 0:
        raise ValueError("root index must be positive")
    if value <= 0:
        return None
    num, den = value.numerator, value.denominator
    rn = _integer_root(num, k)
    rd = _integer_root(den, k)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _integer_root(n: int, k: int) -> Optional[int]:
    """The exact k-th root of a non-negative integer n, or None."""
    if k == 1 or n < 2:
        return n
    if k == 2:
        r = math.isqrt(n)
    else:
        # integer Newton iteration from above: r decreases to floor(n^(1/k))
        r = 1 << -(-n.bit_length() // k)
        while True:
            s = ((k - 1) * r + n // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
    return r if r ** k == n else None


_FRACTION_ZERO = Fraction(0)


def _exact_operand(op):
    """op(self, other) for an exact scalar other, else NotImplemented (a Poly or Matrix answers)."""
    @functools.wraps(op)
    def operator(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        elif not isinstance(other, GaussianRational):
            return NotImplemented
        return op(self, other)
    return operator


class GaussianRational(Frozen):
    """Immutable exact complex number re + im*i with rational parts.

    A zero part is stored as one shared Fraction(0), so the many real or
    purely imaginary scalars a computation keeps hold no zero of their own.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        re = as_fraction(re)
        im = as_fraction(im)
        _set_re(self, re if re else _FRACTION_ZERO)
        _set_im(self, im if im else _FRACTION_ZERO)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def of(value: "GaussianLike") -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(as_fraction(value))

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    # -- algebra ---------------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2, always an exact rational."""
        return self.re * self.re + self.im * self.im

    @_exact_operand
    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    @_exact_operand
    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    @_exact_operand
    def __rsub__(self, other):
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    @_exact_operand
    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    @_exact_operand
    def __truediv__(self, other):
        d = other.abs2()
        if not d:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    @_exact_operand
    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    __hash__ = Frozen.__hash__

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return format_rational(self.re)
        if not self.re:
            return f"{format_rational(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}i"

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im)}

    @staticmethod
    def from_json(obj: dict) -> "GaussianRational":
        rn, rd, inum, idn = gaussian_parts(obj)
        return GaussianRational(Fraction(rn, rd), Fraction(inum, idn))


_set_re, _set_im = GaussianRational._setters

GaussianLike = Union[int, Fraction, GaussianRational]

ZERO = GaussianRational(0)
