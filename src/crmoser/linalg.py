"""Exact linear algebra over Q and Q(i).

Small dense matrices with GaussianRational entries (products, inverses,
determinants) plus two rational kernels used throughout the Lie-algebra
computations: the nullspace over Q, by primitive-row dedup + fraction-free
elimination on Python ints, and Hermitian inertia by fraction-free
congruence elimination on Gaussian integers.  Everything is deterministic:
the nullspace basis is read off the unique reduced row echelon form, and
inertia pivots are always chosen at the smallest admissible index.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .gaussrat import GaussianLike, GaussianRational


class SingularMatrixError(ZeroDivisionError):
    pass


class Matrix:
    """Immutable dense matrix of GaussianRational entries."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence[GaussianLike]]):
        conv = tuple(
            tuple(GaussianRational.of(e) for e in row) for row in rows
        )
        if conv and any(len(r) != len(conv[0]) for r in conv):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", conv)
        object.__setattr__(self, "nrows", len(conv))
        object.__setattr__(self, "ncols", len(conv[0]) if conv else 0)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r: int, c: int) -> "Matrix":
        return cls([[0] * c for _ in range(r)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix([
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)
        ])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix([
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)
        ])

    def __neg__(self) -> "Matrix":
        return Matrix([[-e for e in row] for row in self.rows])

    def _same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    def scale(self, c: GaussianLike) -> "Matrix":
        c = GaussianRational.of(c)
        return Matrix([[e * c for e in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in product")
            cols = list(zip(*other.rows))
            return Matrix([
                [_dot(row, col) for col in cols] for row in self.rows
            ])
        return self.scale(other)

    __rmul__ = scale

    def mulvec(self, vec: Sequence[GaussianLike]) -> List[GaussianRational]:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        v = [GaussianRational.of(e) for e in vec]
        return [_dot(row, v) for row in self.rows]

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows))) if self.rows else self

    def conjugate(self) -> "Matrix":
        return Matrix([[e.conjugate() for e in row] for row in self.rows])

    def conj_transpose(self) -> "Matrix":
        return self.transpose().conjugate()

    def det(self) -> GaussianRational:
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        a = [list(row) for row in self.rows]
        n = self.nrows
        det = GaussianRational(1)
        for col in range(n):
            piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
            if piv is None:
                return GaussianRational(0)
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = -det
            det = det * a[col][col]
            inv = GaussianRational(1) / a[col][col]
            for r in range(col + 1, n):
                if a[r][col].is_zero():
                    continue
                f = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] = a[r][c] - f * a[col][c]
        return det

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        a = [list(row) + [GaussianRational(1 if i == j else 0) for j in range(n)]
             for i, row in enumerate(self.rows)]
        for col in range(n):
            piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
            if piv is None:
                raise SingularMatrixError("matrix is singular")
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
            inv = GaussianRational(1) / a[col][col]
            a[col] = [e * inv for e in a[col]]
            for r in range(n):
                if r != col and not a[r][col].is_zero():
                    f = a[r][col]
                    a[r] = [e - f * p for e, p in zip(a[r], a[col])]
        return Matrix([row[n:] for row in a])

    # -- serialization: row-major entries with string rationals -----------------

    def to_json(self) -> list:
        return [[e.to_json() for e in row] for row in self.rows]

    @classmethod
    def from_json(cls, obj) -> "Matrix":
        if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
            raise ValueError(f"a matrix must be a JSON list of rows, got {obj!r}")
        return cls([[GaussianRational.from_json(e) for e in row] for row in obj])

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"

    def __str__(self):
        return "[" + "; ".join(
            " ".join(str(e) for e in row) for row in self.rows
        ) + "]"


def _dot(row, col):
    acc = GaussianRational(0)
    for a, b in zip(row, col):
        if a and b:  # skip the zeros of sparse forms and matrices
            acc = acc + a * b
    return acc


def _primitive_row(row: Sequence[Fraction]) -> Optional[Tuple[int, ...]]:
    """The row scaled to coprime integers with a positive leading entry.

    None for a zero row.  A row of ints, such as every row of
    `real_coefficient_rows`, goes straight to the gcd; a row with a
    Fraction among its entries (which `gcd` refuses) is first brought to
    the least common denominator, read through `.numerator` and
    `.denominator`, so ints and Fractions mix freely.
    """
    try:
        g = gcd(*row)
        ints = row
    except TypeError:
        den = lcm(*[e.denominator for e in row])
        ints = [e.numerator * (den // e.denominator) for e in row]
        g = gcd(*ints)
    if not g:
        return None
    lead = next(x for x in ints if x)
    if lead < 0:
        g = -g
    return tuple([x // g for x in ints]) if g != 1 else tuple(ints)


def _combine(a: int, row: Sequence[int], b: int, other: Sequence[int]) -> List[int]:
    """a*row - b*other with the common factor of a and b taken out first."""
    g = gcd(a, b)
    a //= g
    b //= g
    return [a * x - b * y for x, y in zip(row, other)]


def rational_nullspace(rows: List[List[Fraction]], ncols: Optional[int] = None) -> List[List[Fraction]]:
    """Basis of the kernel of a rational matrix, deterministically ordered.

    Basis vectors carry a 1 in their free column and are listed by
    ascending free-column index; they are read off the reduced row echelon
    form, which is unique, so they do not depend on row order.

    Primitive-row dedup + fraction-free elimination: each nonzero row is
    scaled to coprime integers with a positive leading entry and kept once.
    Gauss-Jordan elimination then runs on Python ints.  A kept row is
    reduced by every pivot row, divided by its gcd and, if it is not zero,
    pivots at its first nonzero column, which is then cleared from the
    earlier pivot rows.  Every pivot row stays zero left of its pivot and
    at the other pivot columns, so pivot row r divided by r[pc] is the
    reduced row echelon row with pivot pc.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty system")
        ncols = len(rows[0])
    distinct = dict.fromkeys(p for p in map(_primitive_row, rows) if p is not None)
    pivots: Dict[int, List[int]] = {}  # pivot column -> primitive integer row
    for row in distinct:
        if len(pivots) == ncols:
            break
        for pc, prow in pivots.items():
            if row[pc]:
                row = _combine(prow[pc], row, row[pc], prow)
        g = gcd(*row)
        if not g:
            continue
        lead = next(c for c, x in enumerate(row) if x)
        if row[lead] < 0:
            g = -g
        row = [x // g for x in row]
        for pc, prow in pivots.items():
            if prow[lead]:
                prow = _combine(row[lead], prow, prow[lead], row)
                g = gcd(*prow)
                pivots[pc] = [x // g for x in prow]
        pivots[lead] = row
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, prow in pivots.items():
            vec[pc] = Fraction(-prow[fc], prow[pc])
        basis.append(vec)
    return basis


def hermitian_inertia(m: Matrix) -> Tuple[int, int, int]:
    """(positive, negative, zero) inertia of a Hermitian matrix.

    Exact congruence diagonalization on Gaussian integers, fraction-free as
    in `rational_nullspace`.  The matrix is scaled by the least common
    denominator of its entries.  A nonzero pivot d on the diagonal (real)
    takes the Schur complement |d| (a_ij - a_ik conj(a_jk) / d), and the
    active block is divided by the gcd of its parts; positive scalings keep
    the inertia.  When the whole active diagonal vanishes, the first nonzero
    off-diagonal entry a_ij is folded in through the basis change
    e_i := e_i + c*e_j with the unit c in {1, i}; the new diagonal value is
    2*Re(conj(c)*a_ij), and one of the two choices of c is always nonzero.
    """
    if not m.is_square():
        raise ValueError("inertia of non-square matrix")
    n = m.nrows
    den = lcm(*[p.denominator for row in m.rows for e in row for p in (e.re, e.im)])
    # entry (i, j) is the Gaussian integer re[i][j] + i*im[i][j]
    re = [[e.re.numerator * (den // e.re.denominator) for e in row] for row in m.rows]
    im = [[e.im.numerator * (den // e.im.denominator) for e in row] for row in m.rows]
    pos = neg = 0
    for k in range(n):
        piv = next((j for j in range(k, n) if re[j][j]), None)
        if piv is None:
            target = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                           if re[i][j] or im[i][j]), None)
            if target is None:
                return pos, neg, n - k
            i, j = target
            cr, ci = (1, 0) if re[i][j] else (0, 1)  # c = cr + i*ci
            for t in range(k, n):  # row i += c row j, on the active block
                re[i][t] += cr * re[j][t] - ci * im[j][t]
                im[i][t] += cr * im[j][t] + ci * re[j][t]
            for t in range(k, n):  # then column i += conj(c) column j
                re[t][i] += cr * re[t][j] + ci * im[t][j]
                im[t][i] += cr * im[t][j] - ci * re[t][j]
            piv = i
        if piv != k:
            _swap_sym(re, k, piv)
            _swap_sym(im, k, piv)
        d = re[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        ad, sign = abs(d), (1 if d > 0 else -1)
        rk = [re[i][k] for i in range(n)]
        ik = [im[i][k] for i in range(n)]
        for i in range(k + 1, n):
            ri, ii = sign * rk[i], sign * ik[i]
            row_re, row_im = re[i], im[i]
            for j in range(k + 1, n):
                # |d| a_ij - sign(d) a_ik conj(a_jk)
                row_re[j] = ad * row_re[j] - (ri * rk[j] + ii * ik[j])
                row_im[j] = ad * row_im[j] - (ii * rk[j] - ri * ik[j])
        g = gcd(*[x for rows in (re, im) for row in rows[k + 1:] for x in row[k + 1:]])
        if g > 1:
            for rows in (re, im):
                for row in rows[k + 1:]:
                    row[k + 1:] = [x // g for x in row[k + 1:]]
    return pos, neg, 0


def _swap_sym(a, i, j):
    n = len(a)
    a[i], a[j] = a[j], a[i]
    for r in range(n):
        a[r][i], a[r][j] = a[r][j], a[r][i]
