"""Exact linear algebra over Q and Q(i).

Small dense matrices over Q(i), stored as Gaussian integers over one
denominator the way a packed Poly is (products, and determinants and
inverses by fraction-free elimination over Z[i]), plus two kernels of the
Lie-algebra computations: the nullspace of an integer matrix as integer
vectors over one denominator each, by primitive-row dedup + fraction-free
elimination on Python ints, and Hermitian inertia by fraction-free
congruence elimination on Gaussian integers.  Everything is deterministic:
the nullspace basis is read off the unique reduced row echelon form, and
pivots are always chosen at the smallest admissible index.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .gaussrat import (
    ZERO,
    GaussianLike,
    GaussianRational,
    _over_one_den,
    gaussian_parts,
    scalar_parts,
)
from .value import Frozen

Parts = Tuple[int, int, int, int]  # re numerator, re denominator, im numerator, im denominator


class SingularMatrixError(ZeroDivisionError):
    pass


def _gauss(re: int, im: int, den: int) -> GaussianRational:
    return GaussianRational(Fraction(re, den), Fraction(im, den)) if re or im else ZERO


class Matrix(Frozen):
    """Immutable dense matrix over Q(i), stored like a packed Poly.

    Entry (i, j) is (re[k] + i*im[k]) / den, k = i*ncols + j: `re` and `im`
    are tuples of integer numerators in row-major order over their least
    positive common denominator `den`, so `==` and `hash` compare integers.
    Arithmetic, and every reader in the kernel, runs on the numerators.  A
    GaussianRational is built only when an entry is read, one by `m[i, j]`
    and all of them by `rows` (for `to_json` and `str`); none is kept.
    """

    __slots__ = ("nrows", "ncols", "den", "re", "im")

    def __init__(self, rows: Sequence[Sequence[GaussianLike]]):
        self._fill_rows([[scalar_parts(e) for e in row] for row in rows])

    def _fill_rows(self, rows: List[List[Parts]]) -> None:
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        self._store(len(rows), ncols, *_over_one_den([p for row in rows for p in row]))

    def _store(self, nrows: int, ncols: int, den: int, re, im) -> None:
        """Store numerators re, im over den > 0, brought to the least denominator."""
        g = gcd(den, *re, *im)
        if g != 1:
            den //= g
            re = [x // g for x in re]
            im = [x // g for x in im]
        self._fill(nrows, ncols, den, tuple(re), tuple(im))

    @classmethod
    def from_numerators(cls, nrows: int, ncols: int, den: int, re, im) -> "Matrix":
        """The matrix of row-major numerators re, im over den > 0 (see the class)."""
        m = object.__new__(cls)
        m._store(nrows, ncols, den, re, im)
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_numerators(n, n, 1, [int(i == j) for i in range(n) for j in range(n)],
                                   [0] * (n * n))

    @classmethod
    def zeros(cls, r: int, c: int) -> "Matrix":
        return cls.from_numerators(r, c, 1, [0] * (r * c), [0] * (r * c))

    @classmethod
    def combination(cls, den: int, coeffs: Sequence[int], mats: Sequence["Matrix"]) -> "Matrix":
        """sum_i (coeffs[i] / den) mats[i]: integer coefficients over den > 0, one per matrix."""
        if len(coeffs) != len(mats) or not mats:
            raise ValueError("a combination needs one coefficient per matrix, and a matrix")
        terms = [(c, m) for c, m in zip(coeffs, mats) if c]
        common = lcm(*[m.den for _c, m in terms])
        re, im = [0] * len(mats[0].re), [0] * len(mats[0].re)
        for c, m in terms:
            mats[0]._same_shape(m)
            f = c * (common // m.den)
            for k, (x, y) in enumerate(zip(m.re, m.im)):
                if x or y:
                    re[k] += f * x
                    im[k] += f * y
        return cls.from_numerators(mats[0].nrows, mats[0].ncols, den * common, re, im)

    @classmethod
    def blocks(cls, grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """The matrix of a grid of blocks, read off their numerators over one least denominator.

        The blocks of one grid row share their row count; all grid rows are equally wide.
        """
        ncols = sum(b.ncols for b in grid[0])
        rows = []
        for row in grid:
            if any(b.nrows != row[0].nrows for b in row) or sum(b.ncols for b in row) != ncols:
                raise ValueError("blocks do not fit")
            parts = [(b.den, *b._int_rows()) for b in row]
            for i in range(row[0].nrows):
                rows.append([(x, d, y, d) for d, re, im in parts for x, y in zip(re[i], im[i])])
        return cls.from_numerators(len(rows), ncols, *_over_one_den([p for r in rows for p in r]))

    def block(self, rows: range, cols: range) -> "Matrix":
        """The submatrix of the given rows and columns, on the numerators; IndexError outside."""
        re, im = self._int_rows()
        return Matrix.from_numerators(len(rows), len(cols), self.den,
                                      [re[i][j] for i in rows for j in cols],
                                      [im[i][j] for i in rows for j in cols])

    def __getitem__(self, ij) -> GaussianRational:
        i, j = ij
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.nrows}x{self.ncols} matrix")
        k = i * self.ncols + j
        return _gauss(self.re[k], self.im[k], self.den)

    @property
    def rows(self) -> Tuple[Tuple[GaussianRational, ...], ...]:
        """The entries row by row, built on each read; zeros share one object."""
        c, den = self.ncols, self.den
        return tuple(tuple(_gauss(self.re[k], self.im[k], den) for k in range(i * c, i * c + c))
                     for i in range(self.nrows))

    def _int_rows(self) -> Tuple[List[List[int]], List[List[int]]]:
        """The rows of the numerators (re, im), as lists the caller may change."""
        c = self.ncols
        return ([list(self.re[i * c:i * c + c]) for i in range(self.nrows)],
                [list(self.im[i * c:i * c + c]) for i in range(self.nrows)])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return not any(self.re) and not any(self.im)

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix.combination(1, (1, 1), (self, other))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix.combination(1, (1, -1), (self, other))

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def _same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    def scale(self, c: GaussianLike) -> "Matrix":
        cd, (cr,), (ci,) = _over_one_den([scalar_parts(c)])
        return Matrix.from_numerators(self.nrows, self.ncols, self.den * cd,
                                      [x * cr - y * ci for x, y in zip(self.re, self.im)],
                                      [x * ci + y * cr for x, y in zip(self.re, self.im)])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        m, p = self.ncols, other.ncols
        bre, bim = other.re, other.im
        re, im = [0] * (self.nrows * p), [0] * (self.nrows * p)
        for k, (ar, ai) in enumerate(zip(self.re, self.im)):
            if ar or ai:  # skip the zeros of sparse forms and matrices
                out = (k // m) * p
                row = (k % m) * p
                for j in range(p):
                    br, bi = bre[row + j], bim[row + j]
                    if br or bi:
                        re[out + j] += ar * br - ai * bi
                        im[out + j] += ar * bi + ai * br
        return Matrix.from_numerators(self.nrows, p, self.den * other.den, re, im)

    __rmul__ = scale

    def transpose(self) -> "Matrix":
        r, c = self.nrows, self.ncols
        order = [i * c + j for j in range(c) for i in range(r)]
        return Matrix.from_numerators(c, r, self.den, [self.re[k] for k in order],
                                      [self.im[k] for k in order])

    def conjugate(self) -> "Matrix":
        return Matrix.from_numerators(self.nrows, self.ncols, self.den, self.re,
                                      [-x for x in self.im])

    def conj_transpose(self) -> "Matrix":
        return self.transpose().conjugate()

    def det(self) -> GaussianRational:
        """The determinant, by Bareiss's fraction-free elimination over Z[i].

        The numerators form N = den A; the last pivot of `_eliminate` is
        +-det N = +-den^n det A, the sign that of the row swaps.
        """
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        re, im = self._int_rows()
        last = _eliminate(re, im, self.nrows, jordan=False)
        if last is None:
            return ZERO
        dr, di, sign = last
        return _gauss(sign * dr, sign * di, self.den ** self.nrows)

    def inverse(self) -> "Matrix":
        """The inverse, by fraction-free Gauss-Jordan elimination over Z[i].

        `_eliminate` turns [N | E], N = den A, into [d E | R] with d its last
        pivot and N R = d E, so A^-1 = den R / d = den R conj(d) / |d|^2, one
        denominator for all entries.
        """
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        re, im = self._int_rows()
        for i in range(n):
            re[i] += [int(i == j) for j in range(n)]
            im[i] += [0] * n
        last = _eliminate(re, im, n, jordan=True)
        if last is None:
            raise SingularMatrixError("matrix is singular")
        dr, di, _sign = last
        f = self.den
        pairs = [(re[i][j], im[i][j]) for i in range(n) for j in range(n, 2 * n)]
        return Matrix.from_numerators(n, n, dr * dr + di * di,
                                      [f * (x * dr + y * di) for x, y in pairs],
                                      [f * (y * dr - x * di) for x, y in pairs])

    # -- serialization: row-major entries with string rationals -----------------

    def to_json(self) -> list:
        return [[e.to_json() for e in row] for row in self.rows]

    @classmethod
    def from_json(cls, obj) -> "Matrix":
        """The matrix of a JSON list of rows of {"re", "im"} objects, read straight to integers."""
        if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
            raise ValueError(f"a matrix must be a JSON list of rows, got {obj!r}")
        m = object.__new__(cls)
        m._fill_rows([[gaussian_parts(e) for e in row] for row in obj])
        return m

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"

    def __str__(self):
        return "[" + "; ".join(
            " ".join(str(e) for e in row) for row in self.rows
        ) + "]"


def _eliminate(re: List[List[int]], im: List[List[int]], n: int,
               jordan: bool) -> Optional[Tuple[int, int, int]]:
    """Bareiss's fraction-free elimination of columns 0..n-1 over Z[i], in place.

    re and im hold a Gaussian-integer matrix of n rows and at least n
    columns.  Step k swaps up the first row at or below k with a nonzero
    entry p in column k, the pivot, and replaces each entry (i, j), j > k,
    of the rows below (with `jordan`, of all other rows) by
    (p a_ij - a_ik a_kj) / q, q the previous pivot (1 at first): a minor,
    so the division is exact.  The pivots of earlier rows are left as they
    are (each would end as the last pivot).  Returns the last pivot's
    (re, im) and the sign of the row permutation, or None when a column
    has no pivot.
    """
    width = len(re[0]) if n else 0
    qr, qi, sign = 1, 0, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if re[r][k] or im[r][k]), None)
        if piv is None:
            return None
        if piv != k:
            re[k], re[piv] = re[piv], re[k]
            im[k], im[piv] = im[piv], im[k]
            sign = -sign
        kre, kim = re[k], im[k]
        pr, pi = kre[k], kim[k]
        norm = qr * qr + qi * qi
        for i in range(0 if jordan else k + 1, n):
            if i == k:
                continue
            ire, iim = re[i], im[i]
            cr, ci = ire[k], iim[k]
            for j in range(k + 1, width):
                # (p a_ij - c a_kj) conj(q) / |q|^2
                tr = pr * ire[j] - pi * iim[j] - cr * kre[j] + ci * kim[j]
                ti = pr * iim[j] + pi * ire[j] - cr * kim[j] - ci * kre[j]
                ire[j] = (tr * qr + ti * qi) // norm
                iim[j] = (ti * qr - tr * qi) // norm
            ire[k] = iim[k] = 0
        qr, qi = pr, pi
    return qr, qi, sign


def _primitive_row(row: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """The integer row divided by its gcd, signed for a positive leading entry; None for zero."""
    g = gcd(*row)
    if not g:
        return None
    lead = next(x for x in row if x)
    if lead < 0:
        g = -g
    return tuple([x // g for x in row]) if g != 1 else tuple(row)


def _combine(a: int, row: Sequence[int], b: int, other: Sequence[int]) -> List[int]:
    """a*row - b*other with the common factor of a and b taken out first."""
    g = gcd(a, b)
    a //= g
    b //= g
    return [a * x - b * y for x, y in zip(row, other)]


def rational_nullspace(rows: Sequence[Sequence[int]], ncols: int) -> List[Tuple[int, List[int]]]:
    """Basis of the kernel of an integer matrix with ncols columns, deterministically ordered.

    Each basis vector is (den, nums): integer numerators over their least
    positive denominator, with nums[fc] == den at the vector's free column
    fc.  The vectors are listed by ascending free column; they are read off
    the reduced row echelon form, which is unique, so they do not depend on
    row order, and scaling a row by a nonzero integer changes none of them.

    Primitive-row dedup + fraction-free elimination: each nonzero row is
    divided by its gcd, signed for a positive leading entry, and kept once.
    Gauss-Jordan elimination then runs on Python ints.  A kept row is
    reduced by every pivot row, divided by its gcd and, if it is not zero,
    pivots at its first nonzero column, which is then cleared from the
    earlier pivot rows.  Every pivot row stays zero left of its pivot and
    at the other pivot columns, so pivot row r divided by r[pc] > 0 is the
    reduced row echelon row with pivot pc.
    """
    distinct = dict.fromkeys(p for p in map(_primitive_row, rows) if p is not None)
    pivots: Dict[int, List[int]] = {}  # pivot column -> primitive integer row
    for row in distinct:
        if len(pivots) == ncols:
            break
        for pc, prow in pivots.items():
            if row[pc]:
                row = _combine(prow[pc], row, row[pc], prow)
        row = _primitive_row(row)
        if row is None:
            continue
        lead = next(c for c, x in enumerate(row) if x)
        for pc, prow in pivots.items():
            if prow[lead]:
                # prow leads at pc < lead with a positive entry, which the combination keeps
                pivots[pc] = _primitive_row(_combine(row[lead], prow, prow[lead], row))
        pivots[lead] = row
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        # entry pc is -prow[fc] / prow[pc]; den is the lcm of their reduced denominators
        den = lcm(*[prow[pc] // gcd(prow[fc], prow[pc]) for pc, prow in pivots.items()])
        nums = [0] * ncols
        nums[fc] = den
        for pc, prow in pivots.items():
            nums[pc] = -prow[fc] * den // prow[pc]
        basis.append((den, nums))
    return basis


def hermitian_inertia(m: Matrix) -> Tuple[int, int, int]:
    """(positive, negative, zero) inertia of a Hermitian matrix.

    Exact congruence diagonalization on Gaussian integers, fraction-free as
    in `rational_nullspace`, run on the numerators of the matrix (positive
    multiples of its entries).  A nonzero pivot d on the diagonal (real)
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
    re, im = m._int_rows()  # entry (i, j) is re[i][j] + i*im[i][j], times den
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
