"""Hermitian forms of signature (n-m, m) and the Lie algebra u(H).

The two standard shapes are the diagonal form diag(+1 x (n-m), -1 x m) and
the antidiagonal form with an identity block of size n-2m in the middle and
m ones on each side of it.  Explicit Hermitian matrices of the right
signature are accepted as well; the signature is certified by exact
inertia, never numerically.  A form has at most MAX_N variables.

Forms are immutable, so each standard form is built and certified once and
shared: `standard_form` hands out one instance per (n, m, kind) while any
reference to it lives.  Derived data (the inverse matrix, <z,z> and its
powers, u(H), and per weight cap the powers of w = u + i<z,z>, both as
`poly.Powers` chains) is kept in one memo on the form (`HermitianForm.memo`),
so surfaces over one form share it; a power <z,z>^k past MAX_POWER_TERMS
terms, or a chain of them past MAX_MEMO_TERMS terms in all, is refused.
The kernel reads the form and its inverse as Matrix numerators, never
entry by entry.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from math import comb, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .gaussrat import GaussianRational, parse_int
from .linalg import Matrix, hermitian_inertia, rational_nullspace
from .poly import Poly, Powers, ProductSum
from .value import Frozen

DIAGONAL = "diagonal"
ANTIDIAGONAL = "antidiagonal"
EXPLICIT = "explicit"
_I = GaussianRational(0, 1)
MAX_N = 24  # the most variables a form may have (see check_dimension)
MAX_POWER_TERMS = 10 ** 5  # the most terms a power <z,z>^k may have (see inner_power)
MAX_MEMO_TERMS = 25 * 10 ** 4  # the most terms the memo of <z,z>^0..<z,z>^k may hold


class HermitianForm(Frozen):
    """Non-degenerate Hermitian form with signature (n-m, m), n >= 2m; derived data in `memo`."""

    __slots__ = ("n", "m", "kind", "matrix", "_memo", "__weakref__")

    def __init__(self, n: int, m: int, matrix: Matrix, kind: str = EXPLICIT):
        check_dimension(n)
        if m < 0 or n < 2 * m:
            raise ValueError(f"signature parameter must satisfy n >= 2m, got n={n}, m={m}")
        if matrix.nrows != n or matrix.ncols != n:
            raise ValueError("form matrix has wrong size")
        if matrix.transpose() != matrix.conjugate():
            raise ValueError("form matrix is not Hermitian")
        pos, neg, zero = hermitian_inertia(matrix)
        if zero:
            raise ValueError("form matrix is degenerate")
        if (pos, neg) != (n - m, m):
            raise ValueError(
                f"form matrix has signature ({pos},{neg}), expected ({n - m},{m})"
            )
        self._fill(n, m, kind, matrix, {})

    def __eq__(self, other):
        if not isinstance(other, HermitianForm):
            return NotImplemented
        return (self.n, self.m, self.matrix) == (other.n, other.m, other.matrix)

    def __hash__(self):
        return hash((self.n, self.m, self.matrix))

    def __repr__(self):
        return f"HermitianForm(n={self.n}, m={self.m}, kind={self.kind})"

    def memo(self, key, build):
        """The value memoized on the form under `key`, made by `build()` on the first read."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def inverse_matrix(self) -> Matrix:
        return self.memo("inverse", self.matrix.inverse)

    # -- polynomial pairing ---------------------------------------------------

    def inner_poly(self) -> Poly:
        """<z,z> as a bidegree-(1,1) real polynomial, memoized on the form."""
        def build():
            zvars = [Poly.z(self.n, i) for i in range(self.n)]
            return self.pair_polys(zvars, zvars)
        return self.memo("inner", build)

    def inner_power(self, k: int) -> Poly:
        """<z,z>^k for k >= 0 from the form's chain; refused before any product past a limit.

        <z,z> has e terms, one per nonzero entry of H, so <z,z>^k has at most
        C(k+e-1, e-1) terms, exactly that many for a standard form.  The chain
        keeps every power from 0 to k, at most C(k+e, e) terms in all, so a
        power is refused when it passes MAX_POWER_TERMS, or when the chain
        would pass MAX_MEMO_TERMS (n = 1 and 2 allow long chains of small powers).
        """
        if k < 0:
            raise ValueError("negative exponent")
        e = len(self.inner_poly())
        if comb(k + e - 1, e - 1) > MAX_POWER_TERMS:
            raise ValueError(f"<z,z>^{k} has {comb(k + e - 1, e - 1)} terms, more than the "
                             f"limit of {MAX_POWER_TERMS}")
        if comb(k + e, e) > MAX_MEMO_TERMS:
            raise ValueError(f"the powers <z,z>^0..<z,z>^{k} hold {comb(k + e, e)} terms in "
                             f"all, more than the memo limit of {MAX_MEMO_TERMS}")
        return self.memo("inner_powers", lambda: Powers(self.inner_poly())).power(k)

    def pair_polys(self, left: Sequence[Poly], right: Sequence[Poly],
                   max_weight: Optional[int] = None) -> Poly:
        """<left, right> with polynomial entries; the right slot is conjugated.

        The products go into one ProductSum (see ProductSum.add_form).
        """
        total = ProductSum(left[0].n, max_weight)
        total.add_form(self.matrix, left, [p.conjugate() for p in right])
        return total.poly()

    def w_table(self, cap: int) -> Powers:
        """The powers of w = u + i<z,z> capped at weight `cap`, memoized on the form per cap.

        w restricts to u + i<z,z> on the hyperquadric v = <z,z>, and to it
        in the weight identity (see autgroup).
        """
        return self.memo(("w_table", cap), lambda: Powers(w_poly(self.inner_poly()), cap))


def check_dimension(n: int) -> None:
    """ValueError unless 1 <= n <= MAX_N, before anything n x n is built: a stabilizer
    solve has 2n^2 unknowns, and a document states a large n in a few bytes."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds the largest supported dimension {MAX_N}")


def w_poly(v: Poly) -> Poly:
    """w = u + i v for a real polynomial v; on v = <z,z> + F, w is the surface's w."""
    return Poly.u(v.n) + v.scale(_I)


_STANDARD_FORMS = weakref.WeakValueDictionary()  # (n, m, kind) -> HermitianForm


def standard_form(n: int, m: int, kind: str) -> HermitianForm:
    """The diagonal or antidiagonal standard form of signature (n-m, m).

    Returns one shared instance per (n, m, kind) for as long as any
    reference to it lives; it is built and its inertia certified on first
    use only.
    """
    check_dimension(n)
    if kind == DIAGONAL:
        if not 0 <= m <= n:
            raise ValueError("diagonal form needs 0 <= m <= n")
    elif kind == ANTIDIAGONAL:
        if not 0 <= m or n < 2 * m:
            raise ValueError(f"antidiagonal form needs 0 <= m and n >= 2m, got n={n}, m={m}")
    else:
        raise ValueError(f"unknown standard form kind {kind!r}")
    form = _STANDARD_FORMS.get((n, m, kind))
    if form is None:
        if kind == DIAGONAL:
            rows = [[1 if i == j and i < n - m else (-1 if i == j else 0)
                     for j in range(n)] for i in range(n)]
        else:
            rows = [[0] * n for _ in range(n)]
            for i in range(m):
                rows[i][n - 1 - i] = 1
                rows[n - 1 - i][i] = 1
            for i in range(m, n - m):
                rows[i][i] = 1
        form = _STANDARD_FORMS[(n, m, kind)] = HermitianForm(n, m, Matrix(rows), kind)
    return form


def form_from_json(obj: dict) -> HermitianForm:
    n = parse_int(obj["n"], "form field 'n'")
    m = parse_int(obj.get("m", 0), "form field 'm'")
    kind = obj.get("kind", DIAGONAL)
    if kind in (DIAGONAL, ANTIDIAGONAL):
        return standard_form(n, m, kind)
    if kind == EXPLICIT:
        return HermitianForm(n, m, Matrix.from_json(obj["matrix"]), EXPLICIT)
    raise ValueError(f"unknown form kind {kind!r}")


def form_to_json(form: HermitianForm) -> dict:
    obj = {"n": form.n, "m": form.m, "kind": form.kind}
    if form.kind == EXPLICIT:
        obj["matrix"] = form.matrix.to_json()
    return obj


def is_pseudounitary(u_mat: Matrix, form: HermitianForm) -> Optional[int]:
    """+1 if U^t H conj(U) = H, -1 if it equals -H (possible only when n = 2m)."""
    if u_mat.nrows != form.n or u_mat.ncols != form.n:
        raise ValueError("matrix size does not match the form")
    prod = u_mat.transpose() * form.matrix * u_mat.conjugate()
    if prod == form.matrix:
        return 1
    if prod == -form.matrix:
        return -1
    return None


def invariance_rows(p: Poly, directions: Sequence[Tuple[Matrix, Fraction]]) -> List[List[int]]:
    """Integer rows of sum_j x_j C_j = 0 in real unknowns x_j, one per direction (X, rho):

        C = 2 Re sum_jk X_jk z_k dP/dz_j + rho sum_w (w - 2) P_w   (P real, weight parts P_w),

    the derivative at t = 0 of e^{-2 rho t} P(e^{rho t} e^{tX} z, conj, e^{2 rho t} u) by the
    weighted Euler identity, so the kernel is the directions that keep P.  Each half of C
    (`add_form` of X against dP/dz_j and z_k, plus rho/2 times the Euler sum) goes into one
    ProductSum capped at P's top weight, so all share one field width, and is mirrored and
    folded into a key -> (real row, imaginary row) table before the next is built.  The
    columns are brought to one denominator at the end, which keeps the kernel.
    """
    n, ncols = p.n, len(directions)
    dpz = [p.partial("z", j) for j in range(n)]
    zvars = [Poly.z(n, k) for k in range(n)]
    table: Dict[int, Tuple[List[int], List[int]]] = {}
    dens = []
    for j, (x_mat, rho) in enumerate(directions):
        half = ProductSum(n, p.max_weight())
        half.add_form(x_mat, dpz, zvars)
        if rho:
            for w, part in p.weight_decompose().items():
                half.add(part, c=Fraction(w - 2, 2) * rho)
        den, cells = half.real_cells()
        dens.append(den)
        for key, (re, im) in cells.items():
            if re or im:
                cell = table.get(key)
                if cell is None:
                    cell = table[key] = ([0] * ncols, [0] * ncols)
                cell[0][j], cell[1][j] = re, im
    common = lcm(*dens)
    factors = [(j, common // den) for j, den in enumerate(dens) if den != common]
    rows = [row for cell in table.values() for row in cell]
    for row in rows:
        for j, f in factors:
            row[j] *= f
    return rows


def u_basis(form: HermitianForm) -> List[Matrix]:
    """Real basis of u(H): the directions X whose flow keeps <z,z>.

    The kernel of `invariance_rows` over P = <z,z> and the 2n^2 real
    directions (E_ab, 0), (i E_ab, 0) (in that order, a*n + b ascending) always has
    real dimension n^2; there the columns say X^t H + H conj(X) = 0.  The
    even and odd numerators of each kernel vector are the real and
    imaginary numerators of its matrix in row-major order, over the
    vector's denominator.  The solve is memoized on the form, so surfaces
    that share a form share one u(H); every call returns a fresh list of
    the shared, immutable matrices.
    """
    n = form.n

    def solve():
        zero = (0,) * (n * n)
        units = [zero[:e] + (1,) + zero[e + 1:] for e in range(n * n)]
        directions = [(Matrix.from_numerators(n, n, 1, *parts), 0)
                      for unit in units for parts in ((unit, zero), (zero, unit))]
        rows = invariance_rows(form.inner_poly(), directions)
        return tuple(Matrix.from_numerators(n, n, den, nums[0::2], nums[1::2])
                     for den, nums in rational_nullspace(rows, len(directions)))
    return list(form.memo("u_basis", solve))
