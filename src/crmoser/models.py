"""Model hypersurfaces and the triangular matrix group S.

S sits inside the pseudounitary group of the antidiagonal form and is
parametrized by (mu, c, x, A):

        [ mu   -mu conj(x)^T H' A   c      ]
        [ 0     A                   x      ]
        [ 0     0                   1/conj(mu) ]

with A pseudounitary for the central block H' of the antidiagonal form and
2 Re(c/mu) + x^T H' conj(x) = 0.  Its Lie algebra has dimension n^2-2n+3,
which is exactly the second-largest stability dimension for m >= 1.

The model constructors build the three families of the classification:

  * umbilic:    F = sum C_{kr} u^r <z,z>^k, k >= 4          (dimension n^2)
  * theorem1:   F = sum C u^r |z_1|^{2p} <z,z>^q, m = 0     (n^2 - 2n + 2)
  * theorem2:   F = sum C u^r |z_n|^{2p} <z,z>^q, m >= 1,
                (r+q-1)/p = s fixed rational >= -1/2        (n^2 - 2n + 3)

and corollary2 is theorem2 with the single term +-|z_n|^4 (s = -1/2).

Maps z -> |mu|^{1/(s+1)} U z with U in S are automorphisms of the theorem2
models; the scale is generally irrational, so it is carried symbolically
as the pair (|mu|^2, 1/(2(s+1))) and invariance is decided by exponent
arithmetic, never numerically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .autgroup import stabilizer_algebra
from .forms import (
    ANTIDIAGONAL,
    DIAGONAL,
    HermitianForm,
    is_pseudounitary,
    standard_form,
    u_basis,
)
from .gaussrat import GaussianLike, GaussianRational, as_fraction, parse_int, rational_root
from .linalg import Matrix, rational_nullspace
from .normal_form import Hypersurface, check_normal_form, is_function_of_form_and_u
from .poly import Poly, ProductSum
from .value import Frozen

CASE_FULL = "FULL"
CASE_T1 = "T1_CASE"
CASE_T2 = "T2_CASE"
CASE_OTHER = "OTHER"


class ModelError(ValueError):
    """Invalid parameters for a model constructor or group element."""


def _check_s_signature(n: int, m: int) -> None:
    """ModelError unless S is defined for the signature (n-m, m)."""
    if m < 1 or n < 2 * m:
        raise ModelError(f"S is defined for m >= 1 and n >= 2m, got ({n},{m})")


def _check_s(s) -> Fraction:
    """s as a Fraction; ModelError unless s >= -1/2."""
    s = as_fraction(s)
    if s < Fraction(-1, 2):
        raise ModelError("s must be a rational >= -1/2")
    return s


def _central_form(n: int, m: int) -> Optional[HermitianForm]:
    """H': the antidiagonal form with first and last rows/columns removed."""
    if n < 2:
        raise ModelError("the group S needs n >= 2")
    _check_s_signature(n, m)
    if n == 2:
        return None
    return standard_form(n - 2, m - 1, ANTIDIAGONAL)


class SElement(Frozen):
    """Parameters (mu, c, x, A) of an element of S for signature (n-m, m)."""

    __slots__ = ("n", "m", "mu", "c", "x", "A")

    def __init__(self, n: int, m: int, mu: GaussianRational, c: GaussianRational,
                 x: Tuple[GaussianRational, ...], A: Matrix):
        mu = GaussianRational.of(mu)
        c = GaussianRational.of(c)
        x = tuple(GaussianRational.of(v) for v in x)
        hp = _central_form(n, m)
        if mu.is_zero():
            raise ModelError("mu must be nonzero")
        if len(x) != n - 2:
            raise ModelError(f"x must have length n-2 = {n - 2}")
        if A.nrows != n - 2 or A.ncols != n - 2:
            raise ModelError(f"A must be {n - 2}x{n - 2}")
        if hp is not None and is_pseudounitary(A, hp) != 1:
            raise ModelError("A is not pseudounitary for the central block")
        # 2 Re(c/mu) + x^T H' conj(x) as 1 x 1 matrices, on integer numerators
        c_mu = Matrix([[c]]) * Matrix([[mu]]).inverse()
        x_row = Matrix([x])
        xhx = x_row * hp.matrix * x_row.conj_transpose() if hp is not None else Matrix.zeros(1, 1)
        if not (c_mu + c_mu.conjugate() + xhx).is_zero():
            raise ModelError(
                "corner constraint 2Re(c/mu) + x^T H' conj(x) = 0 violated")
        self._fill(n, m, mu, c, x, A)

    @property
    def mu_abs2(self) -> Fraction:
        return self.mu.abs2()

    @classmethod
    def from_json(cls, obj: dict) -> "SElement":
        if not isinstance(obj, dict) or not isinstance(obj.get("x", []), list):
            raise ValueError("an S element must be a JSON object whose 'x' is a list")
        n = parse_int(obj["n"], "element field 'n'")
        return cls(
            n=n,
            m=parse_int(obj["m"], "element field 'm'"),
            mu=GaussianRational.from_json(obj["mu"]),
            c=GaussianRational.from_json(obj.get("c", {"re": "0", "im": "0"})),
            x=tuple(GaussianRational.from_json(v) for v in obj.get("x", [])),
            A=Matrix.from_json(obj["A"]) if obj.get("A") else Matrix.identity(n - 2),
        )


def s_to_matrix(element: SElement) -> Matrix:
    """Assemble the n x n matrix of an S element from its blocks' numerators."""
    n, a_mat = element.n, element.A
    mu, x_row = Matrix([[element.mu]]), Matrix([element.x])
    top = Matrix.zeros(1, 0)
    if n > 2:  # -mu conj(x)^T H' A
        top = -mu * x_row.conjugate() * _central_form(n, element.m).matrix * a_mat
    return Matrix.blocks([[mu, top, Matrix([[element.c]])],
                          [Matrix.zeros(n - 2, 1), a_mat, x_row.transpose()],
                          [Matrix.zeros(1, n - 1), mu.conjugate().inverse()]])


def s_decompose(u_mat: Matrix, m: int) -> Optional[SElement]:
    """Recover the (mu, c, x, A) parameters, or None if U is not in S.

    The parameters are read off U, and U is in S exactly when they make an
    element whose matrix is U: that equality also fixes the zero pattern
    and the corner 1/conj(mu).
    """
    n = u_mat.nrows
    if not u_mat.is_square() or n < 2:
        return None
    inner = range(1, n - 1)
    try:
        element = SElement(n=n, m=m, mu=u_mat[0, 0], c=u_mat[0, n - 1],
                           x=tuple(u_mat[i, n - 1] for i in inner),
                           A=u_mat.block(inner, inner))
    except ModelError:
        return None
    if s_to_matrix(element) != u_mat:
        return None
    return element


def is_in_S(u_mat: Matrix, m: int) -> bool:
    return s_decompose(u_mat, m) is not None


def s_dimension(n: int, m: int) -> int:
    """Dimension of the Lie algebra of S by exact nullspace computation.

    Tangent vectors are the X in u(H), H the antidiagonal form, with the
    upper-triangular zero pattern of S: column 1 below the diagonal and row
    n left of it vanish.  The unknowns are the n^2 real coordinates of X
    over the memoized u_basis, and each zero-pattern cell gives one row of
    the basis matrices' real numerators there and one of their imaginary
    numerators; a basis matrix's denominator only rescales its coordinate.
    Pseudounitarity pairs entry (a,b) with entry (n+1-b, n+1-a), so this
    system carries exactly the A-block condition and the differentiated
    corner constraint Re(dc) = 0.
    """
    _check_s_signature(n, m)
    basis = u_basis(standard_form(n, m, ANTIDIAGONAL))
    # row-major indices: column 1 below the diagonal, then the rest of row n left of it
    cells = [i * n for i in range(1, n)] + [(n - 1) * n + j for j in range(1, n - 1)]
    rows = [[x.re[k] for x in basis] for k in cells] + [[x.im[k] for x in basis] for k in cells]
    return len(rational_nullspace(rows, n * n))


def s_named_subgroup(kind: str, n: int, m: int,
                     t: Optional[GaussianLike] = None,
                     c: Optional[GaussianLike] = None,
                     x: Optional[Sequence[GaussianLike]] = None) -> SElement:
    """A point of one of the named subgroups of S.

    I: unimodular mu via the Cayley parametrization mu = (1-t^2+2it)/(1+t^2),
       x = 0, A = E (t rational).
    J: mu = 1, A = E, data (c, x) subject to the corner constraint.
    K: mu = t > 0 rational, c = 0, x = 0, A = E.
    """
    ident = Matrix.identity(n - 2)
    zero_x = (0,) * (n - 2)
    if kind == "K":
        tv = as_fraction(t)
        if tv <= 0:
            raise ModelError("K needs a positive rational parameter")
        return SElement(n=n, m=m, mu=tv, c=0, x=zero_x, A=ident)
    if kind == "I":
        tv = as_fraction(t)
        den = 1 + tv * tv
        mu = GaussianRational((1 - tv * tv) / den, 2 * tv / den)
        return SElement(n=n, m=m, mu=mu, c=0, x=zero_x, A=ident)
    if kind == "J":
        return SElement(n=n, m=m, mu=1, c=0 if c is None else c,
                        x=zero_x if x is None else x, A=ident)
    raise ModelError(f"unknown subgroup kind {kind!r}")


# -- model constructors ---------------------------------------------------------


def _as_coeff(value) -> Fraction:
    if isinstance(value, GaussianRational):
        if not value.is_real():
            raise ModelError("model coefficients must be real rationals")
        return value.re
    return as_fraction(value)


def _clean(coeffs: Mapping[tuple, object]) -> Dict[tuple, Fraction]:
    """The nonzero coefficients as rationals; ModelError when none is left."""
    clean = {key: _as_coeff(val) for key, val in coeffs.items()}
    clean = {key: val for key, val in clean.items() if val}
    if not clean:
        raise ModelError("at least one coefficient must be nonzero")
    return clean


def _family(form: HermitianForm, idx: int, terms) -> Poly:
    """sum C u^r |z_idx|^{2p} <z,z>^q over the ((r, p, q), C) of terms, in one ProductSum."""
    n = form.n
    total = ProductSum(n)
    for (r, p, q), c in terms:
        zp = tuple(p if i == idx else 0 for i in range(n))
        total.add(Poly.monomial(n, zp, zp, r), form.inner_power(q), c)
    return total.poly()


def model_umbilic(n: int, m: int, kind: str,
                  coeffs: Mapping[Tuple[int, int], object]) -> Hypersurface:
    """v = <z,z> + sum_{k>=4} C_{kr} u^r <z,z>^k; stability dimension n^2."""
    form = standard_form(n, m, kind)
    clean = _clean(coeffs)
    for (k, r) in clean:
        if k < 4:
            raise ModelError(
                f"power k={k} < 4: the trace conditions force F_22 = F_33 = 0")
        if r < 0:
            raise ModelError("u-power must be non-negative")
    f_poly = _family(form, 0, [((r, 0, k), c) for (k, r), c in clean.items()])
    return Hypersurface(form, f_poly, max(2 * k + 2 * r for k, r in clean))


def model_theorem1(n: int, coeffs: Mapping[Tuple[int, int, int], object]) -> Hypersurface:
    """v = sum |z_a|^2 + sum C_{pqr} u^r |z_1|^{2p} <z,z>^q, m = 0.

    Keys are (p, q, r); every key needs p+q >= 4 and at least one nonzero
    coefficient must have p >= 1 (otherwise the surface is in the umbilic
    family).  Stability dimension n^2 - 2n + 2 = 1 + (n-1)^2.
    """
    form = standard_form(n, 0, DIAGONAL)
    clean = _clean(coeffs)
    for (p, q, r) in clean:
        if p < 0 or q < 0 or r < 0:
            raise ModelError("exponents must be non-negative")
        if p + q < 4:
            raise ModelError(f"key (p={p}, q={q}): p+q >= 4 is required")
    if not any(p >= 1 for (p, q, r) in clean):
        raise ModelError("some nonzero coefficient must have p >= 1")
    f_poly = _family(form, 0, [((r, p, q), c) for (p, q, r), c in clean.items()])
    return Hypersurface(form, f_poly, max(2 * (p + q + r) for p, q, r in clean))


def model_theorem2(n: int, m: int, s: Fraction,
                   coeffs: Mapping[Tuple[int, int, int], object]) -> Hypersurface:
    """v = <z,z> (antidiagonal) + sum C_{rpq} u^r |z_n|^{2p} <z,z>^q, m >= 1.

    Keys are (r, p, q) with p >= 1, q, r >= 0 and (r+q-1)/p = s exactly;
    the construction additionally enforces the trace conditions by
    rejection.  Stability dimension n^2 - 2n + 3.
    """
    if m < 1:
        raise ModelError("theorem2 models need m >= 1")
    s = _check_s(s)
    form = standard_form(n, m, ANTIDIAGONAL)
    clean = _clean(coeffs)
    for (r, p, q) in clean:
        if p < 1 or q < 0 or r < 0:
            raise ModelError("exponents must satisfy p >= 1, q >= 0, r >= 0")
        if Fraction(r + q - 1, p) != s:
            raise ModelError(
                f"key (r={r}, p={p}, q={q}): (r+q-1)/p = {Fraction(r + q - 1, p)} != s = {s}")
        if p + q < 2:
            raise ModelError(
                f"key (r={r}, p={p}, q={q}): p+q >= 2 is required in normal form")
    f_poly = _family(form, n - 1, clean.items())
    surface = Hypersurface(form, f_poly, max(2 * (r + p + q) for r, p, q in clean))
    report = check_normal_form(surface)
    if not report.passed:
        raise ModelError(
            f"supplied coefficients violate the trace conditions ({report.violated()}); "
            f"no admissible surface for these terms")
    return surface


def model_corollary2(n: int, m: int, sign: int) -> Hypersurface:
    """v = <z,z> (antidiagonal) +- |z_n|^4: the non-umbilic extreme case."""
    if sign not in (1, -1):
        raise ModelError("sign must be +1 or -1")
    return model_theorem2(n, m, Fraction(-1, 2), {(0, 2, 0): Fraction(sign)})


def theorem2_decompose(surface: Hypersurface) -> Dict[Tuple[int, int, int], Fraction]:
    """Exact (r, p, q) coefficients of F = sum C u^r |z_n|^{2p} <z,z>^q.

    Raises ModelError if F is not in the family.  Uses marker monomials:
    u^r z_1^q z_n^p conj(z_n)^{p+q} appears with coefficient C_{rpq} in the
    corresponding term and in no other member of the family.
    """
    n = surface.n
    if surface.form.kind != ANTIDIAGONAL:
        raise ModelError("theorem2 surfaces live over the antidiagonal form")
    f_poly = surface.F
    if f_poly.is_zero():
        raise ModelError("spherical surface is not a theorem2 model")
    found: Dict[Tuple[int, int, int], Fraction] = {}
    for (z, zb, r), coeff in f_poly.terms.items():
        p = z[n - 1]
        q = z[0] if n >= 2 else 0
        # marker pattern: z = q*e_1 + p*e_n, zb = (p+q)*e_n
        marker_z = tuple(
            (q if i == 0 else 0) + (p if i == n - 1 else 0) for i in range(n))
        marker_zb = tuple(p + q if i == n - 1 else 0 for i in range(n))
        if z != marker_z or zb != marker_zb:
            continue
        if not coeff.is_real():
            raise ModelError("family coefficients must be real")
        found[(r, p, q)] = coeff.re
    if _family(surface.form, n - 1, found.items()) != f_poly:
        raise ModelError("F is not a polynomial in u, |z_n|^2 and <z,z>")
    out = {key: val for key, val in found.items() if val}
    if any(p == 0 for (_r, p, _q) in out):
        raise ModelError(
            "F contains pure <z,z> powers (p = 0): umbilic family, not a "
            "theorem2 model")
    return out


class ScaledSAuto(Frozen):
    """Map z -> |mu|^{1/(s+1)} U z, w -> |mu|^{2/(s+1)} w with U in S.

    The scale lambda = |mu|^{1/(s+1)} is carried symbolically as the pair
    (base |mu|^2, exponent 1/(2(s+1))); it is evaluated only when exactly
    rational.
    """

    __slots__ = ("s", "element")

    def __init__(self, s: Fraction, element: SElement):
        self._fill(_check_s(s), element)

    @property
    def scale_base(self) -> Fraction:
        return self.element.mu_abs2

    @property
    def scale_exponent(self) -> Fraction:
        return Fraction(1) / (2 * (self.s + 1))

    def rational_scale(self) -> Optional[Fraction]:
        """lambda as an exact rational when it is one, else None."""
        base = self.scale_base
        exp = self.scale_exponent
        if base == 1:
            return Fraction(1)
        if exp.denominator == 1:
            return base**exp.numerator
        root = rational_root(base, exp.denominator)
        if root is None:
            return None
        return root**exp.numerator


def verify_scaled_automorphism(surface: Hypersurface, auto: ScaledSAuto) -> bool:
    """Symbolic invariance of a theorem2 model under a scaled S map.

    With lambda a formal positive symbol satisfying lambda^{s+1} = |mu|, a
    family term u^r |z_n|^{2p} <z,z>^q picks up lambda^{2(r+p+q)} |mu|^{-2p}
    under the map (using <Uz,Uz> = <z,z> and |(Uz)_n|^2 = |z_n|^2/|mu|^2
    from the last row (0,...,0,1/conj(mu)) of U); invariance per monomial is
    the exponent identity (r+p+q-1)/(s+1) = p.
    """
    coeffs = theorem2_decompose(surface)
    svals = {Fraction(r + q - 1, p) for (r, p, q) in coeffs}
    if len(svals) != 1:
        raise ModelError("surface terms do not share a single exponent ratio s")
    s_surface = svals.pop()
    if s_surface != auto.s:
        raise ModelError(
            f"s mismatch: surface has s = {s_surface}, map has s = {auto.s}")
    if surface.n != auto.element.n or surface.m != auto.element.m:
        raise ModelError("signature mismatch between surface and map")
    u_mat = s_to_matrix(auto.element)
    # geometric facts, re-verified exactly on the assembled matrix
    if is_pseudounitary(u_mat, surface.form) != 1:
        return False
    n = surface.n
    last = u_mat.block(range(n - 1, n), range(n)).scale(auto.element.mu.conjugate())
    if not last.block(range(1), range(n - 1)).is_zero():  # conj(mu) U's last row is e_n
        return False
    if last.block(range(1), range(n - 1, n)) != Matrix.identity(1):
        return False
    # per-monomial exponent identity, exact over Q
    for (r, p, q) in coeffs:
        if Fraction(r + p + q - 1) != p * (auto.s + 1):
            return False
    return True


class ClassifyResult(Frozen):
    __slots__ = ("case", "dim", "n", "m", "function_of_form_and_u", "gap_ok")

    def __init__(self, case: str, dim: int, n: int, m: int, function_of_form_and_u: bool,
                 gap_ok: bool):
        self._fill(case, dim, n, m, function_of_form_and_u, gap_ok)

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "dim": self.dim,
            "n": self.n,
            "m": self.m,
            "function_of_form_and_u": self.function_of_form_and_u,
            "gap_ok": self.gap_ok,
        }


def forbidden_band(n: int, m: int) -> Tuple[int, int]:
    """Dimensions ruled out by the classification (inclusive bounds)."""
    lo = n * n - 2 * n + (3 if m == 0 else 4)
    return lo, n * n - 1


def gap_violated(n: int, m: int, dim: int, func: bool) -> bool:
    """The gap verdict: dim in the forbidden band, or F a function of <z,z> and u below n^2."""
    lo, hi = forbidden_band(n, m)
    return lo <= dim <= hi or (func and dim != n * n)


def classify(surface: Hypersurface) -> ClassifyResult:
    """Stability-dimension case analysis of a non-spherical normal-form surface."""
    if surface.F.is_zero():
        raise ModelError("classify requires a non-spherical surface")
    report = check_normal_form(surface)
    if not report.passed:
        raise ModelError(f"surface is not in normal form (violated: {report.violated()})")
    n, m = surface.n, surface.m
    result = stabilizer_algebra(surface)
    dim = result.dim
    func = is_function_of_form_and_u(surface)
    gap_ok = not gap_violated(n, m, dim, func)
    if dim == n * n:
        case = CASE_FULL
    elif m == 0 and dim == n * n - 2 * n + 2:
        case = CASE_T1
    elif m >= 1 and dim == n * n - 2 * n + 3:
        case = CASE_T2
    else:
        case = CASE_OTHER
    return ClassifyResult(case=case, dim=dim, n=n, m=m,
                          function_of_form_and_u=func, gap_ok=gap_ok)
