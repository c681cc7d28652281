"""Automorphism machinery: parameter jets, the quadric map, invariance.

Every origin-preserving automorphism of a normal-form surface is pinned
down by the parameter tuple (U, a, lambda, sigma, r) read off its 2-jet:

    df/dz(0) = lambda U,       df/dw(0) = lambda U a,
    dg/dw(0) = sigma lambda^2, Re d2g/dw2(0) = 2 sigma lambda^2 r.

This module extracts those parameters, expands the explicit hyperquadric
automorphism with given parameters as a truncated series, checks linear
invariance exactly, solves the infinitesimal linear-stabilizer system,
applies the weight-raising operator T, evaluates the weight-(gamma+1)
identity that drives the linearization arguments, and reparametrizes a
surface by the 1-parameter fractional-linear family z -> z/(1+qw),
w -> w/(1+qw).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .forms import HermitianForm, invariance_columns, is_pseudounitary, u_basis, w_poly
from .gaussrat import GaussianRational, as_fraction, rational_sqrt
from .jets import HoloPoly, JetMap
from .linalg import Matrix, rational_nullspace
from .normal_form import Hypersurface
from .poly import Poly, Powers, ProductSum, real_coefficient_rows
from .value import Frozen

_HALF = Fraction(1, 2)
_MINUS_HALF = Fraction(-1, 2)
_MINUS_HALF_I = GaussianRational(0, _MINUS_HALF)


class ExtractionError(ValueError):
    """The jet does not determine exact rational automorphism parameters."""


class TruncationError(ValueError):
    """Requested verification weight exceeds what the jet truncation supports."""


def _check_scale(lam: Fraction, sigma: int) -> None:
    """ValueError unless lambda > 0 and sigma = +-1."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if sigma not in (1, -1):
        raise ValueError("sigma must be +1 or -1")


class AutoParams(Frozen):
    """(U, a, lambda, sigma, r) with lambda > 0 rational and sigma = +-1."""

    __slots__ = ("U", "a", "lam", "sigma", "r")

    def __init__(self, U: Matrix, a: Tuple[GaussianRational, ...], lam: Fraction, sigma: int,
                 r: Fraction):
        a = tuple(GaussianRational.of(c) for c in a)
        lam = as_fraction(lam)
        r = as_fraction(r)
        _check_scale(lam, sigma)
        if len(a) != U.nrows:
            raise ValueError("a must have one entry per dimension")
        self._fill(U, a, lam, sigma, r)


class InfSym(Frozen):
    """Infinitesimal linear symmetry: direction X in u(H) plus scale rate rho."""

    __slots__ = ("X", "rho")

    def __init__(self, X: Matrix, rho: Fraction):
        self._fill(X, rho)


class StabilizerResult:
    """Solution space of the linear-invariance system (stabilizer_algebra).

    `dim` is read off the solve and `spherical` is whether F = 0, where the
    kernel is the identity and `basis` is u(H) followed by rho = 1.  The
    kernel vectors are kept as `rational_nullspace` gives them, (den, nums)
    with integer coordinates over (u_basis(form), rho); `basis` recombines
    them into InfSym elements on first read and keeps that tuple.
    """

    __slots__ = ("dim", "spherical", "_kernel", "_directions", "_basis")

    def __init__(self, kernel: Sequence[Tuple[int, Sequence[int]]],
                 directions: Sequence[Matrix], spherical: bool):
        self.dim = len(kernel)
        self.spherical = spherical
        self._kernel = kernel
        self._directions = directions
        self._basis: Optional[Tuple[InfSym, ...]] = None

    @property
    def basis(self) -> Tuple[InfSym, ...]:
        if self._basis is None:
            dirs = self._directions
            self._basis = tuple(InfSym(Matrix.combination(den, nums[:-1], dirs),
                                       Fraction(nums[-1], den)) for den, nums in self._kernel)
        return self._basis


def extract_params(jet: JetMap, form: HermitianForm) -> AutoParams:
    """Read (U, a, lambda, sigma, r) off a jet; everything must stay rational."""
    n = form.n
    if jet.n != n:
        raise ValueError("jet dimension does not match the form")
    lin = jet.linear_part()  # rows f_1..f_n, g; columns z_1..z_n, w
    gw = lin[n, n]
    if gw.is_zero() or not gw.is_real():
        raise ExtractionError(
            f"dg/dw(0) must be a nonzero real rational, got {gw}")
    if not lin.block(range(n, n + 1), range(n)).is_zero():
        raise ExtractionError("dg/dz(0) must vanish for an extractable jet")
    sigma = 1 if gw.re > 0 else -1
    lam = rational_sqrt(abs(gw.re))
    if lam is None:
        raise ExtractionError("irrational scale — supply parameters directly")
    # df/dz(0) = lambda U and df/dw(0) = lambda U a, so a = (df/dz(0))^-1 df/dw(0)
    fz = lin.block(range(n), range(n))
    u_mat = fz.scale(1 / lam)
    if is_pseudounitary(u_mat, form) != sigma:
        raise ExtractionError("U not pseudounitary")
    a = (fz.inverse() * lin.block(range(n), range(n, n + 1))).transpose().rows[0]
    # Re d2g/dw2(0) = 2 sigma lambda^2 r, twice the real part of g's w^2 coefficient
    r = jet.g.coeff(((0,) * n, (0,) * n, 2)).re / (sigma * lam * lam)
    return AutoParams(U=u_mat, a=a, lam=lam, sigma=sigma, r=r)


def quadric_automorphism(params: AutoParams, form: HermitianForm, D: int) -> JetMap:
    """The hyperquadric automorphism with the given parameters, to weight D.

        z -> lambda U (z + a w) / delta,   w -> sigma lambda^2 w / delta,
        delta = 1 - 2i<z,a> - (r + i<a,a>) w,

    expanded as a truncated geometric series.  The output preserves
    v = <z,z> at every weight <= D-1 (see verify_automorphism).
    """
    n = form.n
    if len(params.a) != n or params.U.nrows != n:
        raise ValueError("parameter dimensions do not match the form")
    a_col = Matrix([[c] for c in params.a])
    h_a = form.matrix * a_col.conjugate()  # <z, a> = (H conj(a))^T z, and <a, a> = a^T H conj(a)
    w_coeff = Matrix([[params.r]]) + (a_col.transpose() * h_a).scale(GaussianRational(0, 1))
    tail = Matrix.blocks([[h_a.transpose().scale(GaussianRational(0, 2)), w_coeff]])
    series = _geometric(HoloPoly.linear_forms(n, tail)[0], D)  # 1/delta
    # lambda U (z + a w) = lambda [U | U a] (z, w)
    lin = (params.U * Matrix.blocks([[Matrix.identity(n), a_col]])).scale(params.lam)
    f = [p.mul(series, D) for p in HoloPoly.linear_forms(n, lin)]
    g = HoloPoly.w(n).scale(params.sigma * params.lam * params.lam).mul(series, D)
    return JetMap(tuple(f), g, D)


def is_linear_automorphism(surface: Hypersurface, u_mat: Matrix,
                           lam: Fraction, sigma: int) -> bool:
    """Exact test of F(lambda U z, conj, sigma lambda^2 u) = sigma lambda^2 F."""
    lam = as_fraction(lam)
    _check_scale(lam, sigma)
    if is_pseudounitary(u_mat, surface.form) != sigma:
        raise ValueError("U is not pseudounitary with the requested sigma")
    u_scale = sigma * lam * lam
    lam_u = u_mat.scale(lam)
    return surface.F.substitute_linear(lam_u, u_scale) == surface.F.scale(u_scale)


def stabilizer_algebra(surface: Hypersurface) -> StabilizerResult:
    """Exact solve of the infinitesimal linear-invariance system.

    Unknowns are (X, rho) with X ranging over the real span of u_basis and
    rho the scale rate; the equation is the t-derivative at the identity of
    F(e^{rho t} e^{t X} z, conj, e^{2 rho t} u) = e^{2 rho t} F:

        2 Re sum_j ((rho E + X) z)_j dF/dz_j + 2 rho u dF/du - 2 rho F = 0

    collected coefficientwise.  It is the equation of `u_basis` with P = F
    and a rho column added.  Its X columns are `invariance_columns` over the
    u(H) basis.  By the weighted Euler identity, 2 Re sum_j z_j dF/dz_j +
    2 u dF/du = sum_w w F_w for the weight parts F_w of the real F, so the
    rho column is sum_w (w - 2) F_w.  The spherical surface (F = 0) gives
    no rows, so every unknown is free: dimension n^2 + 1.  The result keeps
    the kernel vectors and builds its `basis` on first read, so callers
    that need only `dim` pay for no recombination.
    """
    f_poly = surface.F
    basis = u_basis(surface.form)
    rho = ProductSum(f_poly.n)
    for w, part in f_poly.weight_decompose().items():
        rho.add(part, c=w - 2)
    columns = [*invariance_columns(f_poly, basis), rho.poly()]
    kernel = rational_nullspace(real_coefficient_rows(columns), len(columns))
    return StabilizerResult(kernel, basis, spherical=f_poly.is_zero())


def T_operator(fg: Poly, a: Sequence[GaussianRational], form: HermitianForm) -> Poly:
    """The weight-raising operator

        T(F, a) = 2 Re( -2i<z,a> F + (u+i<z,z>) sum a_j dF/dz_j
                        + 2i<z,a> sum z_j dF/dz_j
                        + i<z,a> (u+i<z,z>) dF/du ).

    Real-linear in F, additive in a, raises pure weight by exactly one.
    The products inside Re go into one ProductSum, whose `real` is T.
    """
    n = form.n
    if fg.n != n:
        raise ValueError("polynomial dimension does not match the form")
    if len(a) != n:
        raise ValueError("vector a must have one entry per dimension")
    za = Poly.linear_forms(n, Matrix([a]).conjugate() * form.matrix.transpose())[0]  # <z, a>
    upz = w_poly(form.inner_poly())
    half = ProductSum(n)
    half.add(za, fg, GaussianRational(0, -2))
    for j, c in enumerate(a):
        dfz = fg.partial("z", j)
        half.add(upz, dfz, c)
        half.add(za * Poly.z(n, j), dfz, GaussianRational(0, 2))
    half.add(za * upz, fg.partial("u"), GaussianRational(0, 1))
    return half.real()


def moser_weight_identity(surface: Hypersurface, jet: JetMap) -> Poly:
    """Residual of the weight-(gamma+1) identity; zero for genuine maps.

    Left side:  Re(i g~_{gamma+1} + 2 <lambda^{-1} U^{-1} f~_gamma, z>)
                restricted to v = <z,z>, plus T(F_gamma, a).
    Right side: F_{gamma+1} - lambda^{-2} F_{gamma+1}(lambda U z, ., lambda^2 u).

    Here (f~, g~) = jet - quadric_automorphism(extract_params(jet)), and the
    restriction is realized by substituting w = u + i<z,z> before weight
    extraction.  The pairing is sum_kb M_kb f~_k conj(z_b) with
    M = (lambda U)^-T H, and a half of everything but T goes into one
    ProductSum.
    """
    form = surface.form
    n = form.n
    gamma = surface.F.min_weight()
    if gamma is None:
        raise ValueError("the weight identity needs a non-spherical surface")
    params = extract_params(jet, form)
    phi_q = quadric_automorphism(params, form, jet.D)
    cap = gamma + 1
    table = form.w_table(cap)
    ft = [(jet.f[i] - phi_q.f[i]).substitute_w(table, cap) for i in range(n)]
    gt = (jet.g - phi_q.g).substitute_w(table, cap)
    f_gamma = [p.weight_component(gamma) for p in ft]
    g_up = gt.weight_component(gamma + 1)
    lam_u = params.U.scale(params.lam)
    f_up = surface.F.weight_component(gamma + 1)
    lam2 = params.lam * params.lam
    half = ProductSum(n)
    half.add(g_up, c=GaussianRational(0, _HALF))
    half.add_form(lam_u.inverse().transpose() * form.matrix, f_gamma,
                  [Poly.zbar(n, b) for b in range(n)])
    half.add(f_up, c=_MINUS_HALF)
    half.add(f_up.substitute_linear(lam_u, lam2), c=1 / (2 * lam2))
    return half.real() + T_operator(surface.F.weight_component(gamma), params.a, form)


def verify_automorphism(surface: Hypersurface, jet: JetMap, max_w: int) -> bool:
    """Exact invariance check of the defining equation through weight max_w.

    Requires every term of verification_residual to vanish, which is read
    off its accumulator (ProductSum.real_is_zero) without collecting it.
    The residual is built from the w-graded parts of the jet over the
    powers of w = u + i(<z,z> + F) (see _residual_half); on the
    hyperquadric those powers are the form's, built once per weight.  The
    jet supports 0 <= max_w <= D - 1 (g enters linearly, so its missing
    weight->D tail cannot touch weights below D).  A jet whose linear part
    at the origin, d(f, g)/d(z, w)(0), is singular is no local
    biholomorphism and fails; its determinant is taken over Z[i].
    """
    if max_w < 0:
        raise ValueError(f"verification weight must be non-negative, got {max_w}")
    if max_w > jet.D - 1:
        raise TruncationError(
            f"verification weight {max_w} exceeds the jet capacity {jet.D - 1}"
        )
    if jet.n != surface.form.n:
        raise ValueError("jet dimension does not match the surface")
    if jet.linear_part().det().is_zero():
        return False
    return _residual_half(surface, jet, max_w).real_is_zero()


def verification_residual(surface: Hypersurface, jet: JetMap, max_w: int) -> Poly:
    """Im g - <f,f> - F(f, conj f, Re g) at w = u + i(<z,z> + F), through weight max_w.

    The residual is real, so one ProductSum holds a half H of it and `real`
    returns H + conj(H): g/(2i) for Im g, a half of <f,f> from its blocks
    A_ee' w^e conj(w)^e' with e <= e' (see _residual_half) and a half of
    the real substitution of F.
    """
    return _residual_half(surface, jet, max_w).real()


def _residual_half(surface: Hypersurface, jet: JetMap, max_w: int) -> ProductSum:
    """The ProductSum of a half of verification_residual.

    With f_a = sum_e p_ae(z) w^e and W = u + i(<z,z> + F),

        <f(z,W), f(z,W)> = sum_{e,e'} A_ee' W^e conj(W)^e',
        A_ee' = sum_ab h_ab p_ae conj(p_be'),   A_e'e = conj(A_ee'),

    so a half of it is each block with e < e' once and half of each block
    with e = e', and A_00 goes straight into the sum (W^0 conj(W)^0 is 1).
    g(z,W) = sum_e q_e W^e reads the same powers.  All of them come from one
    chain of the powers of W (see Powers); when F = 0 it depends on the form
    alone and is memoized on it per weight cap.  Otherwise f and g are also
    substituted for the F term, reading the same chain.

    Every term of W has weight >= 2, that of w, and f(0) = 0, so the jet is
    read only through the weights that reach max_w: the blocks read f through
    max_w - 1 (a term meets a factor conj(f_b) of weight >= 1) and Im g reads
    g through max_w.  F has z- and conj(z)-degree >= 2, so in the F term each
    z slot meets at least 3 more factors of weight >= 1 and the u slot 4:
    f is substituted through max_w - 3 and g through max_w - 4.
    """
    form, f_poly = surface.form, surface.F
    n = form.n
    if f_poly.is_zero():
        table = form.w_table(max_w)
    else:
        table = Powers(w_poly(form.inner_poly() + f_poly), max_w)
    total = ProductSum(n, max_w)
    for e, q in jet.g.truncate_weight(max_w).u_coefficients().items():
        total.add(q, table.power(e), _MINUS_HALF_I)
    parts = [fi.truncate_weight(max_w - 1).u_coefficients() for fi in jet.f]
    grades = sorted({e for pa in parts for e in pa})
    bars = [{e: p.conjugate() for e, p in pa.items()} for pa in parts]
    for i, e in enumerate(grades):
        for e2 in grades[i:]:
            cap = max_w - 2 * (e + e2)  # W^e conj(W)^e2 has weight >= 2(e + e2)
            if cap < 0:
                break
            left, right = [pa.get(e) for pa in parts], [pb.get(e2) for pb in bars]
            if not e2:  # W^0 conj(W)^0 is 1, so A_00 goes straight into the sum
                total.add_form(form.matrix.scale(_MINUS_HALF), left, right)
                continue
            block = ProductSum(n, cap)  # A_{e e2}
            block.add_form(form.matrix, left, right)
            total.add(block.poly(), table.mixed(e, e2), -1 if e < e2 else _MINUS_HALF)
    if not f_poly.is_zero():
        fm = [fi.substitute_w(table, max_w - 3) for fi in jet.f]
        gm = jet.g.substitute_w(table, max_w - 4)
        total.add_real_substitution(f_poly, fm, gm.real_part(), -1)
    return total


def reparametrize(surface: Hypersurface, q: Fraction, max_w: int) -> Hypersurface:
    """Image of the surface under z -> z/(1+qw), w -> w/(1+qw), re-solved.

    The map is an automorphism of the hyperquadric, so the image is again
    v = <z,z> + F'; F' satisfies the implicit equation

        F'(z, conj z, u) = |1 - q w|^2 F(z s, conj(z s), U),
        s = 1/(1 - q w),  U = Re(w s),  w = u + i(<z,z> + F'),

    which is solved by a weight-graded fixed-point iteration.  Every z slot
    is scaled by the same series s, so with F = sum F_abk(z, conj z) u^k over
    its parts of bidegree (a, b),

        F(z s, conj(z s), U) = sum s^a conj(s)^b U^k F_abk(z, conj z).

    The prefactor is |1 - q w|^2 = 1/(s conj(s)), and Hypersurface refuses
    every bidegree with a < 2 or b < 2 (the harmonic terms), so it divides
    exactly into the powers of s, each left with an exponent >= 1:

        F' = sum s^(a-1) conj(s)^(b-1) U^k F_abk(z, conj z).

    F_abk has weight a + b, so each s^(a-1) conj(s)^(b-1) U^k is needed only
    through its weight room max_w - (a + b), where a capped product agrees
    with the exact one.  s^(a-1) conj(s)^(b-1) is built once per (a, b) and
    round, from one chain of the powers of s, and F's parts are read once
    per call.

    Let gamma >= 4 be the lowest weight of F (F has no harmonic terms).  A
    change of F' at weight k moves the right side only at weight k + gamma - 2
    or above: through dF/du in the u slot, while the powers of s move it at
    weight k + gamma or above.  So once the lowest weight at which a round
    changed F' satisfies k + gamma - 2 > max_w, the next round would return
    the same truncation, and the iteration stops there without running it.
    """
    q = as_fraction(q)
    if max_w < 0:
        raise ValueError(f"reparametrization weight must be non-negative, got {max_w}")
    if max_w > surface.max_weight:
        raise ValueError("requested weight exceeds the surface truncation")
    form = surface.form
    n = form.n
    if q == 0 or surface.F.is_zero():
        new_f = surface.F.truncate_weight(max_w)
        return Hypersurface(form, new_f, max_w)
    inner = form.inner_poly()
    parts = [(a, b, part.u_coefficients()) for (a, b), part
             in surface.F.truncate_weight(max_w).bidegree_parts().items()]
    gamma = surface.F.min_weight()
    current = Poly.zero(n)
    while True:
        wmix = w_poly(inner + current).truncate_weight(max_w)
        series = _geometric(wmix.scale(q), max_w)       # s = 1/(1 - q w)
        slot_u = ProductSum(n, max_w)                   # U = Re(w s)
        slot_u.add(wmix, series, _HALF)
        s_chain, u_chain = Powers(series, max_w), Powers(slot_u.real(), max_w)
        total = ProductSum(n, max_w)
        for a, b, by_k in parts:
            room = max_w - a - b
            mixed = s_chain.power(a - 1).mul(s_chain.conjugate(b - 1), room)
            for k, f_abk in by_k.items():
                total.add(f_abk, mixed.mul(u_chain.power(k), room) if k else mixed)
        candidate = total.poly()
        changed = (candidate - current).min_weight()
        if changed is None or changed + gamma - 2 > max_w:
            return Hypersurface(form, candidate, max_w)
        current = candidate


def _geometric(t: Poly, max_w: int) -> Poly:
    """sum_k t^k truncated by weight, from one chain (see Powers); t has positive minimal weight."""
    mw = t.min_weight()
    if mw is not None and mw < 1:
        raise ValueError("geometric series needs a positive minimal weight")
    chain, total = Powers(t, max_w), ProductSum(t.n, max_w)
    for e in range(max_w // mw + 1 if mw else 1):  # t^e has minimal weight e * mw
        total.add(chain.power(e))
    return total.poly()._as(type(t))
