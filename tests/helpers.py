"""Shared test utilities: sympy oracles and seeded random generators.

The sympy routines form the independent verification path for derived
expected values (differentiation, matrix products, ranks); they never call
back into the library's own arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from typing import List

import sympy
from hypothesis import strategies as st

from crmoser.autgroup import InfSym, _geometric
from crmoser.forms import HermitianForm, standard_form, u_basis
from crmoser.gaussrat import GaussianRational
from crmoser.linalg import Matrix, rational_nullspace
from crmoser.models import SElement
from crmoser.normal_form import Hypersurface
from crmoser.poly import Poly, ProductSum

RATIONAL_POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
                 Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(3)]


def mono_weight(mono) -> int:
    """The weight of a monomial key (zexp, zbexp, uexp): z and conj(z) of weight 1, u of 2."""
    z, zb, u = mono
    return sum(z) + sum(zb) + 2 * u


def real_substitution(p: Poly, zsubs, usub, max_weight=None) -> Poly:
    """p(zsubs, conj(zsubs), usub) for real p and usub, through weight max_weight:
    one ProductSum.add_real_substitution completed by `real`."""
    total = ProductSum(zsubs[0].n if zsubs else p.n, max_weight)
    total.add_real_substitution(p, zsubs, usub)
    return total.real()


def widened(p: Poly) -> Poly:
    """p stored at a wider field width: the sum with u^40 (weight 80) is built at its width."""
    far = Poly.u(p.n).pow(40)
    return (p + far) - far


# -- sympy bridges -------------------------------------------------------------


def sym_vars(n: int):
    z = sympy.symbols(f"z1:{n + 1}")
    zb = sympy.symbols(f"zb1:{n + 1}")
    u = sympy.Symbol("u")
    return z, zb, u


def gauss_to_sympy(c: GaussianRational):
    return sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)


def poly_to_sympy(p: Poly):
    z, zb, u = sym_vars(p.n)
    expr = sympy.Integer(0)
    for (ze, zbe, ue), c in p.terms.items():
        term = gauss_to_sympy(c) * u**ue
        for i, e in enumerate(ze):
            term *= z[i] ** e
        for i, e in enumerate(zbe):
            term *= zb[i] ** e
        expr += term
    return sympy.expand(expr)


def matrix_to_sympy(m: Matrix):
    return sympy.Matrix(m.nrows, m.ncols,
                        lambda i, j: gauss_to_sympy(m[i, j]))


def sympy_trace_oracle(form: HermitianForm, p: Poly):
    """tr P computed entirely in sympy: inverse form matrix and diff."""
    z, zb, u = sym_vars(p.n)
    hinv = matrix_to_sympy(form.matrix).inv()
    expr = poly_to_sympy(p)
    out = sympy.Integer(0)
    for a in range(p.n):
        for b in range(p.n):
            if hinv[a, b] != 0:
                out += hinv[a, b] * sympy.diff(expr, z[a], zb[b])
    return sympy.expand(out)


def sympy_pseudounitary_sign(u_mat: Matrix, form: HermitianForm):
    us = matrix_to_sympy(u_mat)
    hs = matrix_to_sympy(form.matrix)
    prod = sympy.simplify(us.T * hs * us.conjugate())
    if prod == hs:
        return 1
    if prod == -hs:
        return -1
    return None


def real_coordinates(m: Matrix):
    """Flatten a complex matrix into its 2n^2 real coordinates."""
    out = []
    for row in m.rows:
        for e in row:
            out.append(sympy.Rational(e.re))
            out.append(sympy.Rational(e.im))
    return out


def sympy_real_rank(mats):
    """Rank of the real span of a family of complex matrices (sympy)."""
    rows = [real_coordinates(m) for m in mats]
    return sympy.Matrix(rows).rank()


# -- random exact data ----------------------------------------------------------


@st.composite
def hermitian_forms(draw, n):
    """A Hermitian form with Gaussian-rational off-diagonal entries.

    The diagonal is +-2n and each off-diagonal entry has modulus at most
    sqrt(2), so the signature is that of the diagonal (Gershgorin).
    """
    m = draw(st.integers(0, n // 2))
    part = st.builds(Fraction, st.integers(-1, 1), st.integers(1, 3))
    rows = [[GaussianRational(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = GaussianRational(-2 * n if i < m else 2 * n)
        for j in range(i + 1, n):
            c = GaussianRational(draw(part), draw(part))
            rows[i][j], rows[j][i] = c, c.conjugate()
    return HermitianForm(n, m, Matrix(rows))


def random_fraction(rng: random.Random, allow_zero=False) -> Fraction:
    pool = RATIONAL_POOL + ([Fraction(0)] if allow_zero else [])
    return rng.choice(pool)


def random_gauss(rng: random.Random, allow_zero=False) -> GaussianRational:
    while True:
        c = GaussianRational(random_fraction(rng, True), random_fraction(rng, True))
        if allow_zero or not c.is_zero():
            return c


def random_real_poly(rng: random.Random, n: int, pairs=2, max_bidegree=3,
                     max_u=1) -> Poly:
    """Random polynomial satisfying the reality invariant (harmonic terms allowed)."""
    p = Poly.zero(n)
    for _ in range(pairs):
        k = rng.randrange(0, max_bidegree + 1)
        l = rng.randrange(0, max_bidegree + 1)
        r = rng.randrange(0, max_u + 1)
        ze = [0] * n
        for _ in range(k):
            ze[rng.randrange(n)] += 1
        zbe = [0] * n
        for _ in range(l):
            zbe[rng.randrange(n)] += 1
        if tuple(ze) == tuple(zbe):
            coeff = GaussianRational(random_fraction(rng))
        else:
            coeff = random_gauss(rng)
        mono = Poly.monomial(n, ze, zbe, r, coeff)
        p = p + mono + mono.conjugate()
    return p


def trace_op_reference(form: HermitianForm, p: Poly) -> Poly:
    """trace_op by the chain of Poly operations it ran before its packed
    kernel: for each nonzero entry h_ab of H^{-1}, one Poly
    d^2 p / dz_a dzbar_b scaled by h_ab and added to the sum."""
    hinv = form.inverse_matrix()
    out = Poly.zero(form.n)
    for a in range(form.n):
        da = p.partial("z", a)
        if da:
            for b in range(form.n):
                h = hinv[a, b]
                if not h.is_zero():
                    out = out + da.partial("zbar", b).scale(h)
    return out


def is_function_of_form_and_u_reference(surface: Hypersurface) -> bool:
    """is_function_of_form_and_u by exact division of Poly objects, as it ran
    before it read the packed keys: each u-power slice of each (k,k) part is
    compared with <z,z>^k scaled by the ratio at its largest monomial."""
    f = surface.F
    if f.is_zero():
        return True
    for k, l in f.bidegrees():
        if k != l:
            return False
        qk = surface.form.inner_power(k)
        marker = max(qk.terms)
        marker_coeff = qk.coeff(marker)
        for slice_poly in f.bidegree_component(k, k).u_coefficients().values():
            scalar = slice_poly.coeff(marker) / marker_coeff
            if not scalar.is_real():
                return False
            if slice_poly != qk.scale(scalar):
                return False
    return True


def is_in_lie_algebra(x_mat: Matrix, form: HermitianForm) -> bool:
    """X^t H + H conj(X) = 0, the derivative at identity of pseudounitarity."""
    if x_mat.nrows != form.n or x_mat.ncols != form.n:
        raise ValueError("matrix size does not match the form")
    defect = x_mat.transpose() * form.matrix + form.matrix * x_mat.conjugate()
    return defect.is_zero()


def x_column(n: int, a: int, b: int) -> int:
    """Column of Re X_ab among the 2n^2 real unknowns of X; Im X_ab follows it."""
    return 2 * (a * n + b)


def pseudounitarity_rows(form: HermitianForm) -> List[List[int]]:
    """The linearized pseudounitarity system X^t H + H conj(X) = 0, as integer rows.

    Each complex entry X_ab is split into real unknowns x_ab + i*y_ab at
    columns x_column(n, a, b) and the one after it; the n^2 complex
    equations contribute two rows apiece, real part first.  The
    coefficients are the numerators `form.matrix.re`, `.im` of den*H: the
    system times den, which has the same kernel.
    """
    n = form.n
    nv = 2 * n * n
    hre, him = form.matrix.re, form.matrix.im  # entry (a, b) at a*n + b
    rows: List[List[int]] = []
    for alpha in range(n):
        for beta in range(n):
            # entry (alpha, beta) of X^t H + H conj(X)
            row_re = [0] * nv
            row_im = [0] * nv
            for k in range(n):
                hr, hi = hre[k * n + beta], him[k * n + beta]
                c = x_column(n, k, alpha)
                # coefficient of X_{k alpha} is h_{k beta}
                row_re[c] += hr
                row_re[c + 1] -= hi
                row_im[c] += hi
                row_im[c + 1] += hr
                gr, gi = hre[alpha * n + k], him[alpha * n + k]
                c = x_column(n, k, beta)
                # coefficient of conj(X_{k beta}) is h_{alpha k}
                row_re[c] += gr
                row_re[c + 1] += gi
                row_im[c] += gi
                row_im[c + 1] -= gr
            rows.append(row_re)
            rows.append(row_im)
    return rows


def u_basis_reference(form: HermitianForm):
    """u(H) as the nullspace of pseudounitarity_rows, each kernel vector read
    entry by entry into a Matrix (the reference for forms.u_basis)."""
    n = form.n
    return [Matrix([[GaussianRational(Fraction(nums[x_column(n, a, b)], den),
                                      Fraction(nums[x_column(n, a, b) + 1], den))
                     for b in range(n)] for a in range(n)])
            for den, nums in rational_nullspace(pseudounitarity_rows(form), 2 * n * n)]


def stabilizer_residual(m, x_mat, rho):
    """Direct substitution into the invariance equation (solver oracle):

        2 Re sum_j ((rho E + X) z)_j dF/dz_j + 2 rho u dF/du - 2 rho F.
    """
    return invariance_residual(m.F, x_mat, rho)


def invariance_residual(f_poly: Poly, x_mat, rho):
    """The invariance equation of stabilizer_residual for a real polynomial F, by Poly
    sums, scalings, products and conjugates."""
    n = f_poly.n
    acc = Poly.zero(n)
    for j in range(n):
        lin = Poly.z(n, j).scale(rho)
        for k in range(n):
            c = x_mat[j, k]
            if not c.is_zero():
                lin = lin + Poly.z(n, k).scale(c)
        acc = acc + lin * f_poly.partial("z", j)
    return (acc + acc.conjugate()
            + (Poly.u(n) * f_poly.partial("u")).scale(2 * rho)
            - f_poly.scale(2 * rho))


def stabilizer_columns_reference(surface: Hypersurface):
    """The columns of the invariance system of stabilizer_algebra, one per
    u_basis element and the last for rho, each built by the chain of Poly
    operations in stabilizer_residual, which stabilizer_algebra ran before
    it collected each column in one ProductSum."""
    n = surface.n
    columns = [stabilizer_residual(surface, x_mat, 0) for x_mat in u_basis(surface.form)]
    return columns + [stabilizer_residual(surface, Matrix.zeros(n, n), 1)]


def coefficient_rows(columns):
    """The system sum_j x_j columns[j] = 0 in real unknowns x_j as integer rows, read off
    `coeff`: per monomial of some column, the row of its real parts and the row of its
    imaginary parts, all over the least common denominator."""
    monos = dict.fromkeys(mono for column in columns for mono in column.terms)
    rows = [[getattr(column.coeff(mono), part) for column in columns]
            for mono in monos for part in ("re", "im")]
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * den) for x in row] for row in rows]


def up_to_one_scale(rows):
    """Integer rows divided by the gcd of all their entries, sorted: equal for two systems
    exactly when their rows are one multiset up to one positive common factor."""
    g = gcd(*(x for row in rows for x in row)) or 1
    return sorted(tuple(x // g for x in row) for row in rows)


def eager_stabilizer_basis(form: HermitianForm, kernel):
    """Kernel vectors (den, nums) over (u_basis(form), rho) recombined into InfSym
    elements one by one (the loop stabilizer_algebra ran before its basis
    was built on first read)."""
    n = form.n
    basis = u_basis(form)
    out = []
    for den, nums in kernel:
        x_mat = Matrix.zeros(n, n)
        for i, c in enumerate(nums[:-1]):
            if c:
                x_mat = x_mat + basis[i].scale(Fraction(c, den))
        out.append(InfSym(x_mat, Fraction(nums[-1], den)))
    return tuple(out)


def reparametrize_reference(surface: Hypersurface, q: Fraction, max_w: int) -> Hypersurface:
    """reparametrize by the plain fixed-point loop (stopping-rule oracle).

    Every round recomputes the right side at the full cap, and the loop
    stops only when a round returns its own input.
    """
    q = Fraction(q)
    form, n = surface.form, surface.n
    if q == 0 or surface.F.is_zero():
        return Hypersurface(form, surface.F.truncate_weight(max_w), max_w)
    one = Poly.constant(n, 1)
    current = Poly.zero(n)
    for _ in range(max_w + 2):
        wmix = (Poly.u(n) + (form.inner_poly() + current).scale(GaussianRational(0, 1))
                ).truncate_weight(max_w)
        wbar = wmix.conjugate()
        series = _geometric(wmix.scale(q), max_w)
        series_bar = series.conjugate()
        slot_u = (wmix.mul(series, max_w)
                  + wbar.mul(series_bar, max_w)).scale(Fraction(1, 2))
        prefactor = (one - wmix.scale(q)).mul(one - wbar.scale(q), max_w)
        zs = [Poly.z(n, i).mul(series, max_w) for i in range(n)]
        zbs = [Poly.zbar(n, i).mul(series_bar, max_w) for i in range(n)]
        candidate = prefactor.mul(
            surface.F.substitute(zs, zbs, slot_u, max_weight=max_w), max_w)
        if candidate == current:
            return Hypersurface(form, candidate, max_w)
        current = candidate
    raise AssertionError("reference reparametrization did not stabilize")


def cayley_pseudounitary(rng: random.Random, form: HermitianForm,
                         sparse=True) -> Matrix:
    """Exact rational element of U(H) via U = (E - X)(E + X)^{-1}, X in u(H)."""
    basis = u_basis(form)
    n = form.n
    for _ in range(50):
        x_mat = Matrix.zeros(n, n)
        want = rng.randrange(1, 3) if sparse else rng.randrange(2, len(basis) + 2)
        picks = rng.sample(range(len(basis)), min(want, len(basis)))
        for i in picks:
            x_mat = x_mat + basis[i].scale(random_fraction(rng))
        eye = Matrix.identity(n)
        try:
            u_mat = (eye - x_mat) * (eye + x_mat).inverse()
        except ZeroDivisionError:
            continue
        return u_mat
    raise RuntimeError("failed to build a Cayley pseudounitary matrix")


def pair_values(form: HermitianForm, left, right) -> GaussianRational:
    """<left, right> = sum h_ab left_a conj(right_b) for constant vectors: left^t H conj(right)."""
    return (Matrix([left]) * form.matrix * Matrix([right]).conj_transpose())[0, 0]


def random_s_element(rng: random.Random, n: int, m: int) -> SElement:
    """Random exact element of the triangular group S for (n, m)."""
    mu = random_gauss(rng)
    x = tuple(random_gauss(rng, allow_zero=True) for _ in range(n - 2))
    if n > 2:
        central = standard_form(n - 2, m - 1, "antidiagonal")
        a_mat = cayley_pseudounitary(rng, central)
        xhx = pair_values(central, x, x)
    else:
        a_mat = Matrix.identity(0)
        xhx = GaussianRational(0)
    # corner constraint: 2 Re(c/mu) = -x^t H' conj(x); pick Im(c/mu) freely
    ratio = GaussianRational(-xhx.re / 2, random_fraction(rng, True))
    c = mu * ratio
    return SElement(n=n, m=m, mu=mu, c=c, x=x, A=a_mat)
