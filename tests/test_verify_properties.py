"""Property tests of the jet verification residual and its per-form tables.

`verification_residual` builds Im g - <f,f> - F(f, conj f, Re g) at
w = u + i(<z,z> + F) from the w-graded parts of the jet over a table of
powers of w, memoized on the form when F = 0.  The reference here is the
direct formula: f and g substituted in full with `HoloPoly.substitute_w`,
the general pairing `HermitianForm.pair_polys`, and `Poly.substitute`
with the conjugate targets written out.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crmoser.autgroup import (
    AutoParams,
    quadric_automorphism,
    verification_residual,
    verify_automorphism,
)
from crmoser.census import random_normal_form_surface
from crmoser.forms import ANTIDIAGONAL, HermitianForm, standard_form
from crmoser.gaussrat import GaussianRational
from crmoser.jets import HoloPoly, JetMap
from crmoser.linalg import Matrix
from crmoser.normal_form import Hypersurface
from crmoser.poly import Poly

I = GaussianRational(0, 1)
POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 3)]
D = 7


def explicit_form(p_rows, signs) -> HermitianForm:
    """P* diag(signs) P for an invertible P, as an explicit form."""
    p = Matrix(p_rows)
    h = p.conj_transpose() * Matrix([[s if i == j else 0 for j in range(len(signs))]
                                     for i, s in enumerate(signs)]) * p
    return HermitianForm(len(signs), signs.count(-1), h)


FORMS = [
    standard_form(2, 0, "diagonal"),
    standard_form(3, 1, "diagonal"),
    standard_form(2, 1, "antidiagonal"),
    standard_form(3, 1, "antidiagonal"),
    explicit_form([[1, I], [0, 2]], [1, 1]),
    explicit_form([[1, GaussianRational(1, -1)], [Fraction(1, 2), 1]], [1, -1]),
]


def direct_residual(surface: Hypersurface, jet: JetMap, w: int) -> Poly:
    """The residual through weight w from fully substituted f and g."""
    form = surface.form
    wmix = (Poly.u(form.n) + (form.inner_poly() + surface.F).scale(I)).truncate_weight(w)
    gm = jet.g.substitute_w(wmix, w)
    fm = [fi.substitute_w(wmix, w) for fi in jet.f]
    residual = (gm.imag_part() - form.pair_polys(fm, fm, w)
                - surface.F.substitute(fm, [p.conjugate() for p in fm],
                                       gm.real_part(), max_weight=w))
    return residual.truncate_weight(w)


def gauss(rng: random.Random) -> GaussianRational:
    return GaussianRational(rng.choice(POOL), rng.choice(POOL + [Fraction(0)]))


@st.composite
def jets_on_surfaces(draw):
    """(surface, jet): a quadric jet of random parameters, maybe with one more monomial."""
    form = draw(st.sampled_from(FORMS))
    n = form.n
    rng = random.Random(draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        surface = Hypersurface(form, Poly.zero(n), D)
    else:
        surface = random_normal_form_surface(rng, form, D)
    # U need not preserve the form: the residual is an identity of polynomials
    u_mat = Matrix([[gauss(rng) if rng.random() < 0.7 else 0 for _ in range(n)]
                    for _ in range(n)])
    params = AutoParams(U=u_mat, a=tuple(gauss(rng) for _ in range(n)),
                        lam=abs(rng.choice(POOL)), sigma=rng.choice((1, -1)),
                        r=rng.choice(POOL))
    jet = quadric_automorphism(params, form, D)
    if draw(st.booleans()):
        weight = rng.randrange(3, D)
        wexp = rng.randrange(weight // 2 + 1)
        zdeg = weight - 2 * wexp
        zexp = [0] * n
        for _ in range(zdeg):
            zexp[rng.randrange(n)] += 1
        term = HoloPoly(n, {(tuple(zexp), wexp): gauss(rng)})
        target = rng.randrange(n + 1)
        f, g = list(jet.f), jet.g
        if target == n:
            g = g + term
        else:
            f[target] = f[target] + term
        jet = JetMap(tuple(f), g, D)
    return surface, jet


@settings(derandomize=True, deadline=None, max_examples=30)
@given(jets_on_surfaces())
def test_verification_residual_equals_the_direct_formula(case):
    surface, jet = case
    for w in range(D):
        assert verification_residual(surface, jet, w) == direct_residual(surface, jet, w), w


def test_quadric_jets_verify_through_every_weight_on_every_form():
    # genuine automorphisms: U a unit phase times E preserves every form
    for form in FORMS:
        n = form.n
        phase = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        params = AutoParams(U=Matrix([[phase if i == j else 0 for j in range(n)]
                                      for i in range(n)]),
                            a=tuple(GaussianRational(Fraction(1, 2), -1) for _ in range(n)),
                            lam=Fraction(3, 2), sigma=1, r=Fraction(-1, 3))
        jet = quadric_automorphism(params, form, D)
        surface = Hypersurface(form, Poly.zero(n), D)
        for w in range(D):
            assert verify_automorphism(surface, jet, w), (form, w)
            assert verification_residual(surface, jet, w).is_zero()


def z1_term(k: int, c) -> HoloPoly:
    """c z1^a w^b with a + 2b = k >= 1 and a = 1 or 2, at n = 2."""
    a = 2 - k % 2
    return HoloPoly(2, {((a, 0), (k - a) // 2): c})


def gamma_4_surface() -> Hypersurface:
    """F = |z1|^4 (1 + u) at n = 2: lowest weight 4, and a u slot."""
    quartic = Poly.monomial(2, (2, 0), (2, 0), 0)
    return Hypersurface(standard_form(2, 1, "diagonal"), quartic + quartic * Poly.u(2), 10)


@pytest.mark.parametrize("max_w", range(5, 10))
def test_the_F_term_reads_f_through_max_w_minus_3_and_g_through_max_w_minus_4(max_w):
    # F has z- and conj(z)-degree 2, so a term of f of weight max_w - 3 meets 3 more
    # factors of weight 1 in it, and a term of g of weight max_w - 4 in the u slot 4
    surface = gamma_4_surface()
    f = (HoloPoly.z(2, 0) + z1_term(max_w - 3, GaussianRational(1, 2)), HoloPoly.z(2, 1))
    jet = JetMap(f, HoloPoly.w(2) + z1_term(max_w - 4, GaussianRational(-3, 1)), 10)
    assert verification_residual(surface, jet, max_w) == direct_residual(surface, jet, max_w)


def test_below_weight_4_the_F_term_caps_are_negative_and_raise_nothing():
    surface = gamma_4_surface()
    f = (HoloPoly.z(2, 0) + z1_term(2, GaussianRational(1, 2)), HoloPoly.z(2, 1))
    jet = JetMap(f, HoloPoly.w(2) + z1_term(1, I), 10)
    identity = JetMap.identity(2, 10)
    for max_w in range(4):
        assert verification_residual(surface, jet, max_w) == direct_residual(surface, jet, max_w)
        assert verify_automorphism(surface, identity, max_w)
    assert not verify_automorphism(surface, jet, 3)


def memo_cases(form: HermitianForm):
    """(hyperquadric, non-spherical surface, [quadric jet, the jet with g perturbed at
    weight 4]) on the two-dimensional `form`."""
    n = form.n
    params = AutoParams(U=Matrix.identity(n),
                        a=(GaussianRational(Fraction(1, 2), 1), GaussianRational(-1, 3)),
                        lam=Fraction(2), sigma=1, r=Fraction(1, 3))
    jet = quadric_automorphism(params, form, 10)
    bent = JetMap(jet.f, jet.g + HoloPoly(n, {((1, 1), 1): GaussianRational(1, -1)}), 10)
    spherical = Hypersurface(form, Poly.zero(n), 10)
    umbilic = Hypersurface(form, form.inner_power(4).scale(Fraction(1, 2)), 10)
    return spherical, umbilic, [jet, bent]


def fresh(form: HermitianForm) -> HermitianForm:
    """A new instance of the form, with nothing memoized on it."""
    return HermitianForm(form.n, form.m, form.matrix, form.kind)


def w_tables(form: HermitianForm):
    """The chains of the powers of w memoized on the form, by cap (see HermitianForm.w_table)."""
    return {key[1]: table for key, table in form._memo.items()
            if isinstance(key, tuple) and key[0] == "w_table"}


def table_state(form: HermitianForm):
    return {cap: (t, len(t._powers), dict(t._conj), dict(t._mixed))
            for cap, t in w_tables(form).items()}


def test_the_per_form_tables_give_the_fresh_form_results(monkeypatch):
    shared = fresh(standard_form(2, 1, ANTIDIAGONAL))
    spherical, umbilic, jets = memo_cases(shared)
    for cap in (5, 9, 5):
        for jet, genuine in zip(jets, (True, False)):
            ref_surface, _, _ = memo_cases(fresh(shared))
            assert verify_automorphism(spherical, jet, cap) is genuine, cap
            assert verify_automorphism(ref_surface, jet, cap) is genuine, cap
            assert verification_residual(spherical, jet, cap) == verification_residual(
                ref_surface, jet, cap), cap
    assert sorted(w_tables(shared)) == [5, 9]
    before = table_state(shared)

    def no_table(self, cap):
        raise AssertionError("a surface with F != 0 read the form's tables")

    monkeypatch.setattr(HermitianForm, "w_table", no_table)
    for cap in (5, 9):
        for jet in jets:
            _, ref_umbilic, _ = memo_cases(fresh(shared))
            assert verify_automorphism(umbilic, jet, cap) == verify_automorphism(
                ref_umbilic, jet, cap), cap
            assert verification_residual(umbilic, jet, cap) == verification_residual(
                ref_umbilic, jet, cap), cap
    assert table_state(shared) == before
