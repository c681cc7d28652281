"""Property tests of the stabilizer solve under pseudounitary coordinate changes.

Surfaces come from the census sampler; the coordinate changes z -> Uz are
exact elements of U(H): permutations and rational unit phases that preserve
the form and, on antidiagonal forms, elements of the named subgroups of S.
The stabilizer dimension must not move, and every basis element (X, rho)
must lie in u(H) and annihilate the invariance operator

    2 Re sum_j ((rho E + X) z)_j dF/dz_j + 2 rho u dF/du - 2 rho F,

which `helpers.stabilizer_residual` evaluates with Poly arithmetic, apart
from the solver.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from crmoser.autgroup import stabilizer_algebra
from crmoser.census import random_normal_form_surface
from crmoser.forms import is_pseudounitary, standard_form
from crmoser.gaussrat import GaussianRational
from crmoser.linalg import Matrix
from crmoser.models import s_named_subgroup, s_to_matrix
from crmoser.normal_form import Hypersurface

from helpers import is_in_lie_algebra, stabilizer_residual

SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)

FORMS = [standard_form(n, m, kind) for n, m, kind in (
    (2, 0, "diagonal"), (2, 1, "antidiagonal"), (2, 1, "diagonal"),
    (3, 0, "diagonal"), (3, 1, "antidiagonal"), (3, 1, "diagonal"))]

T_POOL = [Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2)]


def unit_phase(t: Fraction) -> GaussianRational:
    """(1 - t^2 + 2it) / (1 + t^2), a rational point of the unit circle."""
    return GaussianRational((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


def form_permutations(form):
    """Permutation matrices in U(H)."""
    n = form.n
    mats = (Matrix([[int(p[i] == j) for j in range(n)] for i in range(n)])
            for p in itertools.permutations(range(n)))
    return [u for u in mats if is_pseudounitary(u, form) == 1]


def random_pseudounitary(rng: random.Random, form) -> Matrix:
    """A permutation times unit phases in U(H); on antidiagonal forms also
    times an element of the subgroup I, J or K of S."""
    n, m = form.n, form.m
    phases = [unit_phase(rng.choice(T_POOL)) for _ in range(n)]
    if form.kind == "antidiagonal":
        for i in range(m):
            phases[n - 1 - i] = phases[i]  # d_i conj(d_{n-1-i}) = 1
    u_mat = rng.choice(form_permutations(form)) * Matrix(
        [[phases[i] if i == j else 0 for j in range(n)] for i in range(n)])
    if form.kind == "antidiagonal" and m >= 1:
        kind = rng.choice("IJK")
        if kind == "K":
            element = s_named_subgroup("K", n, m, t=abs(rng.choice(T_POOL)))
        elif kind == "I":
            element = s_named_subgroup("I", n, m, t=rng.choice(T_POOL))
        else:
            x = tuple(GaussianRational(rng.choice(T_POOL), rng.choice(T_POOL))
                      for _ in range(n - 2))
            c = GaussianRational(-sum((v.abs2() for v in x), Fraction(0)) / 2,
                                 rng.choice(T_POOL))
            element = s_named_subgroup("J", n, m, c=c, x=x)
        u_mat = u_mat * s_to_matrix(element)
    return u_mat


@st.composite
def moved_surfaces(draw):
    """(surface, surface with F(Uz, conj, u)) for a census-sampled surface."""
    form = draw(st.sampled_from(FORMS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    surface = random_normal_form_surface(rng, form, 8)
    u_mat = random_pseudounitary(rng, form)
    assert is_pseudounitary(u_mat, form) == 1
    moved = Hypersurface(form, surface.F.substitute_linear(u_mat, Fraction(1)),
                         surface.max_weight)
    return surface, moved


@SETTINGS
@given(moved_surfaces())
def test_stabilizer_dimension_is_invariant_under_u_h(pair):
    surface, moved = pair
    assert stabilizer_algebra(moved).dim == stabilizer_algebra(surface).dim


@SETTINGS
@given(moved_surfaces())
def test_stabilizer_basis_lies_in_u_h_and_annihilates_the_operator(pair):
    for surface in pair:
        result = stabilizer_algebra(surface)
        assert len(result.basis) == result.dim
        for sym in result.basis:
            assert is_in_lie_algebra(sym.X, surface.form)
            assert stabilizer_residual(surface, sym.X, sym.rho).is_zero()
