"""The readers and writers of linear data, against entry-by-entry oracles.

`JetMap.linear_part` reads d(f, g)/d(z, w)(0) off the packed numerators of
the jet; the oracle is one `coeff` read per entry.  `Poly.linear_forms`
packs the rows of a Matrix as linear forms; the oracle is the same sum
built by ring operations on `Poly.z` and `Poly.u`.  `Matrix.blocks` and
`Matrix.block` assemble and cut matrices on numerators; the oracle is the
entries.  `forms.w_poly` is u + i v.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crmoser.autgroup import AutoParams, ExtractionError, extract_params, quadric_automorphism
from crmoser.forms import standard_form, w_poly
from crmoser.gaussrat import GaussianRational
from crmoser.jets import HoloPoly, JetMap
from crmoser.linalg import Matrix
from crmoser.poly import Poly

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
gaussians = st.builds(GaussianRational, fractions, fractions)


def unit(n, j):
    return tuple(int(i == j) for i in range(n))


@st.composite
def holo_polys(draw, n, max_weight=5):
    """A HoloPoly without constant term, often with z-linear, w and w^2 terms."""
    monos = [(unit(n, j), 0) for j in range(n)] + [((0,) * n, 1), ((0,) * n, 2)]
    monos += [(tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))),
               draw(st.integers(0, 2))) for _ in range(draw(st.integers(0, 4)))]
    terms = {}
    for z, w in monos:
        if 0 < sum(z) + 2 * w <= max_weight and draw(st.booleans()):
            terms[(z, w)] = draw(gaussians)
    return HoloPoly(n, terms)


@st.composite
def jets(draw):
    n = draw(st.integers(1, 3))
    return JetMap([draw(holo_polys(n)) for _ in range(n)], draw(holo_polys(n)), 6)


@st.composite
def matrices(draw, nrows, ncols):
    if not nrows:
        return Matrix.zeros(0, ncols)
    return Matrix([[draw(gaussians) for _ in range(ncols)] for _ in range(nrows)])


@SETTINGS
@given(jets())
def test_linear_part_equals_the_coefficients(jet):
    n = jet.n
    zeros = (0,) * n
    lin = jet.linear_part()
    assert (lin.nrows, lin.ncols) == (n + 1, n + 1)
    for i, p in enumerate((*jet.f, jet.g)):
        for j in range(n):
            assert lin[i, j] == p.coeff((unit(n, j), zeros, 0))
        assert lin[i, n] == p.coeff((zeros, zeros, 1))


@SETTINGS
@given(st.data(), st.integers(1, 3), st.integers(0, 3), st.booleans())
def test_linear_forms_equal_ring_sums(data, n, nrows, with_u):
    m = data.draw(matrices(nrows, n + with_u))
    forms = Poly.linear_forms(n, m)
    assert len(forms) == nrows
    for i, form in enumerate(forms):
        expected = Poly.zero(n)
        for j in range(n):
            expected = expected + Poly.z(n, j).scale(m[i, j])
        if with_u:
            expected = expected + Poly.u(n).scale(m[i, n])
        assert form == expected
    for i, form in enumerate(HoloPoly.linear_forms(n, m)):
        assert type(form) is HoloPoly and form == forms[i]
        if with_u:
            assert form.terms.get(((0,) * n, 1), GaussianRational(0)) == m[i, n]


def test_linear_forms_need_n_or_n_plus_one_columns():
    with pytest.raises(ValueError, match="2 or 3 columns"):
        Poly.linear_forms(2, Matrix.identity(4))


@SETTINGS
@given(st.data(), st.lists(st.integers(0, 3), min_size=1, max_size=3),
       st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_blocks_and_block_equal_the_entries(data, heights, widths):
    grid = [[data.draw(matrices(h, w)) for w in widths] for h in heights]
    whole = Matrix.blocks(grid)
    rows = [[e for b in row_blocks for e in b.rows[i]]
            for row_blocks in grid for i in range(row_blocks[0].nrows)]
    assert (whole.nrows, whole.ncols) == (sum(heights), sum(widths))
    if rows:
        assert whole == Matrix(rows)
    top, left = heights[0], widths[0]
    for r, c in ((range(top), range(left)), (range(top, whole.nrows), range(left, whole.ncols))):
        cut = whole.block(r, c)
        assert (cut.nrows, cut.ncols) == (len(r), len(c))
        if len(r) and len(c):
            assert cut == Matrix([[whole[i, j] for j in c] for i in r])
    if top and left:
        assert whole.block(range(top), range(left)) == grid[0][0]


def test_blocks_that_do_not_fit_are_refused():
    with pytest.raises(ValueError, match="blocks do not fit"):
        Matrix.blocks([[Matrix.identity(2), Matrix.identity(1)]])
    with pytest.raises(ValueError, match="blocks do not fit"):
        Matrix.blocks([[Matrix.identity(2)], [Matrix.identity(3)]])


def test_block_outside_the_matrix_raises():
    with pytest.raises(IndexError):
        Matrix.identity(3).block(range(1), range(2, 4))  # column 3 is not the next row's 0
    with pytest.raises(IndexError):
        Matrix.identity(3).block(range(2, 4), range(1))


@SETTINGS
@given(st.integers(1, 3), st.data())
def test_w_poly_is_u_plus_i_v(n, data):
    v = Poly.zero(n)
    for _ in range(data.draw(st.integers(0, 3))):
        a = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        b = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        mono = Poly.monomial(n, a, b, data.draw(st.integers(0, 2)), data.draw(gaussians))
        v = v + mono + mono.conjugate()
    assert w_poly(v) == Poly.u(n) + v * GaussianRational(0, 1)
    assert w_poly(v).imag_part() == v and w_poly(v).real_part() == Poly.u(n)


def quadric_jet():
    form = standard_form(2, 1, "antidiagonal")
    params = AutoParams(U=Matrix.identity(2), a=(GaussianRational(1, 2), 0), lam=2, sigma=1,
                        r=Fraction(1, 3))
    return form, params, quadric_automorphism(params, form, 5)


def test_extract_params_reads_back_the_quadric_parameters():
    form, params, jet = quadric_jet()
    assert extract_params(jet, form) == params


@pytest.mark.parametrize("k", [0, 1])
def test_extract_params_needs_dg_dz_to_vanish(k):
    form, _params, jet = quadric_jet()
    bent = JetMap(jet.f, jet.g + HoloPoly.z(2, k).scale(Fraction(1, 3)), jet.D)
    with pytest.raises(ExtractionError, match=r"dg/dz\(0\) must vanish"):
        extract_params(bent, form)


@pytest.mark.parametrize("target", ["f", "g"])
def test_jets_must_preserve_the_origin(target):
    _form, _params, jet = quadric_jet()
    one = HoloPoly.constant(2, GaussianRational(0, 1))
    f, g = list(jet.f), jet.g
    if target == "g":
        g = g + one
    else:
        f[1] = f[1] + one
    with pytest.raises(ValueError, match="jet must preserve the origin"):
        JetMap(f, g, jet.D)
