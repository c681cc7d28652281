import random
from fractions import Fraction

import pytest

from crmoser.forms import standard_form
from crmoser.poly import Poly
from crmoser.surface_io import (
    SurfaceParseError,
    parse_surface,
    parse_surface_text,
    surface_from_json,
    surface_to_json,
)

from helpers import random_real_poly


def test_parse_abs_monomial():
    form = standard_form(2, 1, "antidiagonal")
    m = parse_surface("1 * |z2|^4", form)
    assert m.F == Poly.monomial(2, (0, 2), (0, 2), 0)


def test_parse_inner_form_powers():
    form = standard_form(2, 0, "diagonal")
    m = parse_surface("Q^4 + 1/2 u^2 Q^5", form)
    q = form.inner_poly()
    assert m.F == q**4 + (Poly.u(2).pow(2) * q**5).scale(Fraction(1, 2))


def test_parse_explicit_conjugate_pair():
    form = standard_form(2, 0, "diagonal")
    m = parse_surface("z1^2 ~z1^2 ~z2 z2 + |z1|^4", form)
    expect = Poly.monomial(2, (2, 1), (2, 1), 0) + Poly.monomial(2, (2, 0), (2, 0), 0)
    assert m.F == expect


def test_parse_reality_violation():
    form = standard_form(2, 0, "diagonal")
    with pytest.raises(SurfaceParseError, match="coefficient symmetry broken"):
        parse_surface("z1^2 ~z1^3", form)


def test_parse_harmonic_violation():
    form = standard_form(2, 0, "diagonal")
    with pytest.raises(SurfaceParseError, match="harmonic"):
        parse_surface("z1 ~z1", form)


def test_parse_syntax_error_with_position():
    form = standard_form(2, 0, "diagonal")
    with pytest.raises(SurfaceParseError, match="position"):
        parse_surface_text("Q^4 + $", form)
    with pytest.raises(SurfaceParseError):
        parse_surface_text("Q^", form)
    with pytest.raises(SurfaceParseError):
        parse_surface_text("", form)
    with pytest.raises(SurfaceParseError, match="even"):
        parse_surface_text("|z1|^3", form)
    with pytest.raises(SurfaceParseError, match="out of range"):
        parse_surface_text("|z5|^4", form)



def test_only_ascii_digits_are_digits():
    # an Arabic-Indic three and one, which parse_rational rejects in a term list too
    form = standard_form(2, 0, "diagonal")
    for text in ("\u0663 Q^4", "z\u0661^2 ~z1^2"):
        with pytest.raises(SurfaceParseError, match="unexpected character"):
            parse_surface_text(text, form)

def test_round_trip_serialize_parse_identity():
    rng = random.Random(17)
    for kind, m in (("diagonal", 0), ("antidiagonal", 1)):
        form = standard_form(2, m, kind)
        for _ in range(8):
            f_poly = random_real_poly(rng, 2, pairs=2, max_bidegree=3)
            f_poly = Poly(2, {mono: c for mono, c in f_poly.terms.items()
                              if sum(mono[0]) >= 2 and sum(mono[1]) >= 2})
            if f_poly.is_zero():
                continue
            from crmoser.normal_form import Hypersurface
            original = Hypersurface(form, f_poly, f_poly.max_weight())
            doc = surface_to_json(original)
            back = surface_from_json(doc)
            assert back.F == original.F
            assert back.form == original.form
            assert back.max_weight == original.max_weight


def test_surface_json_with_expression():
    doc = {"n": 2, "m": 1, "kind": "antidiagonal", "F": "|z2|^4", "maxWeight": 6}
    m = surface_from_json(doc)
    assert m.max_weight == 6
    assert m.F == Poly.monomial(2, (0, 2), (0, 2), 0)


def test_surface_json_missing_body():
    with pytest.raises(SurfaceParseError):
        surface_from_json({"n": 2, "m": 0, "kind": "diagonal"})


def test_surface_json_bad_form():
    with pytest.raises(SurfaceParseError):
        surface_from_json({"n": 3, "m": 2, "kind": "antidiagonal", "F": "Q^4"})
