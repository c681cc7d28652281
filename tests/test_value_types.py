"""The slotted value types: no `dataclasses` import, immutability, equality and validation."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import crmoser
from crmoser.autgroup import AutoParams, InfSym
from crmoser.census import CensusConfig
from crmoser.cli import main
from crmoser.forms import standard_form
from crmoser.gaussrat import GaussianRational
from crmoser.jets import HoloPoly, JetMap
from crmoser.linalg import Matrix
from crmoser.models import ClassifyResult, ModelError, ScaledSAuto, SElement
from crmoser.normal_form import Hypersurface, NormalFormError, NormalFormReport
from crmoser.poly import Poly


def build(name):
    """A fresh instance of the named value type, from the same arguments on every call."""
    form = standard_form(2, 0, "diagonal")
    element = SElement(n=2, m=1, mu=1, c=0, x=(), A=Matrix.identity(0))
    return {
        "AutoParams": lambda: AutoParams(U=Matrix.identity(2), a=(0, 1), lam=2, sigma=-1, r=0),
        "InfSym": lambda: InfSym(Matrix.identity(2), Fraction(1, 2)),
        "JetMap": lambda: JetMap.identity(2, 4),
        "Hypersurface": lambda: Hypersurface(form, form.inner_power(2), 6),
        "NormalFormReport": lambda: NormalFormReport(False, (("trF22", Poly.u(2)),)),
        "SElement": lambda: element,
        "ScaledSAuto": lambda: ScaledSAuto(Fraction(-1, 2), element),
        "ClassifyResult": lambda: ClassifyResult("FULL", 4, 2, 0, True, True),
        "CensusConfig": lambda: CensusConfig(ns=(2,), ms=(0, 1)),
        "Poly": lambda: Poly(2, {((1, 0), (0, 1), 2): GaussianRational(1, -2)}),
        "HoloPoly": lambda: HoloPoly.z(2, 1) + HoloPoly.w(2),
        "Matrix": lambda: Matrix([[1, Fraction(1, 2)], [GaussianRational(0, 3), -1]]),
        "HermitianForm": lambda: form,
        "GaussianRational": lambda: GaussianRational(Fraction(1, 2), -3),
    }[name]()


FROZEN = ["AutoParams", "InfSym", "JetMap", "Hypersurface", "NormalFormReport", "SElement",
          "ScaledSAuto", "ClassifyResult", "CensusConfig",
          "Poly", "HoloPoly", "Matrix", "HermitianForm", "GaussianRational"]


def test_importing_the_cli_loads_no_dataclasses():
    src = pathlib.Path(crmoser.__file__).resolve().parent.parent
    code = ("import sys, crmoser.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(src))
    # -S: no site hooks, so every module loaded is loaded by the import itself
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", FROZEN)
def test_value_types_have_slots_and_no_instance_dict(name):
    value = build(name)
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_value_types_refuse_assignment_and_deletion(name):
    value = build(name)
    field = (type(value).__slots__ or Poly.__slots__)[0]  # HoloPoly adds no slot to Poly's
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError, match="is immutable"):
        delattr(value, field)


@pytest.mark.parametrize("name", FROZEN)
def test_equal_fields_give_equal_values_and_hashes(name):
    first, second = build(name), build(name)
    assert first == second and hash(first) == hash(second)
    assert first != object() and first.__eq__(object()) is NotImplemented


def test_a_refused_deletion_leaves_the_shared_form_whole(monkeypatch, capsys):
    """Every surface over standard_form(2, 0, "diagonal") shares it and what is memoized on it."""
    with pytest.raises(AttributeError, match="HermitianForm is immutable"):
        del standard_form(2, 0, "diagonal").matrix
    root = pathlib.Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)
    assert main(["classify", "--surface", "samples/umbilic_q4.json"]) == 0
    expected = root / "tests" / "expected" / "classify-umbilic_q4.json"
    assert capsys.readouterr().out == expected.read_text(encoding="utf-8")


def test_unequal_fields_give_unequal_values():
    assert InfSym(Matrix.identity(2), 1) != InfSym(Matrix.identity(2), 2)
    full = ClassifyResult("FULL", 4, 2, 0, True, True)
    assert full != ClassifyResult("FULL", 4, 2, 0, True, False)


def test_constructors_keep_their_keywords_defaults_and_conversions():
    params = AutoParams(U=Matrix.identity(1), a=[1], lam=4, sigma=1, r=Fraction(1, 3))
    assert params.a == (1,) and isinstance(params.lam, Fraction) and params.lam == 4
    jet = JetMap([HoloPoly.z(1, 0)], HoloPoly.w(1), 3)
    assert isinstance(jet.f, tuple) and jet.D == 3
    assert NormalFormReport(True).violations == ()
    config = CensusConfig((2,), (0,))
    assert (config.max_weight, config.samples, config.seed) == (8, 200, 0)
    assert ScaledSAuto(0, build("SElement")).s == Fraction(0)
    assert repr(InfSym(Matrix.identity(1), Fraction(1))) == \
        f"InfSym(X={Matrix.identity(1)!r}, rho=Fraction(1, 1))"


def test_validation_messages_are_unchanged():
    eye = Matrix.identity(2)
    form = standard_form(2, 0, "diagonal")
    z = HoloPoly.z(2, 0)
    cases = [
        (lambda: AutoParams(eye, (0, 0), 0, 1, 0), ValueError, "lambda must be positive"),
        (lambda: AutoParams(eye, (0, 0), 1, 2, 0), ValueError, "sigma must be +1 or -1"),
        (lambda: AutoParams(eye, (0,), 1, 1, 0), ValueError,
         "a must have one entry per dimension"),
        (lambda: JetMap((z, HoloPoly.z(3, 1)), HoloPoly.w(2), 4), ValueError,
         "jet components have mismatched dimensions"),
        (lambda: JetMap((z,), HoloPoly.w(2), 4), ValueError, "jet must have 2 z-components"),
        (lambda: JetMap((z, HoloPoly.constant(2, 1)), HoloPoly.w(2), 4), ValueError,
         "jet must preserve the origin"),
        (lambda: JetMap((z, HoloPoly.z(2, 1)), HoloPoly.w(2), 0), ValueError,
         "truncation weight must be positive"),
        (lambda: Hypersurface(form, Poly.zero(3), 4), NormalFormError,
         "F has dimension 3, form has 2"),
        (lambda: Hypersurface(form, Poly.monomial(2, (2, 0), (0, 2), 0), 4), NormalFormError,
         "coefficient symmetry broken at monomial ((0, 2), (2, 0), 0)"),
        (lambda: Hypersurface(form, form.inner_poly(), 4), NormalFormError,
         "harmonic term (degree (1,1)) not allowed in a normal-form F"),
        (lambda: Hypersurface(form, form.inner_power(3), 4), NormalFormError,
         "F contains weight 6 > declared maxWeight 4"),
        (lambda: Hypersurface(form, form.inner_power(2), -3), NormalFormError,
         "F contains weight 4 > declared maxWeight -3"),
        (lambda: Hypersurface(form, Poly.zero(2), -3), NormalFormError,
         "maxWeight must be non-negative, got -3"),
        (lambda: SElement(2, 1, 0, 0, (), Matrix.identity(0)), ModelError, "mu must be nonzero"),
        (lambda: SElement(3, 1, 1, 0, (), Matrix.identity(1)), ModelError,
         "x must have length n-2 = 1"),
        (lambda: SElement(3, 1, 1, 0, (0,), eye), ModelError, "A must be 1x1"),
        (lambda: SElement(2, 1, 1, 1, (), Matrix.identity(0)), ModelError,
         "corner constraint 2Re(c/mu) + x^T H' conj(x) = 0 violated"),
        (lambda: SElement(1, 1, 1, 0, (), Matrix.identity(0)), ModelError,
         "the group S needs n >= 2"),
        (lambda: ScaledSAuto(-1, build("SElement")), ModelError, "s must be a rational >= -1/2"),
        (lambda: CensusConfig((2,), (0,), samples=0), ValueError,
         "a census needs at least one sample per pair, got 0"),
        (lambda: CensusConfig((2,), (0,), max_weight=3), ValueError,
         "max weight 3 admits no surface: the smallest normal-form term, "
         "bidegree (2,2) at u^0, has weight 4"),
    ]
    for make, error, message in cases:
        with pytest.raises(error) as raised:
            make()
        assert str(raised.value) == message
