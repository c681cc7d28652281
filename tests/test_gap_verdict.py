"""The gap verdict at the ends of the forbidden band.

`run_census` judges each sample with `classify`, whose verdict is
`models.gap_violated`.  The random surfaces of the census never reach the
band (ROADMAP, census probe), so here the stabilizer solve that `classify`
calls is replaced by a stub that reports a chosen dimension: each end of a non-empty band must be a violation, and the
dimensions just outside it must not.  (3,0) has the band [6, 8] and (3,1)
has [7, 8]; (2,1) has none.  A <z,z>^k u^r control below n^2 must be
reported as a control failure and a gap violation.
"""

import random
from types import SimpleNamespace

import pytest

from crmoser import models
from crmoser.census import CensusConfig, random_normal_form_surface, run_census
from crmoser.cli import main
from crmoser.forms import standard_form
from crmoser.models import classify, forbidden_band, gap_violated, model_corollary2, model_theorem1
from crmoser.normal_form import is_function_of_form_and_u
from crmoser.surface_io import surface_to_json

# non-spherical normal-form surfaces that are not functions of <z,z> and u
SURFACES = {(3, 0): lambda: model_theorem1(3, {(2, 2, 0): 1}),
            (3, 1): lambda: model_corollary2(3, 1, 1)}


def stub_dimension(monkeypatch, module, dim):
    monkeypatch.setattr(module, "stabilizer_algebra", lambda surface: SimpleNamespace(dim=dim))


def test_the_bands_used_here():
    assert forbidden_band(3, 0) == (6, 8)
    assert forbidden_band(3, 1) == (7, 8)
    lo, hi = forbidden_band(2, 1)
    assert lo > hi


@pytest.mark.parametrize("n,m", sorted(SURFACES))
def test_gap_violated_at_both_ends_of_the_band(n, m):
    lo, hi = forbidden_band(n, m)
    for func in (False, True):
        assert gap_violated(n, m, lo, func) and gap_violated(n, m, hi, func)
    assert not gap_violated(n, m, lo - 1, False) and not gap_violated(n, m, n * n, True)
    assert gap_violated(n, m, lo - 1, True)  # a function of <z,z> and u must have n^2


@pytest.mark.parametrize("n,m", sorted(SURFACES))
def test_classify_flags_both_ends_of_the_band(n, m, monkeypatch):
    surface = SURFACES[(n, m)]()
    lo, hi = forbidden_band(n, m)
    for dim, gap_ok in ((lo, False), (hi, False), (lo - 1, True), (n * n, True)):
        stub_dimension(monkeypatch, models, dim)
        result = classify(surface)
        assert (result.dim, result.function_of_form_and_u) == (dim, False)
        assert result.gap_ok is gap_ok, dim


@pytest.mark.parametrize("n,m", sorted(SURFACES))
def test_census_counts_both_ends_of_the_band(n, m, monkeypatch):
    lo, hi = forbidden_band(n, m)
    for dim, violations in ((lo, 1), (hi, 1), (lo - 1, 0)):
        stub_dimension(monkeypatch, models, dim)
        report = run_census(CensusConfig(ns=(n,), ms=(m,), samples=1, seed=3))
        (pair,) = report["pairs"]
        # the one sample is no <z,z>^k u^r control, so only the band can flag it
        assert pair["function_controls"] == 0
        assert pair["dims"] == {str(dim): 1}
        assert report["gap_violations"] == pair["gap_violations"] == violations, dim
        assert len(pair["gap_violation_surfaces"]) == violations


def test_census_reports_every_control_below_n_squared(monkeypatch, capsys):
    # every sample reports n^2 - 2n + 2 = 2 at (2,0), outside the band [3, 3]: only the
    # controls, replayed here from the census's seed, break the gap property
    stub_dimension(monkeypatch, models, 2)
    rng = random.Random(3)
    form = standard_form(2, 0, "diagonal")
    samples = [random_normal_form_surface(rng, form, 8) for _ in range(10)]
    controls = [surface_to_json(s) for s in samples if is_function_of_form_and_u(s)]
    (pair,) = run_census(CensusConfig(ns=(2,), ms=(0,), samples=10, seed=3))["pairs"]
    assert pair["function_controls"] == len(controls) == 4
    assert pair["control_failures"] == pair["gap_violation_surfaces"] == controls
    assert pair["gap_violations"] == 4
    assert main(["census", "--n", "2", "--m", "0", "--samples", "10", "--seed", "3"]) == 3
    capsys.readouterr()
