"""The gap verdict at the ends of the forbidden band.

`classify` and `run_census` share one verdict, `models.gap_violated`.  The
random surfaces of the census never reach the band (ROADMAP, census
probe), so here the stabilizer solve is replaced by a stub that reports a
chosen dimension: each end of a non-empty band must be a violation, and the
dimensions just outside it must not.  (3,0) has the band [6, 8] and (3,1)
has [7, 8]; (2,1) has none.
"""

from types import SimpleNamespace

import pytest

from crmoser import census, models
from crmoser.census import CensusConfig, run_census
from crmoser.models import classify, forbidden_band, gap_violated, model_corollary2, model_theorem1

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
        stub_dimension(monkeypatch, census, dim)
        report = run_census(CensusConfig(ns=(n,), ms=(m,), samples=1, seed=3))
        (pair,) = report["pairs"]
        # the one sample is no <z,z>^k u^r control, so only the band can flag it
        assert pair["function_controls"] == 0
        assert pair["dims"] == {str(dim): 1}
        assert report["gap_violations"] == pair["gap_violations"] == violations, dim
        assert len(pair["gap_violation_surfaces"]) == violations
