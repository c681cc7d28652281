import random

import pytest

from crmoser.census import (
    CensusConfig,
    random_normal_form_surface,
    run_census,
)
from crmoser.forms import standard_form
from crmoser.normal_form import check_normal_form


def test_random_surfaces_are_normal_form():
    rng = random.Random(3)
    for kind, m in (("diagonal", 0), ("antidiagonal", 1)):
        form = standard_form(2, m, kind)
        for _ in range(20):
            surface = random_normal_form_surface(rng, form, 8)
            assert check_normal_form(surface).passed
            assert not surface.F.is_zero()
            assert surface.F.is_real()


def test_census_deterministic_for_fixed_seed():
    config = CensusConfig(ns=(2,), ms=(1,), samples=25, seed=7)
    first = run_census(config)
    second = run_census(config)
    assert first == second


def test_census_seed_changes_samples():
    a = run_census(CensusConfig(ns=(2,), ms=(1,), samples=15, seed=1))
    b = run_census(CensusConfig(ns=(2,), ms=(1,), samples=15, seed=2))
    assert a != b


def test_census_no_gap_violations_small_run():
    config = CensusConfig(ns=(2,), ms=(0, 1), samples=40, seed=11)
    report = run_census(config)
    assert report["gap_violations"] == 0
    for pair in report["pairs"]:
        assert pair["samples"] == 40
        assert pair["control_failures"] == []


def test_census_controls_classify_full():
    # positive controls (functions of <z,z> and u) appear with prob ~0.2
    config = CensusConfig(ns=(2,), ms=(0,), samples=60, seed=13)
    report = run_census(config)
    pair = report["pairs"][0]
    assert pair["function_controls"] > 0
    full_dim = 4
    assert pair["dims"].get(str(full_dim), 0) >= pair["function_controls"]


def test_census_runs_a_repeated_pair_once():
    # each pair at its first place in the listed order
    assert CensusConfig(ns=(2, 3, 2), ms=(0, 1, 0)).pairs() == [(2, 0), (2, 1), (3, 0), (3, 1)]
    repeated = run_census(CensusConfig(ns=(2, 2), ms=(0,), samples=1, seed=4))
    assert repeated == run_census(CensusConfig(ns=(2,), ms=(0,), samples=1, seed=4))


def test_census_config_rejects_empty():
    with pytest.raises(ValueError):
        CensusConfig(ns=(3,), ms=(2,)).pairs()  # n < 2m


@pytest.mark.parametrize("samples", [0, -5])
def test_census_config_rejects_no_samples(samples):
    with pytest.raises(ValueError, match="at least one sample"):
        CensusConfig(ns=(2,), ms=(0,), samples=samples)
