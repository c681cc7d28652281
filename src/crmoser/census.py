"""Randomized gap-property census.

Generates random normal-form surfaces by rejection sampling (conjugate
monomial pairs with coefficients from a small rational pool, filtered
through the trace conditions) and checks that no sample lands in the
forbidden dimension band

    [n^2-2n+3, n^2-1]   for m = 0,
    [n^2-2n+4, n^2-1]   for m >= 1,

and that every sample that is a function of <z,z> and u has dimension
exactly n^2.  A slice of the samples are deliberate <z,z>^k u^r surfaces:
they are retained as positive controls and must classify as FULL.

Each sample is judged by `models.classify`, the call behind `crmoser
classify`; the report tallies its dimensions, function controls and gap
verdicts per (n, m) pair.  The generator runs sequentially off a single
seeded RNG, so a fixed seed reproduces the census bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Tuple

from .forms import ANTIDIAGONAL, DIAGONAL, HermitianForm, standard_form
from .gaussrat import GaussianRational
from .models import classify
from .normal_form import Hypersurface, check_normal_form
from .poly import Poly
from .surface_io import surface_to_json
from .value import Frozen

DEFAULT_POOL: Tuple[Fraction, ...] = (
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(1, 2), Fraction(-1, 2),
)  # the coefficients a proposal draws from
MAX_TRIES = 500  # the proposals drawn for one surface before the sampler gives up


# weight of the lightest term a normal-form F can have: bidegree (2,2), no u
MIN_WEIGHT = 4


class CensusConfig(Frozen):
    __slots__ = ("ns", "ms", "max_weight", "samples", "seed")

    def __init__(self, ns: Tuple[int, ...], ms: Tuple[int, ...], max_weight: int = 8,
                 samples: int = 200, seed: int = 0):
        if samples < 1:
            raise ValueError(f"a census needs at least one sample per pair, got {samples}")
        if max_weight < MIN_WEIGHT:
            raise ValueError(
                f"max weight {max_weight} admits no surface: the smallest "
                f"normal-form term, bidegree (2,2) at u^0, has weight {MIN_WEIGHT}")
        self._fill(ns, ms, max_weight, samples, seed)

    def pairs(self) -> List[Tuple[int, int]]:
        # a repeated pair runs once, at its first place
        out = list(dict.fromkeys((n, m) for n in self.ns for m in self.ms
                                 if n >= 2 and 0 <= m and n >= 2 * m))
        if not out:
            raise ValueError("no admissible (n, m) pairs in the census config")
        return out


def _random_composition(rng: random.Random, total: int, parts: int) -> Tuple[int, ...]:
    out = [0] * parts
    for _ in range(total):
        out[rng.randrange(parts)] += 1
    return tuple(out)


def random_normal_form_surface(rng: random.Random, form: HermitianForm,
                               max_weight: int) -> Hypersurface:
    """One random normal-form surface over the given form.

    Proposals are one or two conjugate-symmetric monomial pairs (bidegrees
    k, l >= 2, weight <= max_weight), occasionally a pure <z,z>^k u^r
    control; proposals failing the trace conditions are rejected and
    redrawn, at most MAX_TRIES times; coefficients come from DEFAULT_POOL.
    """
    n = form.n
    for _ in range(MAX_TRIES):
        f_poly = Poly.zero(n)
        if rng.random() < 0.2:
            choices = [(k, r) for k in (4, 5) for r in (0, 1)
                       if 2 * k + 2 * r <= max_weight]
            if not choices:
                continue
            k, r = rng.choice(choices)
            coeff = rng.choice(DEFAULT_POOL)
            f_poly = (form.inner_power(k) * Poly.u(n).pow(r)).scale(coeff)
        else:
            for _ in range(rng.choice((1, 1, 2))):
                k = rng.choice((2, 2, 3, 4))
                l = rng.choice((2, 2, 3, 4))
                rmax = (max_weight - k - l) // 2
                if rmax < 0:
                    continue
                r = rng.randrange(rmax + 1) if rmax else 0
                zexp = _random_composition(rng, k, n)
                zbexp = _random_composition(rng, l, n)
                if zexp == zbexp:
                    coeff = GaussianRational(rng.choice(DEFAULT_POOL))
                else:
                    coeff = GaussianRational(rng.choice(DEFAULT_POOL), rng.choice(DEFAULT_POOL))
                mono = Poly.monomial(n, zexp, zbexp, r, coeff)
                f_poly = f_poly + mono + mono.conjugate()
        if f_poly.is_zero():
            continue
        surface = Hypersurface(form, f_poly, max_weight)
        if check_normal_form(surface).passed:
            return surface
    raise RuntimeError("rejection sampling failed to produce a normal-form surface")


def run_census(config: CensusConfig) -> dict:
    rng = random.Random(config.seed)
    pairs = []
    for n, m in config.pairs():
        form = standard_form(n, m, DIAGONAL if m == 0 else ANTIDIAGONAL)
        dims: Dict[int, int] = {}
        violations: List[dict] = []
        failures: List[dict] = []
        controls = 0
        for _ in range(config.samples):
            surface = random_normal_form_surface(rng, form, config.max_weight)
            result = classify(surface)
            dims[result.dim] = dims.get(result.dim, 0) + 1
            if result.function_of_form_and_u:
                controls += 1
                if result.dim != n * n:
                    failures.append(surface_to_json(surface))
            if not result.gap_ok:
                violations.append(surface_to_json(surface))
        pairs.append({
            "n": n,
            "m": m,
            "samples": config.samples,
            "dims": {str(d): c for d, c in sorted(dims.items())},
            "gap_violations": len(violations),
            "gap_violation_surfaces": violations,
            "function_controls": controls,
            "control_failures": failures,
        })
    return {
        "seed": config.seed,
        "samples_per_pair": config.samples,
        "max_weight": config.max_weight,
        "pairs": pairs,
        "gap_violations": sum(pair["gap_violations"] for pair in pairs),
    }
