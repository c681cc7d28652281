"""Trace operator, normal-form conditions, umbilicity.

A hypersurface is v = <z,z> + F(z, conj z, u) with F real, free of
harmonic terms (every monomial has z-degree >= 2 and conj-z-degree >= 2)
and truncated at a declared weight.  The three normal-form conditions are

    tr   F_{2 2bar} = 0,
    tr^2 F_{2 3bar} = 0,
    tr^3 F_{3 3bar} = 0,

with tr = sum_{a,b} hinv_ab d^2/dz_a dzbar_b and hinv the exact inverse of
the form matrix.
"""

from __future__ import annotations

from math import comb
from typing import Dict, Tuple

from .forms import HermitianForm
from .poly import Poly
from .value import Frozen

CONDITION_NAMES = ("trF22", "tr2F23", "tr3F33")


class NormalFormError(ValueError):
    """A hypersurface violated a structural precondition."""


class Hypersurface(Frozen):
    """v = <z,z> + F with F real, harmonic-free, weight-truncated."""

    __slots__ = ("form", "F", "max_weight")

    def __init__(self, form: HermitianForm, F: Poly, max_weight: int):
        if F.n != form.n:
            raise NormalFormError(f"F has dimension {F.n}, form has {form.n}")
        if not F.is_real():
            raise NormalFormError(f"coefficient symmetry broken at monomial {F.real_violation()}")
        # the first harmonic key's bidegree, read off the keys: no part of F is built
        harmonic = next((d for d in F.key_bidegrees() if min(d) < 2), None)
        if harmonic is not None:
            raise NormalFormError(
                f"harmonic term (degree ({harmonic[0]},{harmonic[1]})) not allowed "
                f"in a normal-form F")
        top = F.max_weight()
        if top is not None and top > max_weight:
            raise NormalFormError(f"F contains weight {top} > declared maxWeight {max_weight}")
        if max_weight < 0:  # reached by F = 0 only: a nonzero F fails the weight check first
            raise NormalFormError(f"maxWeight must be non-negative, got {max_weight}")
        self._fill(form, F, max_weight)

    @property
    def n(self) -> int:
        return self.form.n

    @property
    def m(self) -> int:
        return self.form.m


class NormalFormReport(Frozen):
    __slots__ = ("passed", "violations")

    def __init__(self, passed: bool, violations: Tuple[Tuple[str, Poly], ...] = ()):
        self._fill(passed, violations)

    def violated(self) -> str:
        """The names of the violated conditions, comma-separated."""
        return ", ".join(name for name, _ in self.violations)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [
                {"condition": name, "residual": residual.to_json()}
                for name, residual in self.violations
            ],
        }


def trace_op(form: HermitianForm, p: Poly) -> Poly:
    """sum_ab hinv_ab d^2 p / dz_a dzbar_b with hinv = H^{-1}, exactly.

    One packed kernel (Poly.trace) reads the numerators of H^{-1}, which
    the form keeps as a Matrix: Gaussian integers over one denominator.
    """
    if p.n != form.n:
        raise ValueError(f"polynomial dimension {p.n} does not match form {form.n}")
    return p.trace(form.inverse_matrix())


def check_normal_form(surface: Hypersurface) -> NormalFormReport:
    """Evaluate the three trace conditions exactly, with full u-dependence."""
    return _trace_report(surface.form, surface.F.bidegree_parts())


def _trace_report(form: HermitianForm, parts: Dict[Tuple[int, int], Poly]) -> NormalFormReport:
    """check_normal_form on the bidegree parts of F."""
    zero = Poly.zero(form.n)
    residuals = [
        ("trF22", trace_op(form, parts.get((2, 2), zero))),
        ("tr2F23", trace_op(form, trace_op(form, parts.get((2, 3), zero)))),
        ("tr3F33", trace_op(form, trace_op(form, trace_op(form, parts.get((3, 3), zero))))),
    ]
    violations = tuple((name, r) for name, r in residuals if not r.is_zero())
    return NormalFormReport(passed=not violations, violations=violations)


def is_umbilic_origin(surface: Hypersurface) -> bool:
    """True iff F_{2 2bar}(., ., 0) = 0; requires the surface in normal form."""
    parts = surface.F.bidegree_parts()
    report = _trace_report(surface.form, parts)
    if not report.passed:
        raise NormalFormError(
            f"umbilicity is defined for normal-form surfaces only; "
            f"violated: {report.violated()}")
    return parts.get((2, 2), Poly.zero(surface.n)).at_u_zero().is_zero()


def is_function_of_form_and_u(surface: Hypersurface) -> bool:
    """True iff F is a polynomial in <z,z> and u.

    F must vanish in every off-diagonal bidegree, and each (k,k) part must
    be c(u) <z,z>^k for a real polynomial c(u): each of its u-power slices
    has exactly the packed keys of <z,z>^k and numerators that are one real
    multiple of its numerators (Poly.is_real_u_multiple).  H is nondegenerate,
    so <z,z>^k has a term z^a conj(z)^b for each of the C(k+n-1, n-1)
    exponents |a| = k: a smaller part fails before any power is built.
    """
    parts = surface.F.bidegree_parts()
    return (all(k == l and len(part) >= comb(k + surface.n - 1, surface.n - 1)
                for (k, l), part in parts.items())
            and all(part.is_real_u_multiple(surface.form.inner_power(k))
                    for (k, _l), part in parts.items()))
