"""Truncated holomorphic polynomial maps (f, g) in the variables (z, w).

Jets are graded by weight with z of weight 1 and w of weight 2, matching
the surface-side grading once w is replaced by u + i(<z,z> + F).  Because
w and u share that weight, a holomorphic polynomial in (z, w) is a Poly
with no conj(z) and w held in the u slot: `HoloPoly` is that Poly, viewed
through (zexp, wexp) keys, and it inherits all of Poly's arithmetic.  A
JetMap carries its truncation weight D: monomials of weight > D are dropped
and identities involving the jet are exact for all weights < D.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import Optional, Tuple

from . import packed as pk
from .gaussrat import GaussianLike, GaussianRational, parse_int
from .linalg import Matrix
from .poly import Poly, Powers, linear_monos, term_list
from .value import Frozen

HoloMono = Tuple[Tuple[int, ...], int]


class HoloPoly(Poly):
    """Polynomial in z_1..z_n and w over Q(i): a Poly with w in the u slot."""

    __slots__ = ()

    def __init__(self, n: int, terms: Optional[Mapping[HoloMono, GaussianLike]] = None):
        zeros = (0,) * n
        super().__init__(n, {(z, zeros, w): c for (z, w), c in (terms or {}).items()})

    @property
    def terms(self) -> Mapping[HoloMono, GaussianRational]:
        """A read-only snapshot (zexp, wexp) -> coefficient, unpacked on each access."""
        return MappingProxyType({(z, w): c for (z, _zb, w), c in pk.unpack(self.n, self._packed)})

    @classmethod
    def w(cls, n: int) -> "HoloPoly":
        return cls.u(n)

    @classmethod
    def zbar(cls, n: int, idx: int) -> "HoloPoly":
        raise ValueError("a holomorphic polynomial has no conj(z) variable")

    @classmethod
    def monomial(cls, n: int, zexp, zbexp, uexp: int, coeff: GaussianLike = 1) -> "HoloPoly":
        """z^zexp w^uexp; a nonzero conj(z) exponent zbexp is a ValueError."""
        if any(zbexp):
            raise ValueError("a holomorphic polynomial has no conj(z) variable")
        return super().monomial(n, zexp, zbexp, uexp, coeff)

    weight_truncate = Poly.truncate_weight

    def substitute_w(self, wpoly: Poly | Powers, max_weight: Optional[int] = None) -> Poly:
        """Evaluate with z_i kept and w replaced by a mixed polynomial or the chain of its
        powers, which several substitutions share (see Poly.substitute)."""
        return self.substitute(usub=wpoly, max_weight=max_weight)

    def terms_to_json(self) -> list:
        return [{"z": t["z"], "w": t["u"], "re": t["re"], "im": t["im"]}
                for t in super().terms_to_json()]

    @classmethod
    def terms_from_json(cls, n: int, items) -> "HoloPoly":
        """Poly's term-list parser with w in the u slot; other keys are ignored."""
        kept = [{key: value for key, value in item.items() if key in ("z", "w", "re", "im")}
                for item in term_list(items)]
        return Poly.terms_from_json(n, kept, u_field="w")._as(cls)


class JetMap(Frozen):
    """Origin-preserving truncated map z -> f(z,w), w -> g(z,w)."""

    __slots__ = ("f", "g", "D")

    def __init__(self, f: Tuple[HoloPoly, ...], g: HoloPoly, D: int):
        f = tuple(f)
        n = g.n
        if any(fi.n != n for fi in f):
            raise ValueError("jet components have mismatched dimensions")
        if len(f) != n:
            raise ValueError(f"jet must have {n} z-components")
        # a HoloPoly holds no conj(z) term, since its constructors refuse one
        for name, p in [*((f"f{i + 1}", fi) for i, fi in enumerate(f)), ("g", g)]:
            if not isinstance(p, HoloPoly) and any(l for _k, l in p.key_bidegrees()):
                raise ValueError(f"jet component {name} has a conj(z) term")
        if any(p.min_weight() == 0 for p in (*f, g)):  # only a constant has weight 0
            raise ValueError("jet must preserve the origin")
        if D < 1:
            raise ValueError("truncation weight must be positive")
        self._fill(f, g, D)

    @property
    def n(self) -> int:
        return self.g.n

    def linear_part(self) -> Matrix:
        """d(f, g)/d(z, w)(0), the (n+1) x (n+1) Matrix read off the packed numerators.

        Row i holds the coefficients of z_1, .., z_n and w in the i-th of
        f_1, .., f_n, g: its weight-1 z keys and its w key.
        """
        monos = linear_monos(self.n)
        return Matrix.blocks([[Matrix.from_numerators(1, self.n + 1, p._packed[1],
                                                      *pk.numerators(p._packed, monos))]
                              for p in (*self.f, self.g)])

    @classmethod
    def identity(cls, n: int, D: int) -> "JetMap":
        return cls(tuple(HoloPoly.z(n, i) for i in range(n)), HoloPoly.w(n), D)

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "f": [fi.terms_to_json() for fi in self.f],
            "g": self.g.terms_to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "JetMap":
        d = parse_int(obj["D"], "jet field 'D'")
        fts = obj["f"]
        if not isinstance(fts, list):
            raise ValueError("jet field 'f' must be a list of term lists")
        n = len(fts)
        f = tuple(HoloPoly.terms_from_json(n, items) for items in fts)
        g = HoloPoly.terms_from_json(n, obj["g"])
        return cls(f, g, d)
