"""Exact sparse polynomials in z_1..z_n, conj(z_1)..conj(z_n), u.

A polynomial maps monomial keys to GaussianRational coefficients.  A
monomial key is the triple

    (zexp, zbexp, uexp)   with zexp, zbexp tuples of length n

so z_a and its conjugate are independent variables and u is real.  The zero
polynomial has no terms; zero coefficients are never stored.

Two gradings run through everything:

  * bidegree (k, l)  --  k = sum(zexp), l = sum(zbexp);
  * weight           --  k + l + 2*uexp  (z of weight 1, u of weight 2).

Both are read off the packed keys: a weight band is one slice of them, and
`bidegree_parts` splits a polynomial into all of its bidegree parts in one
pass, from which a caller reads every part it needs.

Conjugation swaps zexp and zbexp and conjugates the coefficient; a
polynomial is *real* (real-valued on the real locus) exactly when it is
fixed by that involution.

A Poly stores one form, the packed integer form of `crmoser.packed`:
integer numerators over one shared denominator, one integer key per
monomial, keys in weight order.  Every method runs on it.  Monomial keys
and GaussianRational coefficients exist only at the boundary: a Poly built
from a term dict is packed at once, and `coeff`, `terms`, `to_json` and
`str` read the packed form without storing anything else: `terms` is a
read-only snapshot (a `MappingProxyType` over a fresh dict), unpacked on
each access, not a view.  `len(p)` is the number of terms.  A weight cap
reads a prefix of the packed keys, which keeps truncated series
composition exact for every weight below it.  A sum of products
(substitution, pairings) goes into one `ProductSum`, which sorts and
reduces the sum once instead of once per product and per addition.  Every
power in the kernel comes from one chain type, `Powers`: p^e, conj(p^e)
and p^e conj(p)^e', each built once under a weight cap.
Field widths are chosen in `crmoser.packed` alone: `product_plan` for
products, `align` for everything else.

Ring operations (sums, scalings, products, powers, weight truncations)
return the operands' class when they share one and Poly otherwise, so a
subclass that only renames variables, such as `crmoser.jets.HoloPoly`
(holomorphic jets with w held in the u slot), keeps its class under its own
arithmetic.  Poly's own methods never read `terms`, which a subclass may
key differently.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from operator import or_
from types import MappingProxyType
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import packed as pk
from .gaussrat import (
    GaussianLike,
    GaussianRational,
    _over_one_den,
    as_fraction,
    format_rational,
    parse_int,
    rational_parts,
    scalar_parts,
)
from .value import Frozen

Mono = Tuple[Tuple[int, ...], Tuple[int, ...], int]


def linear_monos(n: int) -> List[Mono]:
    """The monomials z_1, .., z_n and u, in that order."""
    zeros = (0,) * n
    return [(tuple(int(i == j) for i in range(n)), zeros, 0) for j in range(n)] + [
        (zeros, zeros, 1)]


class Poly(Frozen):
    """Exact polynomial over Q(i) in (z, conj z, u); immutable.

    `_packed` is its packed form (see `crmoser.packed`), reduced, with sorted
    keys and no zero term; the field width may exceed the least one that
    holds the exponents, so equality and hashing do not depend on it: the
    key order is the same at every width.
    """

    __slots__ = ("n", "_packed")

    def __init__(self, n: int, terms: Optional[Mapping[Mono, GaussianLike]] = None):
        if n < 0:
            raise ValueError("dimension must be non-negative")
        entries = []
        for mono, coeff in (terms or {}).items():
            _check_mono(mono, n)
            z, zb, u = mono
            entries.append(((tuple(z), tuple(zb), u), *scalar_parts(coeff)))
        self._fill(n, pk.pack_rationals(entries))

    def _as(self, cls: type) -> "Poly":
        """The same polynomial as an instance of `cls`, sharing the packed form."""
        if type(self) is cls:
            return self
        return cls._from_packed(self.n, self._packed)

    def _kind(self, other: "Poly") -> type:
        """The class of a ring result: the operands' class when they share one."""
        return type(self) if type(other) is type(self) else Poly

    @classmethod
    def _from_packed(cls, n: int, packed: pk.Packed) -> "Poly":
        # internal: packed form already reduced, with sorted keys and no zero terms
        p = object.__new__(cls)
        _set_n(p, n)
        _set_packed(p, packed)
        return p

    @property
    def terms(self) -> Mapping[Mono, GaussianRational]:
        """A read-only snapshot monomial -> coefficient, unpacked on each access."""
        return MappingProxyType(dict(pk.unpack(self.n, self._packed)))

    def __len__(self):
        """The number of terms."""
        return pk.size(self._packed)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls._from_packed(n, pk.ZERO)

    @classmethod
    def constant(cls, n: int, c: GaussianLike) -> "Poly":
        zeros = (0,) * n
        return cls._from_packed(n, pk.pack_rationals([((zeros, zeros, 0), *scalar_parts(c))]))

    @classmethod
    def z(cls, n: int, idx: int) -> "Poly":
        return cls._var(n, idx, 0)

    @classmethod
    def zbar(cls, n: int, idx: int) -> "Poly":
        return cls._var(n, idx, 1)

    @classmethod
    def u(cls, n: int) -> "Poly":
        zeros = (0,) * n
        return cls._from_packed(n, pk.pack_rationals([((zeros, zeros, 1), 1, 1, 0, 1)]))

    @classmethod
    def _var(cls, n: int, idx: int, bar: int) -> "Poly":
        if not 0 <= idx < n:
            raise ValueError(f"variable index {idx} out of range for n={n}")
        e = tuple(1 if i == idx else 0 for i in range(n))
        zeros = (0,) * n
        mono = (zeros, e, 0) if bar else (e, zeros, 0)
        return cls._from_packed(n, pk.pack_rationals([(mono, 1, 1, 0, 1)]))

    @classmethod
    def monomial(cls, n: int, zexp: Sequence[int], zbexp: Sequence[int], uexp: int,
                 coeff: GaussianLike = 1) -> "Poly":
        return Poly(n, {(tuple(zexp), tuple(zbexp), uexp): coeff})._as(cls)

    @classmethod
    def linear_forms(cls, n: int, m: "Matrix") -> List["Poly"]:
        """Row i of m as the linear form sum_j m_ij z_j, packed from the numerators of m.

        m has n columns, or n + 1 with the last one on u (on w, for a HoloPoly).
        """
        c = m.ncols
        if c not in (n, n + 1):
            raise ValueError(f"linear forms in {n} variables need {n} or {n + 1} columns")
        monos, den, re, im = linear_monos(n)[:c], m.den, m.re, m.im
        return [cls._from_packed(n, pk.pack_rationals(
            [(mono, re[k], den, im[k], den) for k, mono in enumerate(monos, i * c)]))
            for i in range(m.nrows)]

    # -- basic queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self

    def coeff(self, mono: Mono) -> GaussianRational:
        """The coefficient of a monomial, zero when it is absent or not of dimension n."""
        z, zb, _u = mono
        if len(z) != self.n or len(zb) != self.n:
            return GaussianRational(0)
        (re,), (im,) = pk.numerators(self._packed, [mono])
        return GaussianRational(Fraction(re, self._packed[1]), Fraction(im, self._packed[1]))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = type(self).constant(self.n, other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.n != other.n or len(self) != len(other):
            return False
        # packed forms are canonical once their field widths agree
        a, b = pk.align(self.n, [self._packed, other._packed])
        return a[1:] == b[1:]

    def __hash__(self):
        # neither the weights in key order nor the numerators depend on the field width
        _bits, den, data = self._packed
        return hash((self.n, den, tuple(pk.weights(self._packed, self.n)), tuple(data[len(self):])))

    def sorted_terms(self) -> List[Tuple[Mono, GaussianRational]]:
        """Canonical order: lexicographic on (uexp, zexp, zbexp)."""
        return sorted(pk.unpack(self.n, self._packed),
                      key=lambda kv: (kv[0][2], kv[0][0], kv[0][1]))

    # -- ring operations ---------------------------------------------------------

    def _check_dim(self, other: "Poly"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def _combine(self, other, subtract: bool) -> "Poly":
        """self + other, or self - other when `subtract`; other is a Poly or a scalar."""
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = type(self).constant(self.n, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_dim(other)
        cls = self._kind(other)
        if not other:
            return self._as(cls)
        if not self:
            return (-other if subtract else other)._as(cls)
        return cls._from_packed(
            self.n, pk.combine(*pk.align(self.n, [self._packed, other._packed]), subtract))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: GaussianLike) -> "Poly":
        cd, (cr,), (ci,) = _over_one_den([scalar_parts(c)])
        cls = type(self)
        if not cr and not ci:
            return cls.zero(self.n)
        return cls._from_packed(self.n, pk.scale(self._packed, cd, cr, ci))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.mul(other)

    __rmul__ = __mul__

    def mul(self, other: "Poly", max_weight: Optional[int] = None) -> "Poly":
        """Exact product, optionally without the terms of weight > max_weight.

        Weights only add, so a capped product agrees with the exact product
        on every monomial of weight <= max_weight (see packed.product_plan).
        """
        self._check_dim(other)
        cls = self._kind(other)
        plan = pk.product_plan(self.n, self._packed, other._packed, max_weight)
        if plan is None:
            return cls.zero(self.n)
        return cls._from_packed(self.n, pk.product(self.n, *plan, max_weight))

    def pow(self, exp: int) -> "Poly":
        """self^exp, the last power of a chain (see Powers)."""
        if exp < 0:
            raise ValueError("negative exponent")
        return Powers(self).power(exp)

    __pow__ = pow

    # -- conjugation and reality ---------------------------------------------------

    def conjugate(self) -> "Poly":
        """Coefficient conjugation combined with the z <-> conj(z) swap."""
        return Poly._from_packed(self.n, pk.conjugate(self._packed, self.n))

    def is_real(self) -> bool:
        return self == self.conjugate()

    def real_violation(self) -> Optional[Mono]:
        """A monomial witnessing broken coefficient symmetry, or None.

        The witness is the first violating monomial in weight (key) order,
        whichever form is stored.
        """
        diff = self - self.conjugate()
        if not diff:
            return None
        return next(pk.unpack(self.n, diff._packed))[0]

    def real_part(self) -> "Poly":
        return (self + self.conjugate()).scale(Fraction(1, 2))

    def imag_part(self) -> "Poly":
        return (self - self.conjugate()).scale(GaussianRational(0, Fraction(-1, 2)))

    # -- gradings ---------------------------------------------------------------

    def bidegree_parts(self) -> Dict[Tuple[int, int], "Poly"]:
        """{(k, l): the terms of bidegree (k, l)}, one pass over the packed keys.

        The parts come in the order of their first key (see packed.by_bidegree).
        """
        n = self.n
        return {d: Poly._from_packed(n, part)
                for d, part in pk.by_bidegree(self._packed, n).items()}

    def bidegree_component(self, k: int, l: int) -> "Poly":
        return self.bidegree_parts().get((k, l), Poly.zero(self.n))

    def bidegrees(self) -> List[Tuple[int, int]]:
        return sorted(set(self.key_bidegrees()))

    def key_bidegrees(self) -> List[Tuple[int, int]]:
        """The bidegree of each term, in key order, read off the keys (see packed.bidegrees)."""
        return pk.bidegrees(self._packed, self.n)

    def weight_decompose(self) -> Dict[int, "Poly"]:
        weights = sorted(set(pk.weights(self._packed, self.n)))
        return {w: self.weight_component(w) for w in weights}

    def weight_component(self, w: int) -> "Poly":
        return Poly._from_packed(self.n, pk.truncate(self._packed, self.n, w, w))

    def min_weight(self) -> Optional[int]:
        """Lowest weight present (gamma when applied to a defining function)."""
        return pk.weight(self._packed, 0, self.n) if self else None

    def max_weight(self) -> Optional[int]:
        return pk.weight(self._packed, -1, self.n) if self else None

    def truncate_weight(self, max_weight: int) -> "Poly":
        return type(self)._from_packed(self.n, pk.truncate(self._packed, self.n, max_weight))

    def u_coefficients(self) -> Dict[int, "Poly"]:
        """{j: p_j} with self = sum_j u^j p_j and each p_j free of u, zero ones left out."""
        n = self.n
        return {j: Poly._from_packed(n, part)
                for (j,), part in pk.split(self._packed, n, [2 * n]).items()}

    # -- calculus ----------------------------------------------------------------

    def _field(self, kind: str, idx: int) -> int:
        """The packed field of the variable z_idx, conj(z_idx) or u (kind 'z', 'zbar', 'u')."""
        n = self.n
        if kind == "u":
            return 2 * n
        if kind in ("z", "zbar"):
            if not 0 <= idx < n:
                raise ValueError(f"variable index {idx} out of range for n={n}")
            return idx if kind == "z" else n + idx
        raise ValueError(f"unknown variable kind {kind!r}")

    def partial(self, kind: str, idx: int = 0) -> "Poly":
        """Formal partial derivative; kind is 'z', 'zbar' or 'u'."""
        n = self.n
        field = self._field(kind, idx)
        if not self:
            return Poly.zero(n)
        return Poly._from_packed(n, pk.derivative(self._packed, n, field))

    def trace(self, hinv: "Matrix") -> "Poly":
        """sum_ab h_ab d^2/dz_a dconj(z_b) of self for the n x n matrix hinv = (h_ab), read
        off its numerators by one packed kernel (see packed.trace)."""
        if not self:
            return Poly.zero(self.n)
        return Poly._from_packed(self.n, pk.trace(self._packed, self.n, hinv.den, hinv.re,
                                                  hinv.im))

    def is_real_u_multiple(self, q: "Poly") -> bool:
        """True iff self = c(u) q for a polynomial c(u) with real coefficients; q is free of u.

        Read off the packed forms at one field width: every u-power slice of
        self must have exactly the keys of q, and numerators that are one
        real multiple of q's, which integer cross-multiplication decides.
        """
        self._check_dim(q)
        n = self.n
        if not q:
            return not self
        packed_q, packed = pk.align(n, [q._packed, self._packed])
        keys_q, res_q, ims_q = pk.columns(packed_q)
        keys_q = list(keys_q)
        nums_q = [*res_q, *ims_q]
        ref = next(i for i, x in enumerate(nums_q) if x)  # q's first nonzero numerator
        at_ref = nums_q[ref]
        for part in pk.split(packed, n, [2 * n]).values():
            keys, res, ims = pk.columns(part)
            if list(keys) != keys_q:
                return False
            nums = [*res, *ims]
            c = nums[ref]  # self's slice is (c / at_ref) q
            if any(x * at_ref != c * y for x, y in zip(nums, nums_q)):
                return False
        return True

    # -- substitution --------------------------------------------------------------

    def substitute(
        self,
        zsubs: Optional[Sequence["Poly"]] = None,
        zbarsubs: Optional[Sequence["Poly"]] = None,
        usub: Optional["Poly"] = None,
        max_weight: Optional[int] = None,
    ) -> "Poly":
        """Evaluate with z_a -> zsubs[a], conj(z_a) -> zbarsubs[a], u -> usub.

        None keeps the corresponding variables.  A target is a polynomial
        or the chain of its powers (a `Powers` capped at or above
        max_weight, else ValueError).  Targets must share one target
        dimension, which must be n when a variable is kept.  The caller is
        responsible for conjugation consistency when reality matters (see
        ProductSum.add_real_substitution).  Terms of weight > max_weight are dropped.

        Monomials are grouped by their exponents in the substituted
        variables.  Each group's kept part is multiplied by one power of
        each target, read from its chain, and the last product of every
        group goes into one ProductSum, which collects the sum once.
        """
        slots, n_out = _slots(self.n, zsubs, zbarsubs, usub)
        total = ProductSum(n_out, max_weight)
        _add_groups(total, self, slots, 1, real=False)
        return total.poly()

    def substitute_linear(self, a_matrix: "Matrix", u_scale: Fraction) -> "Poly":
        """P(Az, conj(A) conj(z), u_scale*u), expanded exactly.

        Reality is preserved by construction: the conjugate variables are
        substituted through the entrywise-conjugate matrix, and u_scale is
        real (it may be negative, covering the sigma = -1 case).  The
        targets (Az)_i are the linear forms of A's rows (see linear_forms).
        """
        n = self.n
        if a_matrix.nrows != n or a_matrix.ncols != n:
            raise ValueError("matrix size does not match polynomial dimension")
        u_scale = as_fraction(u_scale)
        if u_scale == 0:
            raise ValueError("u scale must be nonzero")
        zsubs = Poly.linear_forms(n, a_matrix)
        return self.substitute(zsubs, [p.conjugate() for p in zsubs], Poly.u(n).scale(u_scale))

    def at_u_zero(self) -> "Poly":
        return self.u_coefficients().get(0, Poly.zero(self.n))

    # -- serialization ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "terms": self.terms_to_json()}

    def terms_to_json(self) -> list:
        out = []
        for (z, zb, u), c in self.sorted_terms():
            out.append({
                "z": list(z),
                "zbar": list(zb),
                "u": u,
                "re": format_rational(c.re),
                "im": format_rational(c.im),
            })
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Poly":
        return cls.terms_from_json(parse_int(obj["n"], "n"), obj.get("terms", []))

    @classmethod
    def terms_from_json(cls, n: int, items: Iterable[dict], u_field: str = "u") -> "Poly":
        """The polynomial of a JSON term list; ValueError on a malformed one.

        The exponent of the u slot is read from the field named `u_field`.
        The coefficients of a repeated monomial are summed.  Each part is
        read as an integer fraction and packed over one denominator, with
        no GaussianRational in between.
        """
        entries = []
        for item in term_list(items):
            z = _exponents(item, "z", n)
            zb = _exponents(item, "zbar", n)
            u = parse_int(item.get(u_field, 0), f"term field {u_field!r}")
            entries.append(((z, zb, u), *rational_parts(str(item.get("re", "0"))),
                            *rational_parts(str(item.get("im", "0")))))
        if n < 0:
            raise ValueError("dimension must be non-negative")
        for entry in entries:
            _check_mono(entry[0], n)
        return cls._from_packed(n, pk.pack_rationals(entries))

    # -- display ------------------------------------------------------------------

    def __str__(self):
        if not self:
            return "0"
        parts = []
        for (z, zb, u), c in self.sorted_terms():
            factors = []
            for i, e in enumerate(z):
                if e:
                    factors.append(f"z{i+1}" + (f"^{e}" if e > 1 else ""))
            for i, e in enumerate(zb):
                if e:
                    factors.append(f"~z{i+1}" + (f"^{e}" if e > 1 else ""))
            if u:
                factors.append("u" + (f"^{u}" if u > 1 else ""))
            body = " ".join(factors) if factors else "1"
            parts.append(f"({c}) {body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, terms={len(self)})"


_set_n, _set_packed = Poly._setters


def _slots(n: int, zsubs, zbarsubs, usub) -> Tuple[list, int]:
    """(one target or None per variable, target dimension); ValueError on a mismatch.

    The variables are in the order z_1..z_n, conj(z_1)..conj(z_n), u.
    """
    if zsubs is not None and len(zsubs) != n:
        raise ValueError("zsubs must supply one polynomial per variable")
    if zbarsubs is not None and len(zbarsubs) != n:
        raise ValueError("zbarsubs must supply one polynomial per variable")
    slots = [*(zsubs if zsubs is not None else [None] * n),
             *(zbarsubs if zbarsubs is not None else [None] * n), usub]
    moved = [p for p in slots if p is not None]
    n_out = moved[0].n if moved else n
    if any(p.n != n_out for p in moved):
        raise ValueError("substitution targets have mismatched dimensions")
    if len(moved) < len(slots) and n_out != n:
        raise ValueError(
            f"kept variables need substitution targets of dimension {n}, got {n_out}")
    return slots, n_out


class ProductSum:
    """A sum of products c a b of polynomials, built in one accumulator.

    Each product adds its numerators straight into one packed accumulator
    over a shared denominator (`crmoser.packed.accumulate`), without its
    terms of weight > max_weight, and the sum is sorted and reduced once,
    by `poly` or `real`.  The denominator and the field width grow when an
    operand needs it; a capped sum has at least the field width of its cap,
    as a capped product does.  A scalar reaches the accumulator as integer
    numerators: `add` converts it once (gaussrat.scalar_parts), and
    `add_form` reads the numerators of a Matrix.

    A real value V can be added as a half H with H + conj(H) = V
    (`add_real_substitution`, or `add` of V/2 or of either half of a
    conjugate pair of products).  `real` returns S + conj(S) for
    the sum S, so it completes every half at once; a sum that holds halves
    must be read with `real`.
    """

    __slots__ = ("n", "max_weight", "bits", "den", "cells")

    def __init__(self, n: int, max_weight: Optional[int] = None):
        self.n, self.max_weight, self.bits, self.den = n, max_weight, 1, 1
        self.cells: Dict[int, List[int]] = {}

    def add(self, a: Poly, b: Optional[Poly] = None, c: GaussianLike = 1) -> None:
        """Add c a b, or c a when b is None."""
        self._check_dim(a)
        if b is not None:
            self._check_dim(b)
        den, (re,), (im,) = _over_one_den([scalar_parts(c)])
        self._add(a._packed, pk.one(a._packed[0]) if b is None else b._packed, den, re, im)

    def add_form(self, m: "Matrix", left: Sequence[Optional[Poly]],
                 right: Sequence[Optional[Poly]]) -> None:
        """Add sum_ab m_ab left[a] right[b] for a matrix m; a term with a None operand is skipped.

        The entries are read as the integer numerators of m over m.den (see
        linalg.Matrix), one product per nonzero entry; those are found by
        one scan in C, since the directions of a stabilizer solve have few.
        """
        c, mre, mim = m.ncols, m.re, m.im
        for k in compress(count(), map(or_, mre, mim)):
            a, b = left[k // c], right[k % c]
            if a is not None and b is not None:
                self._check_dim(a)
                self._check_dim(b)
                self._add(a._packed, b._packed, m.den, mre[k], mim[k])

    def _add(self, pa: pk.Packed, pb: pk.Packed, den: int, re: int, im: int) -> None:
        """Add (re + i*im) / den times the product of the packed forms pa and pb; den > 0.

        Nothing is added when the product lies above the cap.  Otherwise the
        accumulator is first widened to the product's field width (see
        packed.product_plan) and brought to a common denominator with it, the
        one integer multiplier path of every sum.
        """
        n, cap = self.n, self.max_weight
        plan = pk.product_plan(n, pa, pb, cap, self.bits) if re or im else None
        if plan is None:
            return
        pa, pb = plan
        bits = pa[0]
        if bits > self.bits:
            cells = self.cells
            self.cells = dict(zip(pk.widen_keys(cells, n, self.bits, bits), cells.values()))
            self.bits = bits
        g = gcd(den, re, im)
        den = pa[1] * pb[1] * (den // g)
        common = lcm(self.den, den)
        if common != self.den:
            f = common // self.den
            for cell in self.cells.values():
                cell[0] *= f
                cell[1] *= f
            self.den = common
        f = common // den
        pk.accumulate(self.cells, n, pa, pb, cap, (re // g * f, im // g * f))

    def add_real_substitution(self, p: Poly, zsubs: Sequence[Poly], usub: Optional[Poly],
                              c: GaussianLike = 1) -> None:
        """Add a half of c p(zsubs, conj(zsubs), usub) for real p, usub and c.

        A usub of None keeps u, which is real too.
        Only the monomials with zexp > zbexp and half of each monomial with
        zexp == zbexp are substituted; the others are the conjugates of
        these.  Powers of conj(zsubs) are the conjugates of the zsubs powers.
        """
        if zsubs is None:
            raise ValueError("a real substitution needs zsubs")
        slots, n_out = _slots(p.n, zsubs, zsubs, usub)
        if n_out != self.n:
            raise ValueError("substitution targets do not match the sum's dimension")
        _add_groups(self, p, slots, c, real=True)

    def _check_dim(self, a: Poly) -> None:
        if a.n != self.n:
            raise ValueError(f"dimension mismatch: {a.n} vs {self.n}")

    def poly(self) -> Poly:
        """The sum."""
        return Poly._from_packed(self.n, pk.collect(self.bits, self.den, self.cells))

    def real(self) -> Poly:
        """The sum plus its conjugate; the accumulator is used up."""
        self.real_cells()
        return self.poly()

    def real_cells(self) -> Tuple[int, Dict[int, List[int]]]:
        """The sum plus its conjugate as (den, key -> [re, im]), unreduced; used up as `real`."""
        pk.mirror(self.cells, self.n, self.bits)
        return self.den, self.cells

    def real_is_zero(self) -> bool:
        """Whether `real` is zero, read off the accumulator without collecting it."""
        return pk.mirror_is_zero(self.cells, self.n, self.bits)


class Powers:
    """The powers p^e of a polynomial p, capped at weight `cap` (None: exact), each built once.

    p^e is p^(e-1) p by one capped `Poly.mul`; conj(p^e) and p^e conj(p)^e2
    are kept on their first read too.  A capped chain truncates its base and
    packs it once at the cap's field width (`packed.align`), the width of
    each of its products, so no product re-packs it.  A capped power agrees
    with the exact one on every weight up to the cap, so a sum capped at or
    below it may read the chain (see `_chain`).
    """

    __slots__ = ("n", "base", "cap", "_powers", "_conj", "_mixed")

    def __init__(self, base: Poly, cap: Optional[int] = None):
        n = self.n = base.n
        if cap is not None:
            base = type(base)._from_packed(n, pk.align(n, [pk.truncate(base._packed, n, cap),
                                                           pk.one(pk.field_bits(cap))])[0])
        self.base, self.cap = base, cap
        self._powers = [type(base).constant(n, 1), base]
        self._conj, self._mixed = {}, {}

    def power(self, e: int) -> Poly:
        """p^e for e >= 0."""
        while len(self._powers) <= e:
            self._powers.append(self._powers[-1].mul(self.base, self.cap))
        return self._powers[e]

    def conjugate(self, e: int) -> Poly:
        """conj(p^e)."""
        if e not in self._conj:
            self._conj[e] = self.power(e).conjugate()
        return self._conj[e]

    def mixed(self, e: int, e2: int) -> Poly:
        """p^e conj(p)^e2; its conjugate is mixed(e2, e)."""
        if (e, e2) not in self._mixed:
            self._mixed[(e, e2)] = self.power(e).mul(self.conjugate(e2), self.cap)
        return self._mixed[(e, e2)]


def _chain(target, cap: Optional[int]) -> Powers:
    """The chain of a target, a Poly or a Powers; ValueError for one capped below `cap`."""
    if not isinstance(target, Powers):
        return Powers(target, cap)
    if target.cap is not None and (cap is None or target.cap < cap):
        raise ValueError(f"powers capped at weight {target.cap} cannot serve a sum capped at "
                         f"{'no weight' if cap is None else cap}")
    return target


def _add_groups(total: ProductSum, p: Poly, slots: list, c: GaussianLike, real: bool) -> None:
    """Add c p(slots) into total (see Poly.substitute).

    Each moved slot is read through one chain of its powers (see Powers).
    With `real`, the z and conj(z) slots are substituted, the conj(z) slots
    are read as the conjugates of the z chains, and a half is added (see
    ProductSum.add_real_substitution).
    """
    n, n_out, cap = p.n, total.n, total.max_weight
    cden, (cre,), (cim,) = _over_one_den([scalar_parts(c)])
    moved = [i for i, s in enumerate(slots) if s is not None]
    chains = {i: _chain(slots[i], cap) for i in moved if not (real and n <= i < 2 * n)}
    read = {i: chains[i].power if i in chains else chains[i - n].conjugate for i in moved}
    whole = len(moved) == len(slots)
    for exps, part in pk.split(p._packed, n, moved).items():
        den, re, im = cden, cre, cim  # the group's scalar (re + i*im) / den
        if real:
            z, zb = exps[:n], exps[n:2 * n]
            if z < zb:
                continue
            if z == zb:
                den *= 2
        factors = [read[i](e) for i, e in zip(moved, exps) if e]
        if whole:  # the part is the monomial's coefficient
            _keys, res, ims = pk.columns(part)
            den, re, im = den * part[1], re * res[0] - im * ims[0], re * ims[0] + im * res[0]
            left = factors.pop(0) if factors else Poly.constant(n_out, 1)
        else:
            left = Poly._from_packed(n_out, part)
        last = factors.pop()._packed if factors else pk.one(left._packed[0])
        for factor in factors:
            left = left.mul(factor, cap)
        total._add(left._packed, last, den, re, im)


def _check_mono(mono: Mono, n: int) -> None:
    """ValueError unless mono is a monomial key of dimension n."""
    z, zb, u = mono
    if len(z) != n or len(zb) != n:
        raise ValueError(f"monomial {mono} does not match dimension {n}")
    if u < 0 or min(z, default=0) < 0 or min(zb, default=0) < 0:
        raise ValueError(f"negative exponent in monomial {mono}")


def term_list(items) -> list:
    """`items` if it is a JSON list of objects, else ValueError."""
    if not isinstance(items, list):
        raise ValueError(f"a term list must be a JSON list, got {type(items).__name__}")
    for item in items:
        if not isinstance(item, dict):
            raise ValueError(f"a term must be a JSON object, got {type(item).__name__}")
    return items


def _exponents(item: dict, key: str, n: int) -> Tuple[int, ...]:
    exps = item.get(key, [0] * n)
    if not isinstance(exps, list):
        raise ValueError(f"term field {key!r} must be a list of exponents")
    field = f"an exponent in term field {key!r}"
    return tuple([e if type(e) is int else parse_int(e, field) for e in exps])
