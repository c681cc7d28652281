"""The packed integer form of a polynomial, and the arithmetic run on it.

A packed form is (bits, den, data): `data` holds three columns of equal
length end to end, the term keys in increasing order and the integer
numerators of the real and imaginary parts over the least common
denominator `den`.  A key packs the 2n+1 exponents of a monomial (z_1
lowest, u highest) into fields of `bits` bits with the weight above them,
so adding keys multiplies monomials and key order is weight order.  `data`
is an array of 64-bit integers when every entry fits, else a tuple.  Every
operation returns a reduced form with sorted keys and no zero term, so two
forms of one field width are equal exactly when their polynomials are.

Products run through one kernel, `accumulate`, which adds the numerators
of a scaled product into an accumulator dict key -> [re, im] that the
caller owns; `collect` turns such a dict into a reduced form once, so a
sum of products is sorted and reduced once (`product` is the kernel plus
one `collect`).  Next to it, `mirror` turns an accumulator into itself
plus its conjugate, and `mirror_is_zero` tells whether that sum vanishes
without building it.

Field widths are chosen here alone: `product_plan` gives a product the width
of its top weight or its cap, `align` brings several forms to the widest of
theirs for everything else, terms are packed at the least width of their
exponents, and every other operation keeps the width of its operand.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .gaussrat import GaussianRational

Packed = Tuple[int, int, Sequence[int]]

_first = itemgetter(0)
_second = itemgetter(1)

ZERO: Packed = (1, 1, array("q"))  # the zero polynomial


def field_bits(top_weight: int) -> int:
    """Field width for the exponents of monomials of weight <= top_weight."""
    # no exponent exceeds the weight of its monomial
    return max(1, top_weight.bit_length())


def one(bits: int) -> Packed:
    """The constant 1 with fields of `bits` bits; its one key, 0, is the same at every width."""
    return bits, 1, _ONE_DATA


_ONE_DATA = array("q", [0, 1, 0])


def size(packed: Packed) -> int:
    return len(packed[2]) // 3


def columns(packed: Packed):
    """(keys, res, ims)."""
    data = packed[2]
    k = len(data) // 3
    return data[:k], data[k:2 * k], data[2 * k:]


def weight(packed: Packed, index: int, n: int) -> int:
    """Weight of the term at `index` (0 or -1) of a nonzero form."""
    return packed[2][index % size(packed)] >> (packed[0] * (2 * n + 1))


def weights(packed: Packed, n: int) -> Iterator[int]:
    """The weight of each term in key order."""
    shift = packed[0] * (2 * n + 1)
    return (key >> shift for key in columns(packed)[0])


def pack_rationals(entries) -> Packed:
    """The packed form of a list of (monomial, re_num, re_den, im_num, im_den).

    Each coefficient's parts are those of gaussrat.scalar_parts: denominators
    are positive.  The coefficients of a repeated monomial are summed.
    """
    den = lcm(*[d for _mono, _rn, rd, _in, idn in entries for d in (rd, idn)])
    bits = field_bits(max((sum(z) + sum(zb) + 2 * u for (z, zb, u), *_parts in entries),
                          default=0))
    acc: Dict[int, List[int]] = {}
    for mono, rn, rd, inum, idn in entries:
        re, im = rn * (den // rd), inum * (den // idn)
        key = pack_key(mono, bits)
        cell = acc.get(key)
        if cell is None:
            acc[key] = [re, im]
        else:
            cell[0] += re
            cell[1] += im
    return collect(bits, den, acc)


def pack_key(mono: tuple, bits: int) -> int:
    """The key of a monomial (zexp, zbexp, uexp) whose exponents fit in `bits` bits."""
    z, zb, u = mono
    key = u
    for e in reversed(z + zb):
        key = (key << bits) | e
    return key | ((sum(z) + sum(zb) + 2 * u) << (bits * (2 * len(z) + 1)))


def bidegrees(packed: Packed, n: int) -> List[Tuple[int, int]]:
    """The (z-degree, conj(z)-degree) of each key, in key order, read off the key fields.

    One multiplication sums the n fields of each kind into the top field of
    its half: no degree exceeds the weight of its monomial, which fits in a
    field, so no field sum carries.
    """
    bits = packed[0]
    span = bits * n
    field = (1 << bits) - 1
    ones = sum(1 << (bits * i) for i in range(n))
    top = max(span - bits, 0)  # the field that holds the sum of the z fields
    low = (1 << (2 * span)) - 1
    sums = [(key & low) * ones >> top for key in islice(packed[2], size(packed))]
    return [(d & field, d >> span & field) for d in sums]


def by_bidegree(packed: Packed, n: int) -> Dict[Tuple[int, int], Packed]:
    """The terms grouped by `bidegrees`: each group in key order, in the order of its first key."""
    bits, den, _data = packed
    keys, res, ims = columns(packed)
    groups: Dict[Tuple[int, int], List[int]] = {}
    for i, d in enumerate(bidegrees(packed, n)):
        groups.setdefault(d, []).append(i)
    if len(groups) == 1:  # one bidegree: the form is its own part
        return {d: packed for d in groups}
    return {d: reduced(bits, den, [keys[i] for i in rows], [res[i] for i in rows],
                       [ims[i] for i in rows])
            for d, rows in groups.items()}


def numerators(packed: Packed, monos: Sequence[tuple]) -> Tuple[List[int], List[int]]:
    """The real and imaginary numerators over den of each monomial's coefficient, 0 if absent."""
    bits, _den, data = packed
    k = size(packed)
    res, ims = [], []
    for z, zb, u in monos:
        # a monomial with an exponent too large for a field is absent; no key is -1
        key = -1 if max((*z, *zb, u)) >> bits else pack_key((z, zb, u), bits)
        i = bisect_left(data, key, 0, k)
        found = i < k and data[i] == key
        res.append(data[k + i] if found else 0)
        ims.append(data[2 * k + i] if found else 0)
    return res, ims


def unpack(n: int, packed: Packed) -> Iterator[Tuple[tuple, GaussianRational]]:
    """(monomial (zexp, zbexp, uexp), coefficient) pairs in key order."""
    bits, den, _data = packed
    mask = (1 << bits) - 1
    offsets = range(0, bits * (2 * n + 1), bits)
    for key, re, im in zip(*columns(packed)):
        fields = [key >> offset & mask for offset in offsets]
        yield ((tuple(fields[:n]), tuple(fields[n:2 * n]), fields[2 * n]),
               GaussianRational(Fraction(re, den), Fraction(im, den)))


def collect(bits: int, den: int, acc: Dict[int, List[int]]) -> Packed:
    """The packed form of an accumulator key -> [re, im] over denominator den."""
    keys = sorted(acc)
    cells = list(map(acc.__getitem__, keys))
    if [0, 0] in cells:  # drop the terms that cancelled
        keys = [key for key, cell in zip(keys, cells) if cell != [0, 0]]
        cells = list(map(acc.__getitem__, keys))
    return reduced(bits, den, keys, list(map(_first, cells)), list(map(_second, cells)))


def reduced(bits: int, den: int, keys, res, ims) -> Packed:
    """The form with den brought down to the least common denominator."""
    g = gcd(den, *res, *ims) if den != 1 else 1
    if g != 1:
        res = [re // g for re in res]
        ims = [im // g for im in ims]
    return bits, den // g, column([*keys, *res, *ims])


def column(values: List[int]) -> Sequence[int]:
    """An array of 64-bit integers when every value fits, else a tuple.

    The choice depends on the values alone, so equal data compare equal.
    """
    try:
        return array("q", values)
    except OverflowError:
        return tuple(values)


def align(n: int, forms: Sequence[Packed]) -> List[Packed]:
    """The forms at one field width, the widest of theirs."""
    bits = max([form[0] for form in forms], default=1)
    return [form if form[0] == bits else _at_width(form, n, bits) for form in forms]


def _at_width(packed: Packed, n: int, bits: int) -> Packed:
    """The same polynomial with fields of `bits` > packed[0] bits."""
    keys, res, ims = columns(packed)
    return bits, packed[1], column([*widen_keys(keys, n, packed[0], bits), *res, *ims])


def widen_keys(keys, n: int, old_bits: int, bits: int) -> List[int]:
    """The keys re-packed from fields of `old_bits` bits into wider fields of `bits` bits."""
    nfields = 2 * n + 1
    mask = (1 << old_bits) - 1
    widened = []
    for key in keys:
        new = (key >> (old_bits * nfields)) << (bits * nfields)
        for i in range(nfields):
            new |= (key & mask) << (bits * i)
            key >>= old_bits
        widened.append(new)
    return widened


def conjugate_keys(keys, n: int, bits: int) -> List[int]:
    """The keys with the z and conj(z) fields swapped."""
    span = bits * n
    mask = (1 << span) - 1
    high = -1 << (2 * span)  # the u field and the weight stay in place
    return [(key & high) | ((key & mask) << span) | ((key >> span) & mask) for key in keys]


def accumulate(acc: Dict[int, List[int]], n: int, a: Packed, b: Packed,
               max_weight: Optional[int], mult: Tuple[int, int] = (1, 0)) -> None:
    """Add the numerators of mult * a * b, without the terms of weight > max_weight, into acc.

    acc maps keys to [re, im] cells over a denominator the caller keeps; the
    product's own denominator is a[1] * b[1], which `mult`, a Gaussian
    integer (re, im), must bring to the caller's.  a, b and the keys of acc
    share one field width, which must hold every exponent of the product
    (see field_bits).  The loop runs over a outside, so a should be the
    shorter operand.
    """
    bits = a[0]
    keys_b, res_b, ims_b = columns(b)
    shift = bits * (2 * n + 1)
    min_wb = keys_b[0] >> shift
    rows_b = list(zip(keys_b, res_b, ims_b))
    mre, mim = mult
    for ka, ra, ia in zip(*columns(a)):
        part = rows_b
        if max_weight is not None:
            cap = max_weight - (ka >> shift)
            if cap < min_wb:
                break
            # the terms of b that keep the product within the cap
            part = islice(rows_b, bisect_left(keys_b, (cap + 1) << shift))
        if mim:
            ra, ia = ra * mre - ia * mim, ra * mim + ia * mre
        elif mre != 1:
            ra, ia = ra * mre, ia * mre
        for kb, rb, ib in part:
            key = ka + kb
            re = ra * rb - ia * ib
            im = ra * ib + ia * rb
            cell = acc.get(key)
            if cell is None:
                acc[key] = [re, im]
            else:
                cell[0] += re
                cell[1] += im


def mirror(acc: Dict[int, List[int]], n: int, bits: int) -> None:
    """Turn acc into acc + conj(acc) in place (see conjugate)."""
    keys = list(acc)
    for key, ckey in zip(keys, conjugate_keys(keys, n, bits)):
        cell = acc[key]
        if ckey == key:
            cell[0] *= 2
            cell[1] = 0
        elif key < ckey:
            other = acc.get(ckey)
            if other is None:
                acc[ckey] = [cell[0], -cell[1]]
            else:  # both cells become cell + conj(other) and its conjugate
                re, im = cell[0] + other[0], cell[1] - other[1]
                cell[0], cell[1] = re, im
                other[0], other[1] = re, -im
        elif ckey not in acc:  # a present partner is or was handled from its side
            acc[ckey] = [cell[0], -cell[1]]


_NO_CELL = (0, 0)  # the cell of a key absent from an accumulator


def mirror_is_zero(acc: Dict[int, List[int]], n: int, bits: int) -> bool:
    """Whether acc + conj(acc) is zero (see mirror), read off acc without changing it.

    Its cell at each key is the key's cell plus the conjugate of the cell
    at the conjugate key (the same cell when the key is its own conjugate).
    """
    keys = list(acc)
    for key, ckey in zip(keys, conjugate_keys(keys, n, bits)):
        re, im = acc[key]
        cre, cim = acc.get(ckey, _NO_CELL)
        if re + cre or im != cim:
            return False
    return True


def product_plan(n: int, a: Packed, b: Packed, max_weight: Optional[int],
                 bits: int = 1) -> Optional[Tuple[Packed, Packed]]:
    """(a, b) as `accumulate` takes them, or None for a zero operand or a product above the cap.

    The shorter operand comes first.  Both get the widest field of a, b, `bits` and the top
    weight, or the cap: the products of one capped computation share its width.
    """
    if not size(a) or not size(b):
        return None
    if size(a) > size(b):
        a, b = b, a
    if max_weight is None:
        top = weight(a, -1, n) + weight(b, -1, n)
    elif weight(a, 0, n) + weight(b, 0, n) > max_weight:
        return None
    else:
        top = max_weight
    bits = max(a[0], b[0], field_bits(top), bits)
    return (a if a[0] == bits else _at_width(a, n, bits),
            b if b[0] == bits else _at_width(b, n, bits))


def product(n: int, a: Packed, b: Packed, max_weight: Optional[int]) -> Packed:
    """a * b without the terms of weight > max_weight, for operands planned by product_plan."""
    acc: Dict[int, List[int]] = {}
    accumulate(acc, n, a, b, max_weight)
    return collect(a[0], a[1] * b[1], acc)


def combine(a: Packed, b: Packed, subtract: bool) -> Packed:
    """a + b, or a - b when `subtract`; a and b share one field width."""
    bits, den_a, _ = a
    den_b = b[1]
    den = lcm(den_a, den_b)
    fa = den // den_a
    fb = -(den // den_b) if subtract else den // den_b
    acc = {ka: [ra * fa, ia * fa] for ka, ra, ia in zip(*columns(a))}
    for kb, rb, ib in zip(*columns(b)):
        cell = acc.get(kb)
        if cell is None:
            acc[kb] = [rb * fb, ib * fb]
        else:
            cell[0] += rb * fb
            cell[1] += ib * fb
    return collect(bits, den, acc)


def scale(packed: Packed, cd: int, cr: int, ci: int) -> Packed:
    """The form times the nonzero scalar (cr + i*ci) / cd, cd > 0."""
    bits, den, _data = packed
    keys, res, ims = columns(packed)
    return reduced(bits, den * cd, keys,
                   [re * cr - im * ci for re, im in zip(res, ims)],
                   [re * ci + im * cr for re, im in zip(res, ims)])


def conjugate(packed: Packed, n: int) -> Packed:
    """Coefficient conjugation combined with the z <-> conj(z) swap."""
    bits, den, _data = packed
    keys, res, ims = columns(packed)
    return collect(bits, den, {
        ckey: [re, -im] for ckey, re, im in zip(conjugate_keys(keys, n, bits), res, ims)})


def truncate(packed: Packed, n: int, max_weight: int, min_weight: int = 0) -> Packed:
    """The terms of weight min_weight..max_weight, one slice of the keys."""
    bits, den, data = packed
    k = size(packed)
    shift = bits * (2 * n + 1)
    start = bisect_left(data, min_weight << shift, 0, k) if min_weight > 0 else 0
    end = bisect_left(data, (max_weight + 1) << shift, start, k)
    if start == 0 and end == k:
        return packed
    return reduced(bits, den, data[start:end], data[k + start:k + end],
                   data[2 * k + start:2 * k + end])


def derivative(packed: Packed, n: int, field: int) -> Packed:
    """The partial derivative by the variable of `field` (numbered as in split).

    Each term with a nonzero exponent e there is multiplied by e, and its key
    loses one from the field and the variable's weight from the weight, one
    constant for all of them, so the keys stay in order.
    """
    bits, den, _data = packed
    offset = bits * field
    mask = (1 << bits) - 1
    drop = (1 << offset) + ((2 if field == 2 * n else 1) << (bits * (2 * n + 1)))
    keys, res, ims = [], [], []
    for key, re, im in zip(*columns(packed)):
        e = (key >> offset) & mask
        if e:
            keys.append(key - drop)
            res.append(re * e)
            ims.append(im * e)
    return reduced(bits, den, keys, res, ims)


def trace(packed: Packed, n: int, den: int, hre: Sequence[int], him: Sequence[int]) -> Packed:
    """sum_ab h_ab d^2/dz_a dconj(z_b) of the form, h_ab = (hre[k] + i*him[k]) / den, k = a*n + b.

    hre and him are the row-major numerators of an n x n matrix (see
    linalg.Matrix).  For each term and each nonzero entry h_ab with nonzero
    exponents e_a of z_a and e_b of conj(z_b), the key loses one from both
    fields and 2 from the weight, and the numerators are multiplied by
    e_a e_b (hre + i*him).  Every such term goes into one accumulator,
    which is collected once.
    """
    bits = packed[0]
    mask = (1 << bits) - 1
    weight2 = 2 << (bits * (2 * n + 1))
    pairs = []
    for k, (hr, hi) in enumerate(zip(hre, him)):
        if hr or hi:
            off_a, off_b = bits * (k // n), bits * (n + k % n)
            pairs.append((off_a, off_b, (1 << off_a) + (1 << off_b) + weight2, hr, hi))
    acc: Dict[int, List[int]] = {}
    for key, re, im in zip(*columns(packed)):
        for off_a, off_b, drop, hr, hi in pairs:
            ea = (key >> off_a) & mask
            if ea:
                eb = (key >> off_b) & mask
                if eb:
                    e = ea * eb
                    ra, ia = re * e, im * e
                    tr, ti = ra * hr - ia * hi, ra * hi + ia * hr
                    cell = acc.get(key - drop)
                    if cell is None:
                        acc[key - drop] = [tr, ti]
                    else:
                        cell[0] += tr
                        cell[1] += ti
    return collect(bits, packed[1] * den, acc)


def split(packed: Packed, n: int, fields: Sequence[int]) -> Dict[Tuple[int, ...], Packed]:
    """The terms grouped by their exponents in `fields`, those exponents cleared.

    Field i < 2n holds a z or conj(z) exponent (weight 1), field 2n the u
    exponent (weight 2).  Terms are grouped by their key bits in the fields,
    key & select, in order of first appearance; a group's exponents and the
    one constant its keys drop are read off those bits once, so its keys stay in order.
    """
    bits, den, _data = packed
    mask = (1 << bits) - 1
    shift = bits * (2 * n + 1)
    select = sum(mask << (bits * i) for i in fields)
    groups: Dict[int, List[list]] = {}
    for key, re, im in zip(*columns(packed)):
        group = groups.get(key & select)
        if group is None:
            group = groups[key & select] = [[], [], []]
        group[0].append(key)
        group[1].append(re)
        group[2].append(im)
    split_groups = {}
    for selected, (keys, res, ims) in groups.items():
        exps = tuple([(selected >> (bits * i)) & mask for i in fields])
        drop = selected + (sum(e * (2 if i == 2 * n else 1) for e, i in zip(exps, fields)) << shift)
        split_groups[exps] = reduced(bits, den, [key - drop for key in keys], res, ims)
    return split_groups
