"""Surface-definition language and JSON (de)serialization.

Text grammar for defining functions:

    expression := term (('+'|'-') term)*
    term       := rational? factor ('*'? factor)*
    factor     := 'u' pow? | 'Q' pow? | '|z' index '|^' even
                | 'z' index pow? | '~z' index pow?
    pow        := '^' nat
    rational   := int ('/' int)?

'Q' is <z,z> expanded through the declared Hermitian form, '~z' denotes a
conjugated variable, and '|zk|^2p' abbreviates zk^p ~zk^p.  A leading sign
on the first term is accepted.  Each term is read as c * monomial * Q^k,
with Q^k taken from the form's memo (`HermitianForm.inner_power`), and all
terms are added into one `ProductSum`.  Reality and the harmonic-freeness
of the expanded polynomial are validated after expansion, not during
parsing.

Surface documents are JSON objects

    {"n": int, "m": int, "kind": "diagonal"|"antidiagonal"|"explicit",
     "matrix": [[{"re","im"},...]],          # explicit forms only
     "F": "expression"  or  "terms": [...],  # poly term list
     "maxWeight": int}                       # optional
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .forms import HermitianForm, form_from_json, form_to_json
from .gaussrat import parse_int
from .normal_form import Hypersurface, NormalFormError
from .poly import Poly, ProductSum


class SurfaceParseError(ValueError):
    """Syntax or validation error in a surface definition."""

    def __init__(self, message: str, pos: Optional[int] = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


_TOKEN_RE = re.compile(  # the group that matched names the token kind; ASCII digits only
    r"\s*(?:(?P<num>[0-9]+)|(?P<zbar>~z[0-9]+)|(?P<z>z[0-9]+)|(?P<u>u)|(?P<Q>Q)|(?P<op>[+\-*/^|]))")


def _tokenize(text: str) -> List[Tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            raise SurfaceParseError(f"unexpected character {rest[0]!r}", at)
        kind = match.lastgroup
        value = match.group(kind)
        start = match.start(kind)
        if kind == "num":
            tokens.append(("num", int(value), start))
        elif kind == "zbar":
            tokens.append(("zbar", int(value[2:]), start))
        elif kind == "z":
            tokens.append(("z", int(value[1:]), start))
        else:
            tokens.append((value if kind == "op" else kind, None, start))
        pos = match.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, form: HermitianForm):
        self.text = text
        self.form = form
        self.n = form.n
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise SurfaceParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse(self) -> Poly:
        total = ProductSum(self.n)
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
        self.add_term(total, sign)
        while self.peek()[0] in ("+", "-"):
            self.add_term(total, 1 if self.advance()[0] == "+" else -1)
        tok = self.peek()
        if tok[0] != "end":
            raise SurfaceParseError(f"unexpected token {tok[0]!r}", tok[2])
        return total.poly()

    def add_term(self, total: ProductSum, sign: int) -> None:
        """Add the next term, sign * c * monomial * Q^k, to total."""
        coeff = Fraction(sign)
        exps = [0] * (2 * self.n + 1)  # z_1..z_n, ~z_1..~z_n, u
        qpow = 0
        empty = True
        if self.peek()[0] == "num":
            coeff *= self.parse_rational()
            empty = False
        while self.peek()[0] in ("u", "Q", "z", "zbar", "|", "*"):
            empty = False
            if self.peek()[0] == "*":
                self.advance()
                if self.peek()[0] == "num":
                    # a '*' may be followed by another rational factor
                    coeff *= self.parse_rational()
                    continue
            qpow += self.parse_factor(exps)
        if empty:
            tok = self.peek()
            raise SurfaceParseError(f"expected a factor, found {tok[0]!r}", tok[2])
        n = self.n
        mono = Poly.monomial(n, exps[:n], exps[n:2 * n], exps[2 * n])
        total.add(mono, self.form.inner_power(qpow) if qpow else None, coeff)

    def parse_rational(self) -> Fraction:
        tok = self.expect("num")
        num = tok[1]
        if self.peek()[0] == "/":
            self.advance()
            den_tok = self.expect("num")
            if den_tok[1] == 0:
                raise SurfaceParseError("zero denominator", den_tok[2])
            return Fraction(num, den_tok[1])
        return Fraction(num)

    def parse_factor(self, exps: List[int]) -> int:
        """Add the next factor's exponents to exps; returns its power of Q."""
        tok = self.advance()
        kind = tok[0]
        n = self.n
        if kind == "u":
            exps[2 * n] += self.parse_pow()
        elif kind == "Q":
            return self.parse_pow()
        elif kind in ("z", "zbar"):
            idx = self.var_index(tok) + (n if kind == "zbar" else 0)
            exps[idx] += self.parse_pow()
        elif kind == "|":
            idx = self.var_index(self.expect("z"))
            self.expect("|")
            self.expect("^")
            num = self.expect("num")
            if num[1] % 2 != 0:
                raise SurfaceParseError(
                    f"|z{idx + 1}| needs an even power, got {num[1]}", num[2])
            exps[idx] += num[1] // 2
            exps[n + idx] += num[1] // 2
        else:
            raise SurfaceParseError(f"unexpected token {kind!r}", tok[2])
        return 0

    def var_index(self, tok) -> int:
        idx = tok[1]
        if not 1 <= idx <= self.n:
            raise SurfaceParseError(
                f"variable index {idx} out of range 1..{self.n}", tok[2])
        return idx - 1

    def parse_pow(self) -> int:
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("num")
            return tok[1]
        return 1


def parse_surface_text(text: str, form: HermitianForm) -> Poly:
    """Expand a defining-function expression over the given form."""
    return _Parser(text, form).parse()


def parse_surface(text: str, form: HermitianForm,
                  max_weight: Optional[int] = None) -> Hypersurface:
    """Parse, expand and validate a surface; reality and harmonic-freeness
    are checked on the expanded polynomial."""
    return _surface(form, parse_surface_text(text, form), max_weight)


def _surface(form: HermitianForm, f_poly: Poly, max_weight: Optional[int]) -> Hypersurface:
    """v = <z,z> + f_poly, maxWeight defaulting to F's top weight or 4; SurfaceParseError
    when it is not a valid surface."""
    if max_weight is None:
        max_weight = f_poly.max_weight() or 4
    try:
        return Hypersurface(form, f_poly, max_weight)
    except NormalFormError as exc:
        raise SurfaceParseError(str(exc)) from exc


def surface_from_json(obj: dict) -> Hypersurface:
    try:
        form = form_from_json(obj)
    except (KeyError, ValueError) as exc:
        raise SurfaceParseError(f"invalid form descriptor: {exc}") from exc
    max_weight = obj.get("maxWeight")
    if max_weight is not None:
        max_weight = parse_int(max_weight, "surface field 'maxWeight'")
    if "F" in obj:
        return parse_surface(str(obj["F"]), form, max_weight)
    if "terms" in obj:
        return _surface(form, Poly.terms_from_json(form.n, obj["terms"]), max_weight)
    raise SurfaceParseError("surface document needs an 'F' or 'terms' field")


def surface_to_json(surface: Hypersurface) -> dict:
    obj = form_to_json(surface.form)
    obj["terms"] = surface.F.terms_to_json()
    obj["maxWeight"] = surface.max_weight
    return obj
