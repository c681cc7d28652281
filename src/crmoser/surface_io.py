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
on the first term is accepted.  Reality and the harmonic-freeness of the
expanded polynomial are validated after expansion, not during parsing.

Surface documents are JSON objects

    {"n": int, "m": int, "kind": "diagonal"|"antidiagonal"|"explicit",
     "matrix": [[{"re","im"},...]],          # explicit forms only
     "F": "expression"  or  "terms": [...],  # poly term list
     "maxWeight": int}                       # optional
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .forms import HermitianForm, form_from_json, form_to_json
from .gaussrat import parse_int, parse_rational
from .normal_form import Hypersurface, NormalFormError
from .poly import Poly


class SurfaceParseError(ValueError):
    """Syntax or validation error in a surface definition."""

    def __init__(self, message: str, pos: Optional[int] = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+)"
    r"|(?P<zbar>~z(?P<zbidx>\d+))"
    r"|(?P<z>z(?P<zidx>\d+))"
    r"|(?P<u>u)"
    r"|(?P<q>Q)"
    r"|(?P<op>[+\-*/^|])"
    r")"
)


def _tokenize(text: str) -> List[Tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            raise SurfaceParseError(f"unexpected character {rest[0]!r}", at)
        start = match.start() + (len(match.group(0)) - len(match.group(0).lstrip()))
        if match.group("num"):
            tokens.append(("num", int(match.group("num")), start))
        elif match.group("zbar"):
            tokens.append(("zbar", int(match.group("zbidx")), start))
        elif match.group("z"):
            tokens.append(("z", int(match.group("zidx")), start))
        elif match.group("u"):
            tokens.append(("u", None, start))
        elif match.group("q"):
            tokens.append(("Q", None, start))
        else:
            tokens.append((match.group("op"), None, start))
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
        result = Poly.zero(self.n)
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
        result = result + self.parse_term().scale(sign)
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            term = self.parse_term()
            result = result + (term if op == "+" else -term)
        tok = self.peek()
        if tok[0] != "end":
            raise SurfaceParseError(f"unexpected token {tok[0]!r}", tok[2])
        return result

    def parse_term(self) -> Poly:
        coeff = None
        if self.peek()[0] == "num":
            coeff = self.parse_rational()
        factors = []
        while self.peek()[0] in ("u", "Q", "z", "zbar", "|", "*"):
            if self.peek()[0] == "*":
                self.advance()
                if self.peek()[0] == "num":
                    # a '*' may be followed by another rational factor
                    factors.append(Poly.constant(self.n, self.parse_rational()))
                    continue
            factors.append(self.parse_factor())
        if not factors and coeff is None:
            tok = self.peek()
            raise SurfaceParseError(f"expected a factor, found {tok[0]!r}", tok[2])
        acc = Poly.constant(self.n, coeff if coeff is not None else 1)
        for f in factors:
            acc = acc * f
        return acc

    def parse_rational(self):
        tok = self.expect("num")
        num = tok[1]
        if self.peek()[0] == "/":
            self.advance()
            den_tok = self.expect("num")
            if den_tok[1] == 0:
                raise SurfaceParseError("zero denominator", den_tok[2])
            return parse_rational(f"{num}/{den_tok[1]}")
        return parse_rational(str(num))

    def parse_factor(self) -> Poly:
        tok = self.advance()
        kind = tok[0]
        if kind == "u":
            return Poly.u(self.n).pow(self.parse_pow())
        if kind == "Q":
            return self.form.inner_poly().pow(self.parse_pow())
        if kind == "z":
            return Poly.z(self.n, self.var_index(tok)).pow(self.parse_pow())
        if kind == "zbar":
            return Poly.zbar(self.n, self.var_index(tok)).pow(self.parse_pow())
        if kind == "|":
            inner = self.expect("z")
            idx = self.var_index(inner)
            bar = self.expect("|")
            self.expect("^")
            num = self.expect("num")
            if num[1] % 2 != 0:
                raise SurfaceParseError(
                    f"|z{idx + 1}| needs an even power, got {num[1]}", num[2])
            half = num[1] // 2
            return Poly.monomial(
                self.n,
                tuple(half if i == idx else 0 for i in range(self.n)),
                tuple(half if i == idx else 0 for i in range(self.n)),
                0,
            )
        raise SurfaceParseError(f"unexpected token {kind!r}", tok[2])

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
    f_poly = parse_surface_text(text, form)
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
        f_poly = Poly.terms_from_json(form.n, obj["terms"])
        if max_weight is None:
            max_weight = f_poly.max_weight() or 4
        try:
            return Hypersurface(form, f_poly, max_weight)
        except NormalFormError as exc:
            raise SurfaceParseError(str(exc)) from exc
    raise SurfaceParseError("surface document needs an 'F' or 'terms' field")


def surface_to_json(surface: Hypersurface) -> dict:
    obj = form_to_json(surface.form)
    obj["terms"] = surface.F.terms_to_json()
    obj["maxWeight"] = surface.max_weight
    return obj
