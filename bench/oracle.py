#!/usr/bin/env python3
"""Independent stabilizer dimensions by sympy, for the stabilize workload.

    python3 bench/oracle.py INPUTS.json INDEX [INDEX ...]

For each chosen document (surface given by explicit terms), builds the
infinitesimal linear-invariance system from F alone and prints, as one
JSON list, the dimensions n^2 + 1 - rank.  The unknowns are a real basis of
u(H) = {X : X^t H + H conj(X) = 0}, found here by sympy, plus the scale
rate rho; the equation is

    2 Re sum_j ((rho E + X) z)_j dF/dz_j + 2 rho u dF/du - 2 rho F = 0.

Nothing here imports crmoser.  It runs in its own process so that the
benchmark's peak memory is that of the program alone.
"""

from __future__ import annotations

import json
import sys

import sympy

import gen


def u_basis(h: sympy.Matrix):
    n = h.rows
    xs = sympy.symbols(f"x0:{n * n}", real=True)
    ys = sympy.symbols(f"y0:{n * n}", real=True)
    x = sympy.Matrix(n, n, lambda a, b: xs[a * n + b] + sympy.I * ys[a * n + b])
    cond = x.T * h + h * x.conjugate()
    eqs = [part(e) for e in cond for part in (sympy.re, sympy.im)]
    unknowns = list(xs) + list(ys)
    mat, _ = sympy.linear_eq_to_matrix(eqs, unknowns)
    return [x.subs(dict(zip(unknowns, vec)), simultaneous=True) for vec in mat.nullspace()]


def dimension(doc: dict) -> int:
    n, m = doc["n"], doc["m"]
    h = sympy.Matrix(gen.form_matrix(n, m))
    z = sympy.symbols(f"z1:{n + 1}")
    zb = sympy.symbols(f"zb1:{n + 1}")
    u = sympy.Symbol("u")
    gens = (*z, *zb, u)
    f = sympy.Integer(0)
    for t in doc["terms"]:
        term = sympy.Rational(t["re"]) + sympy.I * sympy.Rational(t["im"])
        for i in range(n):
            term *= z[i] ** t["z"][i] * zb[i] ** t["zbar"][i]
        f += term * u ** t["u"]

    def two_re(expr):
        """expr + conj(expr), conjugation swapping z and zb."""
        poly = sympy.Poly(sympy.expand(expr), *gens)
        out = sympy.Integer(0)
        for mono, c in poly.terms():
            swapped = (*mono[n:2 * n], *mono[:n], mono[2 * n])
            out += c * sympy.prod(g ** e for g, e in zip(gens, mono))
            out += sympy.conjugate(c) * sympy.prod(g ** e for g, e in zip(gens, swapped))
        return sympy.expand(out)

    dfz = [sympy.diff(f, zj) for zj in z]
    columns = []
    for x in u_basis(h):
        columns.append(two_re(sum((x[j, k] * z[k] * dfz[j] for j in range(n) for k in range(n)),
                                  sympy.Integer(0))))
    columns.append(two_re(sum((z[j] * dfz[j] for j in range(n)), sympy.Integer(0)))
                   + 2 * u * sympy.diff(f, u) - 2 * f)
    coeffs = [sympy.Poly(c, *gens).as_dict() for c in columns]
    monos = sorted(set().union(*coeffs))
    rows = []
    for mono in monos:
        vals = [sympy.sympify(c.get(mono, 0)) for c in coeffs]
        rows.append([sympy.re(v) for v in vals])
        rows.append([sympy.im(v) for v in vals])
    rank = sympy.Matrix(rows).rank() if rows else 0
    return n * n + 1 - rank


def main(argv) -> int:
    with open(argv[1]) as fh:
        docs = json.load(fh)
    print(json.dumps([dimension(docs[int(i)]["surface"]) for i in argv[2:]]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
