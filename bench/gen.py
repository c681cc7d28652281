"""Seeded input documents for the benchmark workloads.

Standard library only; nothing here imports `crmoser`, so the inputs do not
change when the program does.  `generate(workload, seed)` returns a list of
JSON-ready documents in the formats the program parses (`surface_io`
surface documents, `Matrix.to_json` matrices, `JetMap`/`HoloPoly` term
lists).  The same seed always gives the same documents, byte for byte once
serialized with `dump`.

Normal-form inputs are built so that every monomial is trace-free on its
own (no pair (a, b) with H^{-1}_ab != 0 has z_a in the holomorphic part and
z_b in the antiholomorphic part), which satisfies the three trace
conditions without running the program's own check.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import List, Sequence, Tuple

F = Fraction
POOL = (F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2))
LAMBDAS = (F(1), F(2), F(1, 2), F(3, 2))
QS = (F(1, 2), F(-1, 3), F(1, 4), F(2), F(-1), F(3, 2), F(-3, 4))  # no two sum to 0
TS = (F(1, 2), F(-1, 2), F(2), F(-2), F(1, 3), F(-1, 3))  # Cayley parameters, |t| != 1

Gauss = Tuple[Fraction, Fraction]


def dump(docs) -> bytes:
    """Canonical serialization of a document list."""
    return json.dumps(docs, sort_keys=True, separators=(",", ":")).encode()


def generate(workload: str, seed: int) -> List[dict]:
    makers = {"stabilize": stabilize_docs, "jet_verify": jet_verify_docs,
              "reparam": reparam_docs}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    # one RNG per workload, so a workload's inputs do not depend on the others
    return makers[workload](random.Random(f"{workload}:{seed}"))


# -- forms and exact Q(i) helpers ---------------------------------------------


def form_kind(m: int) -> str:
    return "diagonal" if m == 0 else "antidiagonal"


def form_matrix(n: int, m: int) -> List[List[int]]:
    """The standard diagonal (m = 0) or antidiagonal (m >= 1) form."""
    h = [[0] * n for _ in range(n)]
    if m == 0:
        for i in range(n):
            h[i][i] = 1
    else:
        for i in range(m):
            h[i][n - 1 - i] = h[n - 1 - i][i] = 1
        for i in range(m, n - m):
            h[i][i] = 1
    return h


def trace_pairs(n: int, m: int) -> List[Tuple[int, int]]:
    """Index pairs (a, b) with H^{-1}_ab != 0 (both standard forms are involutions)."""
    h = form_matrix(n, m)
    return [(a, b) for a in range(n) for b in range(n) if h[a][b]]


def gj(c: Gauss) -> dict:
    return {"re": str(c[0]), "im": str(c[1])}


def gmul(x: Gauss, y: Gauss) -> Gauss:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gconj(x: Gauss) -> Gauss:
    return (x[0], -x[1])


def mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            re = im = F(0)
            for k in range(n):
                p = gmul(a[i][k], b[k][j])
                re += p[0]
                im += p[1]
            row.append((re, im))
        out.append(row)
    return out


def mat_inverse(a):
    """Gauss-Jordan inverse over Q(i); raises ZeroDivisionError if singular."""
    n = len(a)
    work = [list(row) + [(F(int(i == j)), F(0)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != (0, 0)), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        p = work[col][col]
        d = p[0] * p[0] + p[1] * p[1]
        inv = (p[0] / d, -p[1] / d)
        work[col] = [gmul(e, inv) for e in work[col]]
        for r in range(n):
            f = work[r][col]
            if r != col and f != (0, 0):
                work[r] = [(e[0] - g[0], e[1] - g[1])
                           for e, g in zip(work[r], (gmul(f, x) for x in work[col]))]
    return [row[n:] for row in work]


def mat_json(a) -> List[List[dict]]:
    return [[gj(e) for e in row] for row in a]


def identity(n: int):
    return [[(F(int(i == j)), F(0)) for j in range(n)] for i in range(n)]


def balanced(rng: random.Random, pool: Sequence, k: int) -> list:
    """k draws that use every pool value equally often, in random order.

    Every seed then gets the same mix of values, so the work per round does
    not swing with the seed.
    """
    out = []
    while len(out) < k:
        out += rng.sample(list(pool), len(pool))
    out = out[:k]
    rng.shuffle(out)
    return out


def directions(n: int):
    """A basis of the skew-Hermitian n x n matrices: i E_aa, E_ab - E_ba, i(E_ab + E_ba)."""
    return [("diag", a, a) for a in range(n)] + [
        (kind, a, b) for a in range(n) for b in range(a + 1, n) for kind in ("real", "imag")]


def cayley(n: int, m: int, direction, t: Fraction):
    """Exact pseudounitary U = (E - X)(E + X)^{-1}, X = H S, S = t * direction.

    X satisfies X^t H + H conj(X) = 0, so U^t H conj(U) = H.  X has at most
    two nonzero entries, each +-t or +-it, so E + X is invertible for |t| != 1.
    """
    h = form_matrix(n, m)
    kind, a, b = direction
    s = [[(F(0), F(0)) for _ in range(n)] for _ in range(n)]
    if kind == "diag":
        s[a][a] = (F(0), t)
    elif kind == "real":
        s[a][b], s[b][a] = (t, F(0)), (-t, F(0))
    else:
        s[a][b] = s[b][a] = (F(0), t)
    x = [[(sum(h[i][k] * s[k][j][0] for k in range(n)),
           sum(h[i][k] * s[k][j][1] for k in range(n))) for j in range(n)]
         for i in range(n)]
    eye = identity(n)
    minus = [[(eye[i][j][0] - x[i][j][0], -x[i][j][1]) for j in range(n)]
             for i in range(n)]
    plus = [[(eye[i][j][0] + x[i][j][0], x[i][j][1]) for j in range(n)]
            for i in range(n)]
    return mat_mul(minus, mat_inverse(plus))


def random_cayley(rng: random.Random, n: int, m: int):
    return cayley(n, m, rng.choice(directions(n)), rng.choice(TS))


def phase(rng: random.Random) -> Gauss:
    """A unimodular Gaussian rational (1 - t^2 + 2it) / (1 + t^2)."""
    t = rng.choice(POOL)
    return ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


def composition(rng: random.Random, total: int, parts: int) -> List[int]:
    out = [0] * parts
    for _ in range(total):
        out[rng.randrange(parts)] += 1
    return out


def trace_free(zexp: Sequence[int], zbexp: Sequence[int], pairs) -> bool:
    return not any(zexp[a] and zbexp[b] for a, b in pairs)


def monomial_pair(rng: random.Random, n: int, m: int, max_weight: int,
                  degrees=(2, 2, 3, 4)):
    """A conjugate-symmetric pair c z^a zb^b u^r + conj, trace-free term by term."""
    pairs = trace_pairs(n, m)
    while True:
        k, l = rng.choice(degrees), rng.choice(degrees)
        rmax = (max_weight - k - l) // 2
        if rmax < 0:
            continue
        r = rng.randrange(rmax + 1)
        zexp, zbexp = composition(rng, k, n), composition(rng, l, n)
        if zexp == zbexp or not trace_free(zexp, zbexp, pairs):
            continue
        return zexp, zbexp, r


def term_json(zexp, zbexp, r, c: Gauss) -> dict:
    return {"z": list(zexp), "zbar": list(zbexp), "u": r, "re": str(c[0]), "im": str(c[1])}


def monomial_text(zexp, zbexp, r) -> str:
    parts = [f"z{i + 1}^{e}" for i, e in enumerate(zexp) if e]
    parts += [f"~z{i + 1}^{e}" for i, e in enumerate(zbexp) if e]
    if r:
        parts.append(f"u^{r}")
    return " ".join(parts)


def surface_doc(n: int, m: int, max_weight: int, **body) -> dict:
    return dict(n=n, m=m, kind=form_kind(m), maxWeight=max_weight, **body)


def signed(c: Fraction, body: str) -> str:
    """' + c body' or ' - |c| body', as the surface grammar wants it."""
    return f" {'-' if c < 0 else '+'} {abs(c)} {body}"


# -- stabilize ------------------------------------------------------------------

# (n, m): surfaces; n = 3 outnumbers n = 2 so that the median item lies
# inside the n = 3 cost cluster, not in the gap between the two clusters
SMALL = {(2, 0): 35, (2, 1): 35, (3, 0): 65, (3, 1): 65}
SMALL_WEIGHT = 8


def small_surface(rng: random.Random, n: int, m: int, control: bool) -> dict:
    """The criterion-10 population: monomial pairs, or a <z,z>^4 control."""
    if control:
        surface = surface_doc(n, m, SMALL_WEIGHT, F=f"{rng.choice(POOL)} Q^4")
        return {"surface": surface, "family": "umbilic"}
    terms, seen = [], set()
    for _ in range(rng.choice((1, 1, 2))):
        zexp, zbexp, r = monomial_pair(rng, n, m, SMALL_WEIGHT)
        if (tuple(zexp), tuple(zbexp), r) in seen:
            continue
        seen.add((tuple(zexp), tuple(zbexp), r))
        seen.add((tuple(zbexp), tuple(zexp), r))
        c = (rng.choice(POOL), rng.choice(POOL))
        terms.append(term_json(zexp, zbexp, r, c))
        terms.append(term_json(zbexp, zexp, r, gconj(c)))
    return {"surface": surface_doc(n, m, SMALL_WEIGHT, terms=terms), "family": "other"}


def model_text(rng: random.Random, family: str, n: int, variant: int = 0) -> Tuple[str, int]:
    """A model defining function and its top weight; see the paper's three families."""
    c = rng.choice(POOL)
    if family == "umbilic":
        if variant:
            return f"{c} Q^4" + signed(rng.choice(POOL), "u Q^4"), 10
        return f"{c} Q^4", 8
    if family == "theorem1":  # p + q = 4
        return f"{c} |z1|^{2 + 2 * variant} Q^{3 - variant}", 8
    if family == "theorem2":  # s = -1/2 (p = 2, q = r = 0) or s = 1/2 (p = q = 2, r = 0)
        if variant:
            return f"{c} |z{n}|^4 Q^2", 8
        return f"{c} |z{n}|^4", 4
    raise ValueError(family)


LARGE = (  # (family, variant, n, m, perturbed) for the n = 4..6 stratum
    ("umbilic", 0, 4, 0, False), ("umbilic", 1, 4, 1, False), ("umbilic", 0, 5, 1, False),
    ("umbilic", 0, 6, 0, False), ("theorem1", 0, 4, 0, False), ("theorem1", 1, 5, 0, False),
    ("theorem2", 1, 4, 1, False), ("theorem2", 0, 5, 2, False), ("theorem2", 0, 6, 1, False),
    ("umbilic", 0, 4, 1, True), ("umbilic", 0, 5, 0, True), ("theorem1", 0, 4, 0, True),
    ("theorem2", 1, 5, 1, True), ("theorem2", 0, 6, 2, True),
)


def large_surface(rng: random.Random, family: str, variant: int, n: int, m: int,
                  perturbed: bool) -> dict:
    text, weight = model_text(rng, family, n, variant)
    if not perturbed:
        return {"surface": surface_doc(n, m, weight, F=text), "family": family}
    zexp, zbexp, r = monomial_pair(rng, n, m, 8, degrees=(2, 3))
    c = rng.choice(POOL)
    text += signed(c, monomial_text(zexp, zbexp, r)) + signed(c, monomial_text(zbexp, zexp, r))
    return {"surface": surface_doc(n, m, max(weight, 8), F=text), "family": "other"}


def stabilize_docs(rng: random.Random) -> List[dict]:
    docs = [small_surface(rng, n, m, i < count // 5) for (n, m), count in SMALL.items()
            for i in range(count)]
    docs += [large_surface(rng, *spec) for spec in LARGE]
    rng.shuffle(docs)
    return docs


# -- jet_verify -------------------------------------------------------------------

QUADRIC_SIGNATURES = ((2, 0, True), (2, 1, True), (3, 1, False))  # (n, m, dense a)
IDENTITY_U = 2  # quadric jets per signature with U = E; two more per Cayley direction
JET_D = 10
VERIFY_WEIGHT = 9


def random_gauss(rng: random.Random) -> Gauss:
    return (rng.choice(POOL), rng.choice(POOL))


def quadric_docs(rng: random.Random, n: int, m: int, dense: bool, us) -> List[dict]:
    """Parameter documents, one per matrix in `us`; lambda and r balanced over their pools."""
    docs = []
    for i, (u, lam, r) in enumerate(zip(us, balanced(rng, LAMBDAS, len(us)),
                                        balanced(rng, POOL, len(us)))):
        if dense:
            a = [random_gauss(rng) for _ in range(n)]
        else:  # the nonzero entry's place is fixed by position, like U's shape
            a = [(F(0), F(0))] * n
            a[i % n] = random_gauss(rng)
        docs.append({"U": mat_json(u), "a": [gj(c) for c in a],
                     "lambda": str(lam), "sigma": 1, "r": str(r)})
    return docs


def spherical_doc(n: int, m: int) -> dict:
    return surface_doc(n, m, JET_D + 2, terms=[])


def linear_case(rng: random.Random, family: str, n: int, m: int):
    """A model surface and a linear automorphism z -> U z, w -> w of it."""
    if family == "umbilic":
        text = f"{rng.choice(POOL)} Q^4"
        u = random_cayley(rng, n, m)
    elif family == "theorem1":  # U(1) x U(n-1) preserves |z1|^2 and <z,z>
        text = f"{rng.choice(POOL)} |z1|^2 Q^3"
        block = random_cayley(rng, n - 1, 0)
        u = identity(n)
        u[0][0] = phase(rng)
        for i in range(1, n):
            for j in range(1, n):
                u[i][j] = block[i - 1][j - 1]
    else:  # theorem2, n = 2: S element with |mu| = 1, c = i t mu, lambda = 1
        text = f"{rng.choice(POOL)} |z2|^4"
        mu = phase(rng)
        u = [[mu, gmul(mu, (F(0), rng.choice(POOL)))], [(F(0), F(0)), mu]]
    f = [[{"z": [int(j == k) for k in range(n)], "w": 0, **gj(u[i][j])}
          for j in range(n) if u[i][j] != (0, 0)] for i in range(n)]
    jet = {"D": JET_D, "f": f, "g": [{"z": [0] * n, "w": 1, "re": "1", "im": "0"}]}
    return surface_doc(n, m, 8, F=text), jet


LINEAR = (("umbilic", 2, 0), ("umbilic", 3, 1), ("theorem1", 3, 0), ("theorem2", 2, 1))


def perturbation(rng: random.Random, n: int) -> dict:
    """One holomorphic monomial of weight 3..6 added to f_i or g."""
    while True:
        wexp = rng.randrange(3)
        zdeg = rng.randrange(4)
        weight = zdeg + 2 * wexp
        if 3 <= weight <= 6:
            break
    target = rng.choice(["g"] + list(range(n)))
    term = {"z": composition(rng, zdeg, n), "w": wexp, **gj(random_gauss(rng))}
    return {"target": target, "terms": [term]}


def jet_verify_docs(rng: random.Random) -> List[dict]:
    docs = []
    for n, m, dense in QUADRIC_SIGNATURES:
        # every Cayley direction twice per seed, so each seed has the same mix of U shapes
        dirs = directions(n) * 2
        us = [identity(n)] * IDENTITY_U + [
            cayley(n, m, d, t) for d, t in zip(dirs, balanced(rng, TS, len(dirs)))]
        for params in quadric_docs(rng, n, m, dense, us):
            docs.append({"case": "quadric", "surface": spherical_doc(n, m),
                         "params": params, "D": JET_D, "weight": VERIFY_WEIGHT})
        us = [identity(n), random_cayley(rng, n, m)]
        for params in quadric_docs(rng, n, m, dense, us):
            docs.append({"case": "perturbed", "surface": spherical_doc(n, m),
                         "params": params, "D": JET_D, "weight": VERIFY_WEIGHT,
                         "perturb": perturbation(rng, n)})
    for family, n, m in LINEAR:
        surface, jet = linear_case(rng, family, n, m)
        docs.append({"case": "linear", "surface": surface, "jet": jet,
                     "weight": VERIFY_WEIGHT})
    rng.shuffle(docs)
    return docs


# -- reparam ----------------------------------------------------------------------

REPARAM_MODELS = (  # (family, n, m, truncation weight), truncation above F's weight
    ("umbilic", 2, 0, 10), ("umbilic", 2, 0, 12), ("theorem2", 2, 1, 8),
    ("theorem2", 2, 1, 10), ("theorem1", 2, 0, 10), ("theorem2", 3, 1, 8),
    ("umbilic", 3, 1, 10),
)


def reparam_docs(rng: random.Random) -> List[dict]:
    docs = []
    models = REPARAM_MODELS * 2
    k = len(models)
    qs = zip(balanced(rng, QS, k), balanced(rng, QS, k), balanced(rng, QS, k))
    for (family, n, m, weight), (q, q1, q2) in zip(models, qs):
        text, _ = model_text(rng, family, n)
        surface = surface_doc(n, m, weight, F=text)
        docs.append({"case": "inverse", "surface": surface, "q": [str(q)]})
        docs.append({"case": "compose", "surface": surface, "q": [str(q1), str(q2)]})
    rng.shuffle(docs)
    return docs
