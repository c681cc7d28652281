"""The three workloads: how each parses its documents, runs, and is checked.

Each workload has
  parse(cr, doc)       -> case   (set-up: documents to program objects)
  run(cr, case, timed) -> output (one case; every program call that counts
                                  as an item goes through `timed`)
  items(case)          -> number of items one case runs
  check(case, output)  -> number of items whose answer is wrong

`cr` is a namespace of freshly imported `crmoser` modules.  Program
functions are looked up on their modules at call time, so the wrappers of
a traced run are seen.  Checks run after timing and compare with the
paper's formulas or with properties the method must have; the sympy rank
oracle for `stabilize` runs in `oracle.py`, in its own process.
"""

from __future__ import annotations

from types import SimpleNamespace


def forbidden_band(n: int, m: int):
    """[n^2-2n+3, n^2-1] for m = 0 and [n^2-2n+4, n^2-1] for m >= 1 (the gap theorem)."""
    return n * n - 2 * n + (3 if m == 0 else 4), n * n - 1


MODEL_DIMENSION = {  # the paper's stability dimensions of the three model families
    "umbilic": lambda n: n * n,
    "theorem1": lambda n: n * n - 2 * n + 2,
    "theorem2": lambda n: n * n - 2 * n + 3,
}


# -- stabilize: classify on normal-form surfaces ------------------------------------


def stabilize_parse(cr, doc):
    return SimpleNamespace(surface=cr.surface_io.surface_from_json(doc["surface"]),
                           family=doc["family"])


def stabilize_run(cr, case, timed):
    res = timed(cr.models.classify, case.surface)
    return res.dim, res.function_of_form_and_u, res.gap_ok


def stabilize_check(case, out) -> int:
    dim, func, gap_ok = out
    n, m = case.surface.n, case.surface.m
    lo, hi = forbidden_band(n, m)
    ok = not lo <= dim <= hi and gap_ok and (dim == n * n or not func)
    if case.family in MODEL_DIMENSION:
        ok = ok and dim == MODEL_DIMENSION[case.family](n)
    if case.family == "umbilic":
        ok = ok and func
    return 0 if ok else 1


# -- jet_verify: hyperquadric automorphism jets and linear maps ----------------------


def jet_verify_parse(cr, doc):
    gr = cr.gaussrat
    surface = cr.surface_io.surface_from_json(doc["surface"])
    case = SimpleNamespace(kind=doc["case"], surface=surface, weight=doc["weight"])
    if doc["case"] == "linear":
        case.jet = cr.jets.JetMap.from_json(doc["jet"])
        return case
    p = doc["params"]
    case.params = cr.autgroup.AutoParams(
        U=cr.linalg.Matrix.from_json(p["U"]),
        a=tuple(gr.GaussianRational.from_json(c) for c in p["a"]),
        lam=gr.parse_rational(p["lambda"]), sigma=int(p["sigma"]),
        r=gr.parse_rational(p["r"]))
    case.D = doc["D"]
    if doc["case"] == "perturbed":
        pert = doc["perturb"]
        case.target = pert["target"]
        case.extra = cr.jets.HoloPoly.terms_from_json(surface.n, pert["terms"])
    return case


def jet_verify_run(cr, case, timed):
    ag = cr.autgroup
    if case.kind == "linear":
        return timed(ag.verify_automorphism, case.surface, case.jet, case.weight)
    form = case.surface.form

    def quadric():
        jet = ag.quadric_automorphism(case.params, form, case.D)
        got = ag.extract_params(jet, form)
        return got, ag.verify_automorphism(case.surface, jet, case.weight)

    def perturbed():
        jet = ag.quadric_automorphism(case.params, form, case.D)
        f, g = list(jet.f), jet.g
        if case.target == "g":
            g = g + case.extra
        else:
            f[case.target] = f[case.target] + case.extra
        return ag.verify_automorphism(case.surface, cr.jets.JetMap(f, g, case.D), case.weight)

    return timed(quadric if case.kind == "quadric" else perturbed)


def jet_verify_check(case, out) -> int:
    if case.kind == "quadric":
        got, verified = out
        ok = got == case.params and verified is True
    elif case.kind == "linear":
        ok = out is True
    else:  # a jet perturbed at weight 3..6 is no automorphism
        ok = out is False
    return 0 if ok else 1


# -- reparam: the fractional-linear family z -> z/(1+qw) ------------------------------


def reparam_parse(cr, doc):
    return SimpleNamespace(kind=doc["case"],
                           surface=cr.surface_io.surface_from_json(doc["surface"]),
                           qs=[cr.gaussrat.parse_rational(q) for q in doc["q"]])


def reparam_run(cr, case, timed):
    rep = cr.autgroup.reparametrize
    s, w = case.surface, case.surface.max_weight
    if case.kind == "inverse":
        (q,) = case.qs
        return timed(rep, timed(rep, s, q, w), -q, w).F
    q1, q2 = case.qs
    two_steps = timed(rep, timed(rep, s, q1, w), q2, w)
    return two_steps.F, timed(rep, s, q1 + q2, w).F


def reparam_items(case) -> int:
    return 2 if case.kind == "inverse" else 3


def reparam_check(case, out) -> int:
    if case.kind == "inverse":  # q then -q is the identity
        ok = out == case.surface.F
    else:  # q1 then q2 equals q1 + q2
        ok = out[0] == out[1]
    return 0 if ok else reparam_items(case)


WORKLOADS = {
    "stabilize": SimpleNamespace(parse=stabilize_parse, run=stabilize_run,
                                 items=lambda case: 1, check=stabilize_check),
    "jet_verify": SimpleNamespace(parse=jet_verify_parse, run=jet_verify_run,
                                  items=lambda case: 1, check=jet_verify_check),
    "reparam": SimpleNamespace(parse=reparam_parse, run=reparam_run,
                               items=reparam_items, check=reparam_check),
}
