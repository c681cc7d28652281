"""Per-layer figures for the traced run, taken from outside the program.

`Tracer.install` wraps public functions and methods of freshly imported
`crmoser` modules.  A module-level function is replaced in every `crmoser`
namespace that holds it (modules import each other's names directly); a
method is replaced on its class.  Each wrapper counts calls and keeps self
time: its own duration minus the durations of wrapped calls made inside it.
The wrapper's bookkeeping, including the size statistics below, is charged
to the caller's child time, so it inflates no layer's self time.

Raw self times collect in `pending` and are rescaled to reference seconds
by the runner's calibration factor at every calibration point (`flush`).
Gaussian-rational scalars are not wrapped: at about 10^6 calls a wrapper
would distort them, so their cost shows in their callers' self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _nullspace_stats(rec, args, kwargs, out):
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(rows[0])
    nonzero = [tuple(r) for r in rows if any(r)]
    rec["rows"] += len(rows)
    rec["rows_nonzero"] += len(nonzero)
    rec["rows_distinct"] += len(set(nonzero))
    rec["cols"] += ncols
    rec["rank"] += ncols - len(out)


def _mul_stats(rec, args, kwargs, out):
    rec["operand_pairs"] += len(args[0].terms) * len(args[1].terms)
    rec["terms_out"] += len(out.terms)


def _terms_out(rec, args, kwargs, out):
    rec["terms_out"] += len(out.terms)


# (layer name, module, attribute path, statistics hook)
LAYERS = (
    ("linalg.rational_nullspace", "crmoser.linalg", "rational_nullspace", _nullspace_stats),
    ("linalg.hermitian_inertia", "crmoser.linalg", "hermitian_inertia", None),
    ("forms.u_basis", "crmoser.forms", "u_basis", None),
    ("forms.pair_polys", "crmoser.forms", "HermitianForm.pair_polys", None),
    ("forms.HermitianForm", "crmoser.forms", "HermitianForm.__init__", None),
    ("normal_form.check_normal_form", "crmoser.normal_form", "check_normal_form", None),
    ("normal_form.is_function_of_form_and_u", "crmoser.normal_form",
     "is_function_of_form_and_u", None),
    ("autgroup.stabilizer_algebra", "crmoser.autgroup", "stabilizer_algebra", None),
    ("autgroup.quadric_automorphism", "crmoser.autgroup", "quadric_automorphism", None),
    ("autgroup.verify_automorphism", "crmoser.autgroup", "verify_automorphism", None),
    ("autgroup.extract_params", "crmoser.autgroup", "extract_params", None),
    ("autgroup.reparametrize", "crmoser.autgroup", "reparametrize", None),
    ("models.classify", "crmoser.models", "classify", None),
    ("poly.mul", "crmoser.poly", "Poly.mul", _mul_stats),
    ("poly.add", "crmoser.poly", "Poly.__add__", None),
    ("poly.scale", "crmoser.poly", "Poly.scale", None),
    ("poly.conjugate", "crmoser.poly", "Poly.conjugate", None),
    ("poly.real_imag", "crmoser.poly", "Poly.real_part", None),
    ("poly.real_imag", "crmoser.poly", "Poly.imag_part", None),
    ("poly.partial", "crmoser.poly", "Poly.partial", None),
    ("poly.substitute", "crmoser.poly", "Poly.substitute", None),
    ("jets.mul", "crmoser.jets", "HoloPoly.mul", _terms_out),
    ("jets.substitute_w", "crmoser.jets", "HoloPoly.substitute_w", None),
    ("surface_io.surface_from_json", "crmoser.surface_io", "surface_from_json", None),
)


# The per-layer metrics a traced run reports, in BENCHMARK.json order.
REPORTED = (
    *(f"linalg.rational_nullspace.{k}" for k in (
        "calls", "self_ms", "rows", "rows_nonzero", "rows_distinct", "cols", "rank",
        "distinct_share")),
    "forms.u_basis.calls", "forms.u_basis.self_ms",
    "normal_form.check_normal_form.self_ms",
    "normal_form.is_function_of_form_and_u.self_ms",
    "autgroup.stabilizer_algebra.self_ms", "models.classify.self_ms",
    "poly.partial.self_ms",
    "poly.mul.calls", "poly.mul.operand_pairs", "poly.mul.terms_out", "poly.mul.self_ms",
    "poly.add.calls", "poly.add.self_ms", "poly.scale.self_ms", "poly.conjugate.self_ms",
    "poly.real_imag.self_ms",
    "forms.pair_polys.calls", "forms.pair_polys.self_ms",
    "jets.mul.calls", "jets.mul.terms_out", "jets.mul.self_ms", "jets.substitute_w.self_ms",
    "autgroup.quadric_automorphism.self_ms", "autgroup.verify_automorphism.self_ms",
    "autgroup.extract_params.self_ms",
    "poly.substitute.calls", "poly.substitute.self_ms", "autgroup.reparametrize.self_ms",
    "surface_io.surface_from_json.calls", "surface_io.surface_from_json.self_ms",
    "forms.HermitianForm.calls",
    "linalg.hermitian_inertia.calls", "linalg.hermitian_inertia.self_ms",
)


class Tracer:
    def __init__(self):
        self.stack = []  # [layer, child seconds] of each open wrapped call
        self.counts = defaultdict(lambda: defaultdict(int))
        self.pending = defaultdict(float)  # raw self seconds since the last flush
        self.self_s = defaultdict(float)   # normalized self seconds of the current phase

    def install(self):
        """Wrap the layers of the `crmoser` modules now in sys.modules."""
        for name, modname, path, stats in LAYERS:
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, stats)
            if cls_path:
                setattr(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "crmoser":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, fn, stats):
        stack, counts, pending, clock = self.stack, self.counts, self.pending, time.perf_counter

        def wrapper(*args, **kwargs):
            t_enter = clock()
            # Poly.mul calls itself with its operands swapped: count that once
            nested = bool(stack) and stack[-1][0] == name
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                pending[name] += (t1 - t0) - frame[1]
            if not nested:
                rec = counts[name]
                rec["calls"] += 1
                if stats is not None:
                    stats(rec, args, kwargs, out)
            if stack:
                stack[-1][1] += clock() - t_enter
            return out

        return wrapper

    def flush(self, factor: float):
        """Move pending raw self time into the phase totals, rescaled by `factor`."""
        for name, raw in self.pending.items():
            self.self_s[name] += raw * factor
        self.pending.clear()

    def end_phase(self):
        """Return and reset (counts, normalized self seconds) of the phase just ended."""
        counts = {name: dict(rec) for name, rec in self.counts.items()}
        self_s = dict(self.self_s)
        self.counts.clear()
        self.self_s.clear()
        return counts, self_s


def metrics(setup_phases, round_phases):
    """The REPORTED figures for one set-up plus one round of the workload's inputs.

    Counts come from the last set-up and the first round (every set-up is the
    same work, and the first round is the same work in every run); self times
    are the means over all set-ups and all rounds.  A layer the workload
    does not reach reports 0.
    """
    counts = defaultdict(lambda: defaultdict(int))
    for phase_counts in (setup_phases[-1][0], round_phases[0][0]):
        for name, rec in phase_counts.items():
            for key, value in rec.items():
                counts[name][key] += value
    self_ms = defaultdict(float)
    for phases in (setup_phases, round_phases):
        for _, self_s in phases:
            for name, secs in self_s.items():
                self_ms[name] += secs * 1000 / len(phases)
    found = {f"{name}.{key}": value for name, rec in counts.items()
             for key, value in rec.items()}
    found.update((f"{name}.self_ms", ms) for name, ms in self_ms.items())
    out = {key: found.get(key, 0) for key in REPORTED}
    rows = counts["linalg.rational_nullspace"].get("rows", 0)
    distinct = counts["linalg.rational_nullspace"].get("rows_distinct", 0)
    out["linalg.rational_nullspace.distinct_share"] = distinct / rows if rows else 0.0
    return out
