"""Command-line interface.

Commands: check, stabdim, classify, verify, model, census.  Every command
prints one deterministic JSON report (schema cr-moser-report/1) embedding
the library version and the SHA-256 of each input file.

Exit codes: 0 success, 1 usage error, 2 parse/validation error,
3 mathematical failure (condition violated, verification false, gap
violation).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import List, Optional

from . import __version__
from .autgroup import (
    is_linear_automorphism,
    stabilizer_algebra,
    verify_automorphism,
)
from .census import CensusConfig, run_census
from .gaussrat import parse_int, parse_rational
from .jets import JetMap
from .linalg import Matrix
from .models import (
    ScaledSAuto,
    SElement,
    classify,
    model_corollary2,
    model_theorem1,
    model_theorem2,
    model_umbilic,
    verify_scaled_automorphism,
)
from .normal_form import check_normal_form
from .poly import term_list
from .surface_io import surface_from_json, surface_to_json

SCHEMA = "cr-moser-report/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_MATH = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class CliInputError(ValueError):
    pass


def _read_json(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CliInputError(f"{path} is nested too deeply to read") from exc
    if not isinstance(doc, dict):
        raise CliInputError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def _sha256(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _report(command: str, inputs: List[str], payload: dict) -> dict:
    return {
        "schema": SCHEMA,
        "library_version": __version__,
        "command": command,
        "inputs": [{"path": p, "sha256": _sha256(p)} for p in inputs],
        **payload,
    }


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from exc


def _emit(report: dict, output: Optional[str]) -> None:
    """Write the report to `output`, if given, then print it: a failed write prints only
    the error report."""
    text = json.dumps(report, indent=2, sort_keys=True)
    if output:
        _write(output, text + "\n")
    print(text)


def _load_surface(path: str):
    return surface_from_json(_read_json(path))


def cmd_check(args) -> int:
    surface = _load_surface(args.surface)
    report = check_normal_form(surface)
    _emit(_report("check", [args.surface], report.to_json()), args.output)
    return EXIT_OK if report.passed else EXIT_MATH


def cmd_stabdim(args) -> int:
    surface = _load_surface(args.surface)
    result = stabilizer_algebra(surface)
    payload = {"dim": result.dim, "spherical": result.spherical}
    if args.basis:
        payload["basis"] = [
            {"X": sym.X.to_json(), "rho": str(sym.rho)} for sym in result.basis
        ]
    _emit(_report("stabdim", [args.surface], payload), args.output)
    return EXIT_OK


def cmd_classify(args) -> int:
    surface = _load_surface(args.surface)
    result = classify(surface)
    _emit(_report("classify", [args.surface], result.to_json()), args.output)
    return EXIT_OK if result.gap_ok else EXIT_MATH


def cmd_verify(args) -> int:
    surface = _load_surface(args.surface)
    map_doc = _read_json(args.map)
    kind = map_doc.get("type")
    if kind == "linear":
        ok = is_linear_automorphism(
            surface,
            Matrix.from_json(map_doc["U"]),
            parse_rational(str(map_doc.get("lambda", "1"))),
            parse_int(map_doc.get("sigma", 1), "map field 'sigma'"),
        )
        payload = {"kind": "linear", "verified": ok}
    elif kind == "scaled":
        auto = ScaledSAuto(
            s=parse_rational(str(map_doc["s"])),
            element=SElement.from_json(map_doc["element"]),
        )
        ok = verify_scaled_automorphism(surface, auto)
        payload = {"kind": "scaled", "verified": ok,
                   "lambda_exponent": str(auto.scale_exponent),
                   "lambda_base": str(auto.scale_base)}
    elif kind == "jet":
        jet = JetMap.from_json(map_doc)
        max_w = args.max_weight
        if max_w is None:
            max_w = min(jet.D - 1, surface.max_weight)
        ok = verify_automorphism(surface, jet, max_w)
        payload = {"kind": "jet", "verified": ok, "checked_weight": max_w}
    else:
        raise CliInputError(
            f"map type must be 'linear', 'scaled' or 'jet', got {kind!r}")
    _emit(_report("verify", [args.surface, args.map], payload), args.output)
    return EXIT_OK if ok else EXIT_MATH


def _build_model(spec: dict):
    family = spec.get("family")
    n = parse_int(spec["n"], "model field 'n'")
    coeffs = {}
    for item in term_list(spec.get("coeffs", [])):
        key = tuple(parse_int(item.get(k, 0), f"coefficient field {k!r}") for k in "rpq")
        if key in coeffs:
            raise CliInputError("repeated coefficient key (r={}, p={}, q={})".format(*key))
        coeffs[key] = parse_rational(str(item["c"]))
    if family == "umbilic":
        m = parse_int(spec.get("m", 0), "model field 'm'")
        kind = spec.get("kind", "diagonal" if m == 0 else "antidiagonal")
        if any(p != 0 for (_r, p, _q) in coeffs):
            raise CliInputError("umbilic coefficients must have p = 0")
        by_kr = {(q, r): c for (r, _p, q), c in coeffs.items()}
        return model_umbilic(n, m, kind, by_kr)
    if family == "theorem1":
        by_pqr = {(p, q, r): c for (r, p, q), c in coeffs.items()}
        return model_theorem1(n, by_pqr)
    if family == "theorem2":
        return model_theorem2(n, parse_int(spec["m"], "model field 'm'"),
                              parse_rational(str(spec["s"])), coeffs)
    if family == "corollary2":
        return model_corollary2(n, parse_int(spec["m"], "model field 'm'"),
                                parse_int(spec.get("sign", 1), "model field 'sign'"))
    raise CliInputError(
        f"family must be umbilic|theorem1|theorem2|corollary2, got {family!r}")


def cmd_model(args) -> int:
    spec = _read_json(args.spec)
    surface = _build_model(spec)
    doc = surface_to_json(surface)
    if args.surface_out:
        _write(args.surface_out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    payload = {"family": spec.get("family"), "surface": doc}
    _emit(_report("model", [args.spec], payload), args.output)
    return EXIT_OK


def _int_list(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise CliInputError(f"expected a comma-separated integer list: {text!r}") from exc


def cmd_census(args) -> int:
    config = CensusConfig(
        ns=tuple(_int_list(args.n)),
        ms=tuple(_int_list(args.m)),
        max_weight=args.max_weight if args.max_weight is not None else 8,
        samples=args.samples,
        seed=args.seed,
    )
    result = run_census(config)
    _emit(_report("census", [], result), args.output)
    return EXIT_OK if result["gap_violations"] == 0 else EXIT_MATH


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crmoser",
                     description="Exact stability-group computations for "
                                 "normal-form hypersurfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, surface=True):
        if surface:
            p.add_argument("--surface", required=True, metavar="FILE",
                           help="surface JSON document")
        p.add_argument("--output", metavar="FILE", help="also write the report here")

    p = sub.add_parser("check", help="normal-form trace conditions")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("stabdim", help="linear stability algebra dimension")
    common(p)
    p.add_argument("--basis", action="store_true", help="include the basis")
    p.set_defaults(fn=cmd_stabdim)

    p = sub.add_parser("classify", help="dimension case analysis")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="verify an automorphism candidate")
    common(p)
    p.add_argument("--map", required=True, metavar="FILE",
                   help="map JSON (type linear|scaled|jet)")
    p.add_argument("--max-weight", type=int, metavar="INT",
                   help="verification weight for jets (default min(D-1, maxWeight))")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("model", help="build a model hypersurface")
    p.add_argument("--spec", required=True, metavar="FILE",
                   help="model descriptor JSON")
    p.add_argument("--surface-out", metavar="FILE",
                   help="write the surface JSON document here")
    p.add_argument("--output", metavar="FILE", help="also write the report here")
    p.set_defaults(fn=cmd_model)

    p = sub.add_parser("census", help="random gap-property census")
    p.add_argument("--n", required=True, metavar="LIST",
                   help="dimension(s), e.g. 2 or 2,3")
    p.add_argument("--m", required=True, metavar="LIST",
                   help="signature parameter(s), e.g. 0,1")
    p.add_argument("--samples", type=int, default=200, metavar="INT")
    p.add_argument("--seed", type=int, default=0, metavar="INT")
    p.add_argument("--max-weight", type=int, metavar="INT")
    p.add_argument("--output", metavar="FILE", help="also write the report here")
    p.set_defaults(fn=cmd_census)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        error_report = {
            "schema": SCHEMA,
            "library_version": __version__,
            "command": args.command,
            "error": str(exc) if not isinstance(exc, KeyError)
            else f"missing field {exc}",
        }
        print(json.dumps(error_report, indent=2, sort_keys=True))
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
