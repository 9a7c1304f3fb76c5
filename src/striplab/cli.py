"""Command-line surface: approx, scan, zeta, cantor.

Exit codes: 0 success, 1 malformed input, 2 budget not met / infeasible
(best attempt still written), 3 scan found no hit interval (outputs still
written).  Every failure payload is valid JSON carrying an "error" field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from . import geometry, scan as scan_mod, zeta as zeta_mod
from .errors import BudgetInfeasible, BudgetNotMet, StriplabError
from .polynomial import evaluate_factored, derivative_bound
from .repair import approximate_nonvanishing
from .approximation import TargetFunction

_BUILTIN_TARGETS = ("conj", "abs", "identity", "zeta")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_set(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return geometry.build_set(spec), spec, _digest(path)


def _load_target(arg: str):
    """A path to a JSON target spec, a builtin name, or constant:re[,im]."""
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        return spec, _digest(arg)
    if arg in _BUILTIN_TARGETS:
        if arg == "zeta":
            return {"kind": "zeta"}, None
        return {"kind": "builtin", "name": arg}, None
    if arg.startswith("constant:"):
        parts = arg.split(":", 1)[1].split(",")
        re = float(parts[0])
        im = float(parts[1]) if len(parts) > 1 else 0.0
        return {"kind": "builtin", "name": "constant", "value": [re, im]}, None
    raise StriplabError(
        f"target {arg!r} is neither a file nor one of "
        f"{', '.join(_BUILTIN_TARGETS)} nor constant:re[,im]"
    )


def _manifest(command: str, config: dict, digests: dict, started: float) -> dict:
    return {
        "command": command,
        "config": config,
        "version": __version__,
        "wall_time_s": time.monotonic() - started,
        "input_digests": digests,
    }


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _zeta_params(args) -> zeta_mod.ZetaParams:
    return zeta_mod.ZetaParams(
        terms_per_unit_t=args.terms_per_unit_t,
        min_terms=args.min_terms,
        bernoulli_terms=args.bernoulli_terms,
    )


def _add_zeta_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--terms-per-unit-t", type=float, default=2.0)
    p.add_argument("--min-terms", type=int, default=20)
    p.add_argument("--bernoulli-terms", type=int, default=12)


def _fit_payload(fit, K) -> dict:
    # the certificate statement: sup error over a grid of covering radius h,
    # plus the rigorous between-samples slack L_P * h from the derivative
    # bound on the smallest disk about the fit's frame centre holding K
    center = fit.polynomial.center
    lp = derivative_bound(fit.polynomial, geometry.bounding_radius(K, center), center)
    return {
        "polynomial": fit.polynomial.to_spec(),
        "sup_error_on_samples": fit.sup_error_on_samples,
        "degree_used": fit.degree_used,
        "iterations": fit.iterations,
        "grid_covering_radius": fit.grid_covering_radius,
        "derivative_bound_LP": lp,
        "between_samples_slack": fit.grid_covering_radius * lp,
    }


def cmd_approx(args) -> int:
    started = time.monotonic()
    K, set_spec, set_digest = _load_set(args.set)
    target_spec, target_digest = _load_target(args.target)
    config = {
        "set": set_spec,
        "target": target_spec,
        "eps": args.eps,
        "max_degree": args.max_degree,
    }
    digests = {"set": set_digest, "target": target_digest}
    try:
        fp, fit, cert = approximate_nonvanishing(K, target_spec, args.eps, args.max_degree)
    except BudgetNotMet as exc:
        payload = {
            "error": f"budget not met: {exc}",
            "fit": _fit_payload(exc.best, K),
            "manifest": _manifest("approx", config, digests, started),
        }
        _emit(payload, args.out)
        return 2
    except BudgetInfeasible as exc:
        payload = {
            "error": f"repair budget infeasible: {exc}",
            "required_delta": exc.required_delta,
            "manifest": _manifest("approx", config, digests, started),
        }
        _emit(payload, args.out)
        return 2
    payload = {
        "fit": _fit_payload(fit, K),
        "factored_polynomial": fp.to_spec(),
        "certificate": cert.to_spec(),
        "certified_total_error": fit.sup_error_on_samples + cert.perturbation_bound_value,
        "manifest": _manifest("approx", config, digests, started),
    }
    _emit(payload, args.out)
    return 0


def cmd_scan(args) -> int:
    started = time.monotonic()
    K, set_spec, set_digest = _load_set(args.set)
    target_spec, target_digest = _load_target(args.target)
    config = scan_mod.ScanConfig(
        T=args.T, step=args.step, eps=args.eps, refine_tol=args.refine_tol, t_start=args.t_start
    )
    params = _zeta_params(args)
    config_echo = {
        "set": set_spec,
        "target": target_spec,
        "T": args.T,
        "step": args.step,
        "eps": args.eps,
        "refine_tol": args.refine_tol,
        "t_start": args.t_start,
        "grid_h": args.grid_h,
        "via_polynomial": args.via_polynomial,
        "threads": args.threads,
        "zeta_params": {
            "terms_per_unit_t": args.terms_per_unit_t,
            "min_terms": args.min_terms,
            "bernoulli_terms": args.bernoulli_terms,
        },
    }
    payload: dict = {}
    if args.via_polynomial:
        # replace the raw target by its certified nonvanishing polynomial and
        # scan against that surrogate at half the threshold
        fp, fit, cert = approximate_nonvanishing(K, target_spec, args.eps / 2.0, args.max_degree)
        grid = geometry.discretize(K, args.grid_h)
        surrogate = TargetFunction(evaluate_factored(fp, grid.points), "nonvanishing surrogate")
        config = scan_mod.ScanConfig(
            T=args.T,
            step=args.step,
            eps=args.eps / 2.0,
            refine_tol=args.refine_tol,
            t_start=args.t_start,
        )
        report = scan_mod.scan_on_grid(grid, surrogate, config, params, args.threads)
        payload["via_polynomial"] = {
            "fit": _fit_payload(fit, K),
            "factored_polynomial": fp.to_spec(),
            "certificate": cert.to_spec(),
            "scan_eps": args.eps / 2.0,
        }
    else:
        report = scan_mod.scan_density(
            K, target_spec, config, params, threads=args.threads, grid_h=args.grid_h
        )
    if args.out_csv:
        scan_mod.write_trace_csv(report, args.out_csv)
    payload["report"] = report.to_dict()
    exit_code = 0 if report.hit_intervals else 3
    if exit_code == 3:
        payload["error"] = "no hit intervals below eps in the scanned range"
    payload["manifest"] = _manifest(
        "scan", config_echo, {"set": set_digest, "target": target_digest}, started
    )
    _emit(payload, args.out_json)
    return exit_code


def cmd_zeta(args) -> int:
    started = time.monotonic()
    params = _zeta_params(args)
    zv = zeta_mod.zeta_em(complex(args.re, args.im), params)
    payload = {
        "s": [args.re, args.im],
        "value": [zv.value.real, zv.value.imag],
        "error_estimate": zv.error_estimate,
        "manifest": _manifest(
            "zeta",
            {"re": args.re, "im": args.im, "terms_per_unit_t": params.terms_per_unit_t,
             "min_terms": params.min_terms, "bernoulli_terms": params.bernoulli_terms},
            {},
            started,
        ),
    }
    _emit(payload, args.out)
    return 0


def cmd_cantor(args) -> int:
    started = time.monotonic()
    intervals = geometry.fat_cantor(args.depth)
    payload = {
        "depth": args.depth,
        "count": int(intervals.shape[0]),
        "total_length": float((intervals[:, 1] - intervals[:, 0]).sum()),
        "intervals": intervals.tolist(),
    }
    if args.y_lo is not None and args.y_hi is not None:
        payload["set"] = {
            "variant": "cantor_product",
            "intervals": intervals.tolist(),
            "y_lo": args.y_lo,
            "y_hi": args.y_hi,
            "scale": args.scale,
            "offset": [args.offset_re, args.offset_im],
        }
    payload["manifest"] = _manifest(
        "cantor",
        {"depth": args.depth, "y_lo": args.y_lo, "y_hi": args.y_hi,
         "scale": args.scale, "offset": [args.offset_re, args.offset_im]},
        {},
        started,
    )
    _emit(payload, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="striplab",
        description="nonvanishing polynomial approximation and zeta shift scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx", help="fit + nonvanishing repair with certificates")
    p.add_argument("--set", required=True, help="set description JSON file")
    p.add_argument("--target", required=True, help="target JSON file, builtin name, or constant:re[,im]")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--max-degree", type=int, default=60)
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("scan", help="shift scan with hit intervals and density")
    p.add_argument("--set", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--T", type=float, required=True, dest="T")
    p.add_argument("--step", type=float, default=0.05,
                   help="coarse t-grid step (default 0.05, below the typical "
                        "oscillation scale of the shifted values at moderate t)")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--refine-tol", type=float, default=1e-4)
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--grid-h", type=float, default=scan_mod.DEFAULT_GRID_H)
    p.add_argument("--via-polynomial", action="store_true",
                   help="scan against the certified nonvanishing polynomial at eps/2")
    p.add_argument("--max-degree", type=int, default=60)
    p.add_argument("--threads", type=int,
                   default=int(os.environ.get("STRIPLAB_THREADS", "1")))
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-json", default=None)
    _add_zeta_flags(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("zeta", help="one zeta value with error estimate")
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, required=True)
    p.add_argument("--out", default=None)
    _add_zeta_flags(p)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("cantor", help="positive-measure Cantor intervals / product set")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--y-lo", type=float, default=None)
    p.add_argument("--y-hi", type=float, default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--offset-re", type=float, default=0.0)
    p.add_argument("--offset-im", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cantor)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (StriplabError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 1


def entry() -> None:
    sys.exit(main())
