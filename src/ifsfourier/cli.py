"""Command-line frontend.

Subcommands: check-hadamard, cycles, spectrum, verify-onb, mu-hat,
attractor, harmonic, riesz, example.  The affine subcommands take a
registry example with a duality triple or a config file; riesz runs the
walk of the registry entry riesz3, given by its view and weight.  Reports
are JSON on stdout (deterministic given config and seed: floats at 17
significant digits, sorted keys); point clouds and grids go to CSV via
--out.

Each subcommand returns its report (a dict, or the config text of
`example NAME`), and raises `CheckFailed` with its report when a standing
hypothesis fails on the data.  `main` alone writes the report and picks
the exit code:

    0  success: the report on stdout;
    1  a check failed (`CheckFailed`): its report on stdout;
    2  invalid input (`ConfigError`, `OSError` or an argparse error):
       {"error": ...} or the usage message on stderr, nothing on stdout;
    3  any other exception, an internal error or a system the code cannot
       handle: its traceback on stderr, nothing on stdout.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from contextlib import contextmanager
from fractions import Fraction

from . import (
    chaos_game,
    check_duality,
    completeness_sum,
    enumerate_cycles,
    estimate_h,
    find_w_cycles,
    generate_lambda,
    grid_orthogonality,
    h_closed_form,
    mu_hat_detail,
    points_to_csv,
    verify_orthogonality,
    weight_from_digits,
)
from .config import ConfigError, SystemConfig, emit_config, parse_config
from .invariant import concentration_curve, fourier_coefficient, riesz_chain
from .pathspace import QMF_SAMPLING_TOL, QmfError
from .registry import EXAMPLES, example_names
from .report import dumps
from .system import frac_str
from .transfer import check_qmf

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL_ERROR = 3


class CheckFailed(Exception):
    """A hypothesis of the paper fails on the given data; `report` says how."""

    def __init__(self, report: dict):
        super().__init__(report.get("error", "check failed"))
        self.report = report


@contextmanager
def _bounded(what: str):
    """Bad input (exit 2) for an OverflowError: a float bound not closing on the data."""
    try:
        yield
    except OverflowError as exc:
        raise ConfigError("%s: %s" % (what, exc)) from exc


def _entry_config(entry) -> SystemConfig:
    return SystemConfig(
        d=len(entry.R), R=[list(r) for r in entry.R],
        B=[list(b) for b in entry.B], L=[list(l) for l in entry.L],
        p_max=entry.p_max, lambda_levels=entry.lambda_levels, name=entry.name,
    )


def _load_system(args):
    if getattr(args, "example", None):
        name = args.example
        if name not in EXAMPLES:
            raise ConfigError("unknown example %r; known: %s" % (name, ", ".join(example_names())))
        cfg = _entry_config(EXAMPLES[name])
    elif getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = parse_config(fh.read(), name=args.config)
    else:
        raise ConfigError("one of --example or --config is required")
    if getattr(args, "seed", None) is not None:
        _require_at_least(0, seed=args.seed)
        cfg.seed = args.seed
    if getattr(args, "p_max", None) is not None:
        _require_at_least(1, p_max=args.p_max)
        cfg.p_max = args.p_max
    if getattr(args, "levels", None) is not None:
        _require_at_least(0, levels=args.levels)
        cfg.lambda_levels = args.levels
    return cfg, cfg.system()


def _coord_str(c) -> str:
    return frac_str(c) if isinstance(c, Fraction) else "%.17g" % float(c)


def _point_str(point) -> str:
    return ",".join(_coord_str(c) for c in point)


def _parse_point(text: str, d: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != d:
        raise ConfigError("point %r has dimension %d, expected %d" % (text, len(parts), d))
    vals = []
    for p in parts:
        try:
            v = Fraction(p) if "/" in p else float(p)
            finite = math.isfinite(v)  # a Fraction beyond the float range overflows here
        except (ValueError, ZeroDivisionError, OverflowError):
            finite = False
        if not finite:
            raise ConfigError("point %r: coordinate %r is not a finite number" % (text, p))
        vals.append(v)
    if all(isinstance(v, Fraction) or float(v).is_integer() for v in vals):
        return [Fraction(v) for v in vals]
    return [float(v) for v in vals]


def cmd_check_hadamard(args) -> dict:
    _require_at_least(0, horizon=args.horizon)
    _, sys_obj = _load_system(args)
    report = check_duality(sys_obj, integrality_horizon=args.horizon)
    out = {"system": sys_obj.name or "config", "duality": report.to_dict()}
    if not report.passes:
        raise CheckFailed(out)
    return out


def cmd_cycles(args) -> dict:
    cfg, sys_obj = _load_system(args)
    cycles = enumerate_cycles(sys_obj, cfg.p_max, w_only=not args.all)
    return {
        "system": sys_obj.name or "config",
        "p_max": cfg.p_max,
        "count": len(cycles),
        "cycles": [c.to_json_dict() for c in cycles],
    }


def _w_cycles(sys_obj, p_max) -> list:
    """The W-cycles of period <= p_max; a failed check when there are none."""
    cycles = find_w_cycles(sys_obj, p_max)
    if not cycles:
        raise CheckFailed({"error": "no W-cycles found up to p_max", "p_max": p_max})
    return cycles


def _spectrum_seeds(sys_obj, p_max) -> list:
    """The W-cycles that seed the candidate spectrum, which also needs the
    normalization 0 in B and 0 in L of the input."""
    cycles = _w_cycles(sys_obj, p_max)
    if not sys_obj.zero_in_digits():
        raise ConfigError("spectrum generation requires 0 in B and 0 in L")
    return cycles


def cmd_spectrum(args) -> dict:
    if args.count is not None:
        _require_at_least(0, count=args.count)
    _require_at_least(1, cap=args.cap)
    cfg, sys_obj = _load_system(args)
    spec = generate_lambda(sys_obj, _spectrum_seeds(sys_obj, cfg.p_max),
                           cfg.lambda_levels, element_cap=args.cap)
    if args.out:
        spec.to_csv(args.out)
    return {
        "system": sys_obj.name or "config",
        "levels": spec.level,
        "count": len(spec.rows),
        "cap_hit": spec.cap_hit,
        "tz": "unverified hypothesis",
        "elements": [frac_str(e) for e in spec.smallest(args.count)],
    }


def cmd_verify_onb(args) -> dict:
    _require_at_least(0, window=args.window, grid_span=args.grid_span)
    cfg, sys_obj = _load_system(args)
    if args.grid and sys_obj.d != 1:
        raise ConfigError("--grid analyzes the quarter-integer grid of a d = 1 system, "
                          "got d = %d" % sys_obj.d)
    spec = generate_lambda(sys_obj, _spectrum_seeds(sys_obj, cfg.p_max), cfg.lambda_levels)
    elems = spec.smallest(args.window)
    gram = verify_orthogonality(sys_obj, elems, sys_obj.tail_tol)
    probes = [_parse_point(p, sys_obj.d) for p in args.x] or [[0.3] * sys_obj.d]
    completeness = {
        _point_str(p): completeness_sum(sys_obj, elems, [float(c) for c in p],
                                        sys_obj.tail_tol)
        for p in probes
    }
    report = {
        "system": sys_obj.name or "config",
        "window": len(elems),
        "max_offdiag": gram.max_offdiag,
        "argmax_pair": None if gram.argmax_pair is None else list(map(frac_str, gram.argmax_pair)),
        "completeness_sum": completeness,
    }
    if args.grid:
        report["grid"] = grid_orthogonality(
            sys_obj, [float(c) for c in probes[0]], span=args.grid_span
        ).to_dict()
    return report


def cmd_mu_hat(args) -> dict:
    _, sys_obj = _load_system(args)
    t = _parse_point(args.t, sys_obj.d)
    with _bounded("--t %s" % args.t):
        res = mu_hat_detail(sys_obj, t if len(t) > 1 else t[0], sys_obj.tail_tol)
    return {
        "t": _point_str(t),
        "value": res.value,
        "abs": abs(res.value),
        "n_factors": res.n_factors,
        "exact_zero": res.exact_zero,
    }


def _require_at_least(low: int, **values) -> None:
    """Bad input (exit 2) unless every named count is >= low."""
    for name, value in values.items():
        if value < low:
            raise ConfigError("--%s must be >= %d, got %d"
                              % (name.replace("_", "-"), low, value))


def cmd_attractor(args) -> dict:
    _require_at_least(1, samples=args.samples, streams=args.streams)
    cfg, sys_obj = _load_system(args)
    view = sys_obj.b_view if args.view == "B" else sys_obj.l_view
    with _bounded("the %s-view" % args.view):
        radius = view.bounding_radius()
    pts = chaos_game(view, args.samples, cfg.seed, n_streams=args.streams)
    if args.out:
        points_to_csv(args.out, pts)
    return {
        "system": sys_obj.name or "config",
        "view": args.view,
        "samples": int(pts.shape[0]),
        "bbox_lo": pts.min(axis=0),
        "bbox_hi": pts.max(axis=0),
        "radius_bound": radius,
        "out": args.out or None,
    }


def _qmf_failed(sys_obj, error: str, deviation: float) -> CheckFailed:
    return CheckFailed({"system": sys_obj.name or "config", "error": error,
                        "qmf_deviation": deviation})


def cmd_harmonic(args) -> dict:
    _require_at_least(1, paths=args.paths, length=args.length,
                      depth=1 if args.depth is None else args.depth)
    cfg, sys_obj = _load_system(args)
    depth = args.depth
    if depth is None:  # the largest depth up to 10 with N^depth <= 1024 words
        depth = max((k for k in range(1, 11) if sys_obj.N ** k <= 1024), default=1)
    cycles = _w_cycles(sys_obj, cfg.p_max)
    x = _parse_point(args.x, sys_obj.d)
    xf = [float(c) for c in x]
    weight = weight_from_digits(sys_obj.B)
    with _bounded("the L-view"):
        qmf_dev = check_qmf(weight, sys_obj.l_view, n_probe=1000, seed=cfg.seed)
        if qmf_dev > QMF_SAMPLING_TOL:
            raise _qmf_failed(sys_obj, "W_B is not QMF-normalized within %g, so the path "
                              "measures are not probabilities" % QMF_SAMPLING_TOL, qmf_dev)
        closed = [h_closed_form(sys_obj, xf, c, max(1, depth // c.period)) for c in cycles]
    try:
        est = estimate_h(weight, sys_obj.l_view, xf, cycles, args.length, args.paths, cfg.seed)
    except QmfError as exc:
        # the probes passed, but a row sum at a state the walk reached did not
        raise _qmf_failed(sys_obj, str(exc), exc.deviation) from exc
    if args.words_out:
        est.paths.words_to_csv(args.words_out)
    report = est.to_dict(cycles)
    for row, cf in zip(report["per_cycle"], closed):
        row["closed_form"] = cf
    report.update({
        "system": sys_obj.name or "config",
        "x": _point_str(x),
        "closed_form_total": float(sum(closed)),
        "qmf_deviation": qmf_dev,
    })
    return report


def cmd_riesz(args) -> dict:
    _require_at_least(0, seed=args.seed)
    if args.steps < 2 or args.chains < 2:
        raise ConfigError("riesz needs --steps >= 2 and --chains >= 2 for batch-mean "
                          "errors, got %d and %d" % (args.steps, args.chains))
    entry = EXAMPLES["riesz3"]
    dev = check_qmf(entry.weight, entry.view, n_probe=1000, seed=0)
    chain = riesz_chain(args.steps, seed=args.seed, n_chains=args.chains)
    coeffs = {}
    for freq in args.fourier:
        value, stderr = fourier_coefficient(chain, freq, angular=True)
        coeffs[str(freq)] = {"value": value, "stderr": stderr}
    if args.out:
        curve = concentration_curve(chain.states)
        with open(args.out, "w", newline="") as fh:
            fh.write("q,mass\n")
            for q, mass in curve:
                fh.write("%.17g,%.17g\n" % (q, mass))
    return {
        "system": entry.name,
        "steps": chain.n,
        "branch_normalization_deviation": dev,
        "nu_hat": coeffs,
        "out": args.out or None,
    }


def cmd_example(args) -> dict | str:
    """The registry listing, an entry's view and weight, or an affine
    entry's config text (a str, printed as it is)."""
    if not args.name:
        return {name: {"kind": e.kind, "description": e.description}
                for name, e in EXAMPLES.items()}
    if args.name not in EXAMPLES:
        raise ConfigError("unknown example %r" % args.name)
    entry = EXAMPLES[args.name]
    if entry.view is None:
        return emit_config(_entry_config(entry))
    return {"name": entry.name, "kind": entry.kind, "description": entry.description,
            "matrix": entry.view.matrix, "digits": entry.view.digits,
            "weight": entry.weight.description}


def _add_system_args(p, levels=False):
    source = p.add_mutually_exclusive_group()
    source.add_argument("--example", help="registry system name")
    source.add_argument("--config", help="path to a config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--p-max", dest="p_max", type=int, default=None)
    if levels:
        p.add_argument("--levels", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifsfourier",
        description="Harmonic analysis of affine IFS Hadamard-duality systems.",
        epilog="CSV schemas: attractor points are one row per point with d "
               "columns x0..x{d-1}; spectra one row per frequency (decimal); "
               "riesz --out is a (q, mass) concentration curve. All floats "
               "are printed at 17 significant digits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-hadamard", help="verify a (B, L, R) duality system")
    _add_system_args(p)
    p.add_argument("--horizon", type=int, default=16,
                   help="integrality horizon for non-integer data")
    p.set_defaults(fn=cmd_check_hadamard)

    p = sub.add_parser("cycles", help="enumerate W-cycles exactly")
    _add_system_args(p)
    p.add_argument("--all", action="store_true", help="include non-W cycles")
    p.set_defaults(fn=cmd_cycles)

    p = sub.add_parser("spectrum", help="generate the candidate spectrum")
    _add_system_args(p, levels=True)
    p.add_argument("--cap", type=int, default=100_000)
    p.add_argument("--count", type=int, default=None, help="truncate printed elements")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("verify-onb", help="orthogonality and completeness of a window")
    _add_system_args(p, levels=True)
    p.add_argument("--window", type=int, default=50)
    p.add_argument("--x", action="append", default=[], help="completeness probe point")
    p.add_argument("--grid", action="store_true",
                   help="also analyze the quarter-integer frequency grid (d=1)")
    p.add_argument("--grid-span", type=int, default=100)
    p.set_defaults(fn=cmd_verify_onb)

    p = sub.add_parser("mu-hat", help="evaluate the Fourier transform of mu_B")
    _add_system_args(p)
    p.add_argument("--t", required=True, help="frequency, comma separated")
    p.set_defaults(fn=cmd_mu_hat)

    p = sub.add_parser("attractor", help="chaos-game attractor sample")
    _add_system_args(p)
    p.add_argument("--view", choices=("B", "L"), default="B")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--streams", type=int, default=1,
                   help="number of seeded streams the samples are split into, "
                        "concatenated in stream order; nothing runs in parallel")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(fn=cmd_attractor)

    p = sub.add_parser("harmonic", help="estimate the cycle harmonic functions h_C")
    _add_system_args(p)
    p.add_argument("--x", required=True, help="start point, comma separated")
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--length", type=int, default=64)
    p.add_argument("--depth", type=int, default=None,
                   help="closed-form word depth (default: the largest depth up to 10 "
                        "with N^depth <= 1024, so 10 for N = 2 and 5 for N = 4)")
    p.add_argument("--words-out", help="CSV path for the first 10^4 words of the estimate's walk")
    p.set_defaults(fn=cmd_harmonic)

    p = sub.add_parser("riesz", help="scale-3 Riesz product chain on the circle")
    p.add_argument("--steps", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chains", type=int, default=32,
                   help="number of independent chains, for batch-mean errors")
    p.add_argument("--fourier", type=int, nargs="*", default=[1, 6])
    p.add_argument("--out", help="CSV path for the concentration curve")
    p.set_defaults(fn=cmd_riesz)

    p = sub.add_parser("example", help="list registry examples or dump one config")
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(fn=cmd_example)

    return parser


def main(argv=None) -> int:
    """Run one subcommand: the one place that writes a report and picks
    the exit code (see the module docstring)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0,) else 0
    try:
        report, code = args.fn(args), EXIT_OK
    except CheckFailed as exc:
        report, code = exc.report, EXIT_CHECK_FAILED
    except (ConfigError, OSError) as exc:
        print(dumps({"error": str(exc)}), end="", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR
    print(report if isinstance(report, str) else dumps(report), end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
