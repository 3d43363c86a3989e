"""Command-line drivers emitting machine-readable verification reports.

Subcommands:

    verify-hh   solid-vs-boundary inequality plus the torsion-gradient route
    gradient    max inward normal derivative vs its two analytic bounds
    lemmas      1-D crossing-law grid, near-boundary lifetime check,
                and the exit-time domination sweep
    examples    closed-form example table (ball, ellipsoid incl. the
                corrected coefficient, half-disk ratio)
    constants   dimension-constants table over an n range

Reports embed the fully resolved configuration; rerunning a command with
the same arguments reproduces the report body byte for byte (the
timestamp lives in a separate header field).  Exit codes: 0 all checks
pass, 1 any bound violated or any estimate degraded (more than 1% of
walks truncated), 2 invalid input or a body too thin to sample (a
sampler starved).  Code 2 prints one "error: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analytic_library as al
from . import brownian_1d as b1
from . import convex_geometry as cg
from . import hh_verifier as hh
from . import presets
from . import rng
from . import wos_engine as wos
from .estimates import WosConfig

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2

CSV_COLUMNS = ["quantity", "value", "stderr", "bound", "margin", "pass",
               "citation", "seed"]
CONSTANTS_COLUMNS = ["n", "omega_n", "normalized_constant",
                     "theorem2_raw_unit_vol", "theorem2_unit_vol",
                     "cn_lower_bound"]


def _row(quantity, value, citation, seed, stderr=None, bound=None,
         margin=None, passed=None, extra=None):
    row = {"quantity": quantity,
           "value": None if value is None else float(value),
           "stderr": None if stderr is None else float(stderr),
           "bound": None if bound is None else float(bound),
           "margin": None if margin is None else float(margin),
           "pass": passed,
           "citation": citation,
           "seed": seed}
    if extra:
        row["extra"] = extra
    return row


def _report_row(report, seed, extra_allowed=True):
    extra = dict(report.details) if (report.details and extra_allowed) else None
    return _row(report.quantity_name, report.measured.mean,
                report.provenance, seed, stderr=report.measured.stderr,
                bound=report.bound_value, margin=report.margin,
                passed=report.passed, extra=extra)


def _any_degraded(estimates) -> bool:
    return any(e.degraded for e in estimates)


def write_report(out_path, fmt: str, header: dict, rows: list[dict]) -> str:
    """Serialize rows (+ header for JSON) and optionally write to a file.

    The JSON body and the whole CSV are deterministic; only the JSON
    header carries the timestamp; a non-finite float raises ValueError."""
    if fmt == "json":
        doc = {"header": header, "rows": rows}
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        columns = header.get("columns", CSV_COLUMNS)
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row.get(col) is None else row.get(col)
                             for col in columns])
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out_path:
        Path(out_path).write_text(text)
    return text


def _header(args, command: str, cfg: WosConfig, **extra) -> dict:
    header = {
        "command": command,
        "config": {"samples": cfg.samples, "seed": cfg.seed,
                   "shell_width": cfg.shell_width, "max_steps": wos._MAX_STEPS,
                   "fd_delta": cfg.fd_delta},
        "format": args.format,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    header.update(extra)
    return header


def _build_config(args) -> WosConfig:
    return WosConfig(samples=args.samples, seed=args.seed,
                     shell_width=args.shell, fd_delta=args.fd_delta)


def _resolve_body(args):
    """--body is a preset name or a JSON file path; a given --n must be
    the body's dimension."""
    spec = args.body
    if spec is None:
        raise ValueError("--body is required (preset name or JSON path)")
    path = Path(spec)
    if spec.endswith(".json") or path.is_file():
        body = cg.body_from_json(json.loads(path.read_text()))
        if args.n not in (None, body.dimension):
            raise ValueError(f"body {spec!r} has n = {body.dimension}, "
                             f"not {args.n}")
        return spec, body
    return spec, presets.body_preset(spec, n=args.n)


def _resolve_fn(args, body):
    spec = args.fn
    if spec is None:
        raise ValueError("--fn is required (preset name or JSON path)")
    path = Path(spec)
    if spec.endswith(".json") or path.is_file():
        doc = json.loads(path.read_text())
        return spec, hh.fn_from_json(doc, body.dimension)
    return spec, presets.fn_preset(spec, body)


def _emit(args, header, rows, code):
    text = write_report(args.out, args.format, header, rows)
    if not args.out:
        sys.stdout.write(text)
    else:
        passed = sum(1 for r in rows if r.get("pass") is not False)
        print(f"wrote {args.out}: {passed}/{len(rows)} rows pass, "
              f"exit {code}")
    return code


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify_hh(args) -> int:
    cfg = _build_config(args)
    if args.preset:
        body_name, fn_name = presets.PAIR_PRESETS[args.preset]
        if args.body not in (None, body_name) or args.fn not in (None, fn_name):
            raise ValueError(f"--preset {args.preset} is --body {body_name} "
                             f"--fn {fn_name}, not --body {args.body} "
                             f"--fn {args.fn}")
        args.body, args.fn = body_name, fn_name
    body_name, body = _resolve_body(args)
    fn_name, fn = _resolve_fn(args, body)
    r1 = hh.verify_theorem1(body, fn, cfg)
    r2 = hh.hh_via_torsion(body, fn, cfg,
                           boundary_samples=args.boundary_samples)
    rows = [_report_row(r1, cfg.seed), _report_row(r2, cfg.seed)]
    ok = r1.passed and r2.passed and not _any_degraded([r1.measured, r2.measured])
    header = _header(args, "verify-hh", cfg, body=body_name, fn=fn_name,
                     body_json=cg.body_to_json(body), fn_json=fn.to_json())
    return _emit(args, header, rows, EXIT_PASS if ok else EXIT_VIOLATION)


def cmd_gradient(args) -> int:
    cfg = _build_config(args)
    body_name, body = _resolve_body(args)
    vol = cg.volume(body, cfg)
    result = wos.max_normal_derivative(body, cfg, args.boundary_samples)
    est = result.estimate
    n = body.dimension
    bound = al.theorem2_bound(n, vol.mean)
    raw = al.theorem2_raw_bound(n, vol.mean)
    rep = al.make_report(
        "max_normal_derivative", est, bound,
        provenance="max inward normal derivative of the torsion function "
                   "<= (sqrt(2)/pi) vol^(1/n)",
        details={"location": result.location.tolist(),
                 "volume": vol.mean, "evaluations": result.evaluations})
    rep_raw = al.make_report(
        "max_normal_derivative", est, raw,
        provenance="pre-simplification bound "
                   "(2/sqrt(pi)) n^(-1/2) (vol/omega_n)^(1/n)")
    rows = [_report_row(rep, cfg.seed), _report_row(rep_raw, cfg.seed)]
    ok = rep.passed and rep_raw.passed and not _any_degraded([est])
    header = _header(args, "gradient", cfg, body=body_name,
                     boundary_samples=args.boundary_samples,
                     rejected_probes=result.rejected)
    return _emit(args, header, rows, EXIT_PASS if ok else EXIT_VIOLATION)


def _lemma_grid_rows(cfg) -> tuple[list[dict], bool]:
    rows = []
    key = rng.derive(cfg.seed, 0x1E44)
    count = 1000
    u = rng.uniforms(key, np.arange(count, dtype=np.uint64), 0, 2)
    eps_grid = 0.1 + 3.9 * u[:, 0]
    T_grid = 0.05 + 9.95 * u[:, 1]
    worst_trunc = math.inf
    worst_surv = math.inf
    for eps, T in zip(eps_grid, T_grid):
        law = b1.HittingTimeLaw(float(eps))
        worst_trunc = min(worst_trunc,
                          b1.truncated_mean_bound(law, float(T))
                          - b1.truncated_mean(law, float(T)))
        worst_surv = min(worst_surv,
                         b1.survival_linear_bound(law, float(T))
                         - float(b1.survival_probability(law, float(T))))
    rows.append(_row("truncated_mean_bound_margin", worst_trunc,
                     "int_0^T t psi dt <= eps sqrt(2/pi) sqrt(T), worst "
                     f"margin over {count} random (eps, T)", cfg.seed,
                     bound=None, passed=worst_trunc >= 0.0))
    rows.append(_row("survival_bound_margin", worst_surv,
                     "P(T > T0) <= sqrt(2/pi) eps/sqrt(T0), worst margin "
                     f"over {count} random (eps, T)", cfg.seed,
                     passed=worst_surv >= 0.0))
    ok = worst_trunc >= 0.0 and worst_surv >= 0.0
    return rows, ok


def _lemma_simulation_rows(cfg, paths: int) -> tuple[list[dict], bool]:
    law = b1.HittingTimeLaw(1.0)
    dt, horizon = 1e-3, 1.0
    sample = b1.simulate_hitting_times(law, paths, dt, horizon,
                                       seed=rng.derive(cfg.seed, 0x513))
    cond = b1.conditional_cdf(law, horizon)
    ks = b1.ks_distance(sample.times, cond)
    hits = len(sample.times)
    # crossing times are reported on the step grid, so the empirical CDF
    # may trail the law by its largest rise over one step
    grid = dt * np.arange(1, int(round(horizon / dt)) + 1)
    step_rise = float(np.max(np.diff(cond(grid), prepend=0.0)))
    ks_threshold = 1.949 / math.sqrt(hits) + step_rise
    surv = float(b1.survival_probability(law, horizon))
    se = math.sqrt(surv * (1.0 - surv) / paths)
    censored_frac = sample.censored / paths
    rows = [
        _row("crossing_time_ks", ks,
             "KS distance of bridge-corrected crossing times to the "
             "reflection-principle CDF", cfg.seed, bound=ks_threshold,
             margin=ks_threshold - ks, passed=ks <= ks_threshold),
        _row("censored_fraction", censored_frac,
             "censored fraction matches 2 Phi(eps/sqrt(T)) - 1", cfg.seed,
             stderr=se, bound=surv + 4 * se,
             margin=surv + 4 * se - censored_frac,
             passed=abs(censored_frac - surv) <= 4 * se),
    ]
    return rows, all(r["pass"] for r in rows)


def cmd_lemmas(args) -> int:
    cfg = _build_config(args)
    rows, ok = _lemma_grid_rows(cfg)
    sim_rows, sim_ok = _lemma_simulation_rows(cfg, paths=args.paths)
    rows.extend(sim_rows)
    ok = ok and sim_ok
    estimates = []
    for name in ("unit-ball-n2", "unit-box-n3"):
        body = presets.body_preset(name)
        rep = wos.lifetime_bound_check(body, epsilon=0.05, cfg=cfg,
                                       boundary_samples=4)
        estimates.append(rep.measured)
        row = _report_row(rep, cfg.seed)
        row["quantity"] = f"lifetime_bound_{name}"
        rows.append(row)
        ok = ok and rep.passed
    for i in range(args.sweep):
        n = 2 + (i % 2)
        body, vol = presets.random_body(n, cfg.seed, i)
        shell_depth = 2.0 * cfg.shell_width * body.diameter
        x = presets.random_interior_point(body, rng.derive(cfg.seed, i),
                                          min_depth=shell_depth)
        measured = wos.exit_time_mean(body, x, cfg)
        estimates.append(measured)
        bound = al.lifetime_bound(n, vol)
        rep = al.make_report(
            f"exit_time_domination_{i}", measured, bound,
            provenance="expected exit time <= (1/n)(vol/omega_n)^(2/n)")
        rows.append(_report_row(rep, cfg.seed, extra_allowed=False))
        ok = ok and rep.passed
    ok = ok and not _any_degraded(estimates)
    header = _header(args, "lemmas", cfg, paths=args.paths, sweep=args.sweep)
    return _emit(args, header, rows, EXIT_PASS if ok else EXIT_VIOLATION)


def cmd_examples(args) -> int:
    cfg = _build_config(args)
    rows = []
    for n, radius in ((2, 1.0), (3, 2.0), (5, 1.0)):
        rows.append(_row(
            f"ball_torsion_center_n{n}_R{radius}",
            al.ball_torsion(n, radius, 0.0),
            "radial torsion value (R^2 - r^2)/(2n) at the center", cfg.seed))
        grad = al.ball_max_gradient(n, radius)
        bound = al.theorem2_bound(n, al.ball_volume(n, radius))
        rows.append(_row(
            f"ball_max_gradient_n{n}_R{radius}", grad,
            "ball gradient R/n vs (sqrt(2)/pi) vol^(1/n)", cfg.seed,
            bound=bound, margin=bound - grad, passed=grad <= bound))
    for n in (2, 3, 10):
        ex = al.ellipsoid_torsion(n)
        rows.append(_row(
            f"ellipsoid_stated_max_gradient_n{n}", ex.stated_max_gradient,
            "as stated: the defining function taken as the torsion function "
            "(coefficient 1)", cfg.seed))
        rows.append(_row(
            f"ellipsoid_corrected_max_gradient_n{n}", ex.max_gradient,
            "corrected: lap of the defining function is -3/2, so the "
            "torsion coefficient is 2/3", cfg.seed,
            extra={"coefficient": ex.coefficient,
                   "volume_root": ex.volume_root,
                   "sharpness_ratio": ex.sharpness_ratio}))
    hd = al.half_disk_example()
    rows.append(_row("half_disk_solid_integral", hd.lhs,
                     "integral of 1 - y over the upper unit half-disk",
                     cfg.seed))
    rows.append(_row("half_disk_boundary_integral", hd.rhs_surface,
                     "integral of 1 - y over the half-disk boundary",
                     cfg.seed))
    rows.append(_row(
        "half_disk_ratio", hd.ratio,
        "achieved ratio: above 0.22, below sqrt(2)/pi", cfg.seed,
        bound=al.GRADIENT_CONSTANT, margin=al.GRADIENT_CONSTANT - hd.ratio,
        passed=0.22 < hd.ratio < al.GRADIENT_CONSTANT))
    ok = all(r["pass"] is not False for r in rows)
    header = _header(args, "examples", cfg)
    return _emit(args, header, rows, EXIT_PASS if ok else EXIT_VIOLATION)


def cmd_constants(args) -> int:
    cfg = _build_config(args)
    n_values = range(args.n_min, args.n_max + 1)
    if not n_values:
        raise ValueError(f"empty range: --n-min {args.n_min} exceeds "
                         f"--n-max {args.n_max}")
    rows = []
    ok = True
    for n in n_values:
        row = {"n": n, "omega_n": al.omega(n),
               "normalized_constant": al.normalized_constant(n),
               "theorem2_raw_unit_vol": al.theorem2_raw_bound(n, 1.0),
               "theorem2_unit_vol": al.theorem2_bound(n, 1.0),
               "cn_lower_bound": al.cn_lower_bound(n)}
        rows.append(row)
        ok = ok and (al.SQRT_2PI - 1e-12 <= row["normalized_constant"]
                     <= al.SQRT_2PIE + 1e-12)
    header = _header(args, "constants", cfg, columns=CONSTANTS_COLUMNS)
    return _emit(args, header, rows, EXIT_PASS if ok else EXIT_VIOLATION)


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Exits 2 with one "error: ..." line on a bad command line, as on any
    other invalid input; subparsers are of the same class."""

    def error(self, message):
        self.exit(EXIT_INVALID, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torsion-bound",
        description="Verify the solid-vs-boundary mean inequality and the "
                    "torsion gradient bound on convex bodies.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--samples", type=int, default=10_000,
                       help="Monte Carlo samples / walks per estimate")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--shell", type=float, default=1e-4,
                       help="absorbing shell width (fraction of diameter)")
        p.add_argument("--fd-delta", type=float, default=1e-2,
                       help="normal-derivative probe depth (fraction of "
                            "diameter)")
        p.add_argument("--out", default=None, help="report file path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--n", type=int, default=None,
                       help="dimension for presets without an explicit -n")

    p = sub.add_parser("verify-hh", help="solid vs boundary mean inequality")
    common(p)
    p.add_argument("--body", default=None)
    p.add_argument("--fn", default=None)
    p.add_argument("--preset", choices=sorted(presets.PAIR_PRESETS),
                   default=None, help="named (body, fn) pair; a --body or "
                                      "--fn given with it must name the same")
    p.add_argument("--boundary-samples", type=int, default=64)
    p.set_defaults(func=cmd_verify_hh)

    p = sub.add_parser("gradient", help="torsion gradient bound")
    common(p)
    p.add_argument("--body", required=True)
    p.add_argument("--boundary-samples", type=int, default=64)
    p.set_defaults(func=cmd_gradient)

    p = sub.add_parser("lemmas", help="crossing-law and exit-time checks")
    common(p)
    p.add_argument("--paths", type=int, default=4000,
                   help="simulated 1-D crossing paths")
    p.add_argument("--sweep", type=int, default=6,
                   help="random bodies in the domination sweep")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("examples", help="closed-form example table")
    common(p)
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("constants", help="dimension constants table")
    common(p)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=10)
    p.set_defaults(func=cmd_constants)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError,
            cg.SamplingStarved, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
