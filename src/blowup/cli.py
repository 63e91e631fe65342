"""Command-line front end.

Subcommands cover the family table (spectrum), single profiles (solve,
profile), the two shooting curves at a matching radius (curves), the
large-amplitude limit fit (limit), continuation past the light cone
(extend), derived constants (constants), and the invariant suite (check).

Output is CSV or JSON, written deterministically: fixed column order,
10 significant digits, newline line endings, rows in index order.  The
same configuration produces byte-identical files, so the artifacts can be
diffed across machines and the plots regenerated exactly.  Exit codes:
0 success, 1 computational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass

from . import asymptotics as asy
from . import diagnostics as diag
from . import shoot
from .integrate import TERM_REACHED_END, Tolerances, center_trajectory
from .model import ModelParams, _derive_unchecked, derive_constants

__all__ = ["main", "RunConfig"]

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2

# computational failures (exit 1), tested before ValueError, which two of
# them subclass; RuntimeError covers ShootingError
COMPUTE_ERRORS = (RuntimeError, diag.DegenerateTrajectoryError, asy.InsufficientSpanError)


def _compute_errors() -> tuple:
    """COMPUTE_ERRORS, and numpy's LinAlgError (a ValueError) once numpy is loaded."""
    np = sys.modules.get("numpy")
    return COMPUTE_ERRORS + ((np.linalg.LinAlgError,) if np else ())


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs shared by the subcommands."""

    params: ModelParams
    tol: Tolerances
    rho_mid: float
    out: str
    format: str

    @staticmethod
    def from_args(args) -> "RunConfig":
        params = derive_constants(args.p)
        tol = Tolerances(rtol=args.rtol, atol=args.atol)
        rho_mid = args.rho_mid
        if not 0.0 < rho_mid < 1.0:
            raise ValueError(f"--rho-mid must lie in (0, 1), got {rho_mid:g}")
        if not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ValueError(f"--out directory {os.path.dirname(args.out)} does not exist")
        return RunConfig(params=params, tol=tol, rho_mid=rho_mid,
                         out=args.out, format=args.format)


# -- deterministic emission ----------------------------------------------------


def _num(x) -> str:
    return "%.10g" % float(x)


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, numbers.Integral):
        return str(int(x))
    if isinstance(x, str):
        return x
    return _num(x)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:       # a usage error (exit 2), not a traceback
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None


def _emit_json(obj: dict, out: str) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out)


def _kv_payload(cfg: RunConfig, kind: str, fields: list[tuple[str, object]]) -> None:
    """Key-value output used by the scalar-report subcommands."""
    if cfg.format == "json":
        _emit_json({"kind": kind, "p": cfg.params.p, **dict(fields)}, cfg.out)
    else:
        _emit(_csv(["field", "value"], [[k, v] for k, v in fields]), cfg.out)


# -- subcommands ---------------------------------------------------------------


def cmd_constants(cfg: RunConfig, args) -> int:
    P = cfg.params
    _kv_payload(cfg, "constants", [
        ("p", P.p), ("alpha", P.alpha), ("b0", P.b0), ("b_inf", P.b_inf),
        ("omega", P.omega), ("ratio_c", P.ratio_c), ("ratio_b", P.ratio_b),
    ])
    return EXIT_OK


def _solve_chain(n: int, cfg: RunConfig) -> shoot.ShootingResult:
    if n < 0:
        raise ValueError("--n must be at least 0")
    if n == 0:
        return shoot.constant_solution_result(cfg.params, cfg.tol, cfg.rho_mid)
    return shoot.find_solution(n, cfg.params, cfg.tol, cfg.rho_mid)


def cmd_solve(cfg: RunConfig, args) -> int:
    res = _solve_chain(args.n, cfg)
    if cfg.format == "json":
        _emit_json({"kind": "solve", "p": cfg.params.p, "rho_mid": cfg.rho_mid,
                    "n": res.n, "c": res.c, "b": res.b,
                    "mismatch": res.mismatch, "zeros": res.zeros}, cfg.out)
    else:
        _emit(_csv(["n", "c_n", "b_n", "mismatch", "zeros"],
                   [[res.n, res.c, res.b, res.mismatch, res.zeros]]), cfg.out)
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, args) -> int:
    if args.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    P = cfg.params
    spec = shoot.SpectrumResult(rows=[], params=P)
    failed = False
    try:
        for res in shoot.iter_rows(args.n_max, P, cfg.tol, cfg.rho_mid):
            spec.rows.append(res)
    except _compute_errors() as exc:
        print(f"spectrum: row {len(spec.rows) + 1} failed: {exc}", file=sys.stderr)
        failed = True
    # quotient columns are filled wherever the next row exists
    last = len(spec.rows)
    rows: list[list] = [
        [r.n, r.c, r.b, spec.delta_c(r.n) if r.n < last else None,
         spec.delta_b(r.n) if r.n < last else None, r.mismatch, r.zeros]
        for r in spec.rows]
    if failed:
        rows.append([last + 1, "FAIL", None, None, None, None, None])
    rows.append(["inf", None, P.b_inf, P.ratio_c, P.ratio_b, None, None])

    if cfg.format == "json":
        keys = ("n", "c", "b", "delta_c", "delta_b", "mismatch", "zeros")
        payload_rows = [{"n": r[0], "failed": True} if r[1] == "FAIL" else dict(zip(keys, r))
                        for r in rows[:-1]]
        _emit_json({"kind": "spectrum", "p": P.p, "rho_mid": cfg.rho_mid,
                    "rows": payload_rows,
                    "limits": {"b_inf": P.b_inf, "ratio_c": P.ratio_c,
                               "ratio_b": P.ratio_b}}, cfg.out)
    else:
        _emit(_csv(["n", "c_n", "b_n", "delta_c", "delta_b", "mismatch", "zeros"],
                   rows), cfg.out)
    return EXIT_COMPUTE if failed else EXIT_OK


def cmd_profile(cfg: RunConfig, args) -> int:
    if args.samples < 2:
        raise ValueError("--samples must be at least 2")
    import numpy as np
    res = _solve_chain(args.n, cfg)
    traj = res.trajectory
    P = cfg.params
    lo, hi = traj.rho_span()
    rho = np.linspace(lo, hi, args.samples)
    u, du = traj.eval(rho)
    w = rho ** P.alpha * u / P.b_inf - 1.0
    theta = diag.phase_at(traj, rho)
    H = diag.eval_energy(rho, u, du, P)
    Q = diag.eval_virial(rho, u, du, P)
    cols = zip(rho, u, du, w, theta, H, Q)
    if cfg.format == "json":
        _emit_json({"kind": "profile", "p": P.p, "n": res.n, "c": res.c,
                    "b": res.b, "rho_mid": cfg.rho_mid,
                    "columns": ["rho", "u", "du", "w", "Theta", "H", "Q"],
                    "data": [[float(v) for v in row] for row in cols]}, cfg.out)
    else:
        _emit(_csv(["rho", "u", "du", "w", "Theta", "H", "Q"],
                   [list(row) for row in cols]), cfg.out)
    return EXIT_OK


def cmd_curves(cfg: RunConfig, args) -> int:
    P = cfg.params
    if args.n_c < 2 or args.n_b < 2:
        raise ValueError("--n-c and --n-b must be at least 2")
    if not (0 < args.c_lo < args.c_hi and 0 < args.b_lo < args.b_hi
            and math.isfinite(args.c_hi) and math.isfinite(args.b_hi)):
        raise ValueError("curve ranges must be finite, positive and increasing")
    rows = shoot.sample_curves(P, cfg.tol, cfg.rho_mid, args.c_lo, args.c_hi, args.n_c,
                               args.b_lo, args.b_hi, args.n_b)
    if cfg.format == "json":
        _emit_json({"kind": "curves", "p": P.p, "rho_mid": cfg.rho_mid,
                    "points": [{"side": r[0], "param": r[1], "u_mid": r[2],
                                "du_mid": r[3]} for r in rows]}, cfg.out)
    else:
        _emit(_csv(["side", "param", "u_mid", "du_mid"], rows), cfg.out)
    return EXIT_OK


def cmd_limit(cfg: RunConfig, args) -> int:
    P = cfg.params
    if not (1.0 < args.x_max and math.isfinite(args.x_max)):
        raise ValueError("--x-max must be finite and exceed 1")
    fit = asy.fit_limit_asymptotics(asy.integrate_limit_equation(args.x_max, P, cfg.tol), P)
    lam = (P.p - 5.0) / (2.0 * (P.p - 1.0))
    fields = [
        ("x_max", args.x_max),
        ("amplitude", fit.amplitude), ("phase", fit.phase),
        ("frequency", fit.frequency), ("decay", fit.decay),
        ("residual", fit.residual), ("n_periods", fit.n_periods),
        ("omega_predicted", P.omega), ("decay_predicted", lam),
    ]
    _kv_payload(cfg, "limit", fields)
    return EXIT_OK


def cmd_extend(cfg: RunConfig, args) -> int:
    if args.n < 1:
        raise ValueError("--n must be at least 1 for extend "
                         "(u_0 = b0 has no decaying continuation)")
    if not (1.0 < args.rho_max and math.isfinite(args.rho_max)):
        raise ValueError("--rho-max must be finite and exceed 1")
    res = _solve_chain(args.n, cfg)
    rep = diag.extend_beyond_lightcone(res.b, cfg.params, args.rho_max, cfg.tol)
    fields = [
        ("n", res.n), ("b", rep.b), ("rho_max", rep.rho_max),
        ("u_final", rep.u_final), ("du_final", rep.du_final),
        ("min_u", rep.min_u), ("max_u", rep.max_u),
        ("min_decay_margin", rep.min_decay_margin),
        ("decay_margin_at_cone", rep.decay_margin_at_cone),
        ("monotone", rep.monotone), ("positive", rep.positive),
        ("below_b0", rep.below_b0), ("passed", rep.passed),
    ]
    _kv_payload(cfg, "extend", fields)
    return EXIT_OK if rep.passed else EXIT_COMPUTE


# -- invariant suite -----------------------------------------------------------


def _attempt(make):
    """Run make() now; return a getter of its value that re-raises, on every
    call, the computational failure make() raised instead."""
    try:
        value, error = make(), None
    except _compute_errors() as exc:
        value, error = None, exc

    def get():
        if error is not None:
            raise error
        return value

    return get


def _run_checks(cfg: RunConfig) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) of every invariant, in a fixed order.

    An invariant that raises a computational failure fails with the error
    as its detail, and the others still run.  Inputs several invariants
    share (the family rows, the limit-equation samples) are computed once;
    their failure fails each invariant that reads them.
    """
    P = cfg.params
    tol = cfg.tol
    lam = (P.p - 5.0) / (2.0 * (P.p - 1.0))
    spec = _attempt(lambda: shoot.spectrum(6, P, tol, cfg.rho_mid))
    limit = _attempt(lambda: asy.integrate_limit_equation(asy.DEFAULT_X_MAX, P, tol))

    def nodal_counts():
        rows = spec().rows
        return (all(r.zeros == r.n + 1 for r in rows),
                "zeros " + " ".join(str(r.zeros) for r in rows))

    def cone_value_below_constant():
        rows = spec().rows
        ok = all(r.b < P.b0 for r in rows) and all(r.c > P.b0 for r in rows)
        return ok, "max b %.6f vs b0 %.6f" % (max(r.b for r in rows), P.b0)

    def cone_value_alternation():
        signs = [math.copysign(1.0, r.b - P.b_inf) for r in spec().rows]
        ok = all(a * b < 0 for a, b in zip(signs[:-1], signs[1:]))
        return ok, "signs " + " ".join("%+d" % int(s) for s in signs)

    def monotone_functionals():
        worst = 0.0
        ok = True
        for r in spec().rows:
            rep = diag.monotonicity_report(r.trajectory)
            ok = ok and rep.passed
            worst = max(worst, max(c.max_rise_scaled for c in rep.checks.values()))
        return ok, "max scaled rise %.3g" % worst

    def virial_nonpositive():
        qmax = -math.inf
        q0_excess = 0.0
        for r in spec().rows:
            rho, u, du = r.trajectory.profile_samples()
            q = diag.eval_virial(rho, u, du, P)
            qmax = max(qmax, float(q.max()))
            # every term of Q carries rho^2 or rho^3, so at the launch radius the
            # value must sit at its cubic natural size, not merely below a fixed cap
            r0, u0 = float(rho[0]), float(u[0])
            ddu0 = (P.aa1 * u0 - u0 ** P.p) / 3.0
            scale = r0 ** 3 * (abs(3.0 * (5 - P.p) / (4.0 * (P.p - 1))
                                   - 2.0 / (P.p - 1) ** 2) * u0 ** 2
                               + u0 ** (P.p + 1) / (P.p + 1) + abs(u0 * ddu0))
            q0_excess = max(q0_excess, abs(float(q[0])) / (100.0 * scale + 1e-10))
        ok = qmax <= 1e-12 and q0_excess <= 1.0
        return ok, "max Q %.3g, center excess %.3g" % (qmax, q0_excess)

    def constant_solution_zero():
        res0 = shoot.constant_solution_result(P, tol, cfg.rho_mid)
        zs = diag.w_zero_locations(res0.trajectory)
        target = math.sqrt((P.p - 3.0) / (P.p + 1.0))
        if len(zs) != 1:
            return False, "%d zeros, expected one at %.12f" % (len(zs), target)
        return (abs(float(zs[0]) - target) <= 1e-9,
                "zero at %.12f, expected %.12f" % (zs[0], target))

    def first_crossing_bound():
        ok = True
        detail = []
        for c in (5.0, 10.0, 50.0):
            rep = diag.first_crossing_report(c, P, tol)
            ok = ok and rep.passed
            detail.append("c=%g rho1=%.4f<=%.4f" % (c, rep.rho_first, rep.crossing_bound))
        return ok, "; ".join(detail)

    def crossing_discriminant():
        drep = diag.discriminant_report(P)
        ok = (abs(drep.closed_form - drep.value_at_v_star) <= 1e-12
              and drep.all_negative and drep.decreasing)
        return ok, "value %.6f, all negative %s" % (drep.closed_form, drep.all_negative)

    def limit_ringdown_fit():
        fit = asy.fit_limit_asymptotics(limit(), P)
        ok = (abs(fit.frequency - P.omega) <= 1e-3 and abs(fit.decay - lam) <= 5e-3)
        return ok, ("omega %.6f (pred %.6f), decay %.6f (pred %.6f)"
                    % (fit.frequency, P.omega, fit.decay, lam))

    def limit_lyapunov_monotone():
        tau, h = asy.limit_lyapunov(limit(), P)
        rise = float((h[1:] - h[:-1]).max())
        return rise <= 1e-12, "max rise %.3g" % rise

    def cone_linearization_fit():
        cfit = asy.solve_linearized_lightcone(1e-6, P, tol)
        ok = abs(cfit.frequency - P.omega) <= 1e-3 and abs(cfit.decay - lam) <= 5e-3
        return ok, "omega %.6f, decay %.6f" % (cfit.frequency, cfit.decay)

    def outward_extension():
        b1 = spec().rows[0].b
        erep = diag.extend_beyond_lightcone(b1, P, 100.0, tol)
        return erep.passed, ("u(100) %.3g, min margin %.3g"
                             % (erep.u_final, erep.min_decay_margin))

    def quotient_convergence():
        dc = spec().delta_c(5)
        db = spec().delta_b(5)
        ok = (abs(dc / P.ratio_c - 1.0) < 0.05 and abs(db / P.ratio_b - 1.0) < 0.1)
        return ok, ("delta_c %.4f -> %.4f, delta_b %.4f -> %.4f"
                    % (dc, P.ratio_c, db, P.ratio_b))

    def critical_case_first_integral():
        import numpy as np
        P5 = _derive_unchecked(5)
        rng = np.random.default_rng(20260816)
        drift = 0.0
        ok = True
        for c in 0.3 + 2.2 * rng.random(10):
            traj = center_trajectory(float(c), 0.999, P5, tol.capped())
            if traj.termination != TERM_REACHED_END:
                ok = False
                continue
            rho, u, du = traj.profile_samples()
            q = diag.eval_virial(rho, u, du, P5)
            drift = max(drift, float(abs(q - q[0]).max()) / (1.0 + abs(float(q[0]))))
        return ok and drift <= 1e-9, "max scaled drift %.3g over 10 launches" % drift

    out = []
    for fn in (nodal_counts, cone_value_below_constant, cone_value_alternation,
               monotone_functionals, virial_nonpositive, constant_solution_zero,
               first_crossing_bound, crossing_discriminant, limit_ringdown_fit,
               limit_lyapunov_monotone, cone_linearization_fit, outward_extension,
               quotient_convergence, critical_case_first_integral):
        try:
            ok, detail = fn()
        except _compute_errors() as exc:
            ok, detail = False, " ".join(f"{type(exc).__name__}: {exc}".split())
        out.append((fn.__name__, ok, detail))
    return out


def cmd_check(cfg: RunConfig, args) -> int:
    checks = [(name, bool(ok), detail) for name, ok, detail in _run_checks(cfg)]
    if cfg.format == "json":
        _emit_json({"kind": "check", "p": cfg.params.p,
                    "passed": all(ok for _, ok, _ in checks),
                    "checks": [{"name": n, "passed": ok, "detail": d}
                               for n, ok, d in checks]}, cfg.out)
    else:
        _emit(_csv(["check", "passed", "detail"],
                   [[n, ok, d] for n, ok, d in checks]), cfg.out)
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_COMPUTE


# -- argument plumbing ---------------------------------------------------------


def _add_common(sp, rho_mid_default: float = 0.5) -> None:
    sp.add_argument("--p", type=int, default=7, help="nonlinearity exponent")
    sp.add_argument("--rho-mid", dest="rho_mid", type=float,
                    default=rho_mid_default, help="matching radius in (0, 1)")
    sp.add_argument("--rtol", type=float, default=Tolerances.rtol)
    sp.add_argument("--atol", type=float, default=Tolerances.atol)
    sp.add_argument("--out", default="-", help="output path, - for stdout")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blowup",
        description="Self-similar blowup profiles of the focusing wave "
                    "equation: family table, single profiles, shooting "
                    "curves, limit asymptotics, and invariant checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="derived constants for an exponent")
    _add_common(sp)
    sp.set_defaults(fn=cmd_constants)

    sp = sub.add_parser("solve", help="one member of the profile family")
    _add_common(sp)
    sp.add_argument("--n", type=int, default=1, help="family index (0 = constant)")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("spectrum", help="family table up to an index")
    _add_common(sp)
    sp.add_argument("--n-max", dest="n_max", type=int, default=10)
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("profile", help="sampled profile with deviation data")
    _add_common(sp)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--samples", type=int, default=512)
    sp.set_defaults(fn=cmd_profile)

    sp = sub.add_parser("curves", help="both shooting curves at the matching radius")
    _add_common(sp, rho_mid_default=0.1)
    sp.add_argument("--c-lo", dest="c_lo", type=float, default=1.0)
    sp.add_argument("--c-hi", dest="c_hi", type=float, default=1e4)
    sp.add_argument("--n-c", dest="n_c", type=int, default=120)
    sp.add_argument("--b-lo", dest="b_lo", type=float, default=0.02)
    sp.add_argument("--b-hi", dest="b_hi", type=float, default=0.87)
    sp.add_argument("--n-b", dest="n_b", type=int, default=120)
    sp.set_defaults(fn=cmd_curves)

    sp = sub.add_parser("limit", help="large-amplitude limit equation fit")
    _add_common(sp)
    sp.add_argument("--x-max", dest="x_max", type=float, default=asy.DEFAULT_X_MAX)
    sp.set_defaults(fn=cmd_limit)

    sp = sub.add_parser("extend", help="continue a profile past the light cone")
    _add_common(sp)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--rho-max", dest="rho_max", type=float, default=100.0)
    sp.set_defaults(fn=cmd_extend)

    sp = sub.add_parser("check", help="run the invariant suite")
    _add_common(sp)
    sp.set_defaults(fn=cmd_check)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
    except ValueError as exc:
        print(f"blowup: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(cfg, args)
    except _compute_errors() as exc:
        print(f"blowup: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"blowup: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
