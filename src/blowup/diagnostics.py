"""Structural diagnostics for profile trajectories.

Everything here checks a claim the solver's output is supposed to satisfy:
monotone functionals along the radius, the winding of the deviation phase,
first-crossing bounds for large center amplitudes, negativity of the
crossing discriminant, and decay of the continuation beyond the cone.
The checks consume trajectories (single pieces or center/cone merges), read
the exponent off them, and never run the shooting iteration themselves.

Deviation phase.  With w = u/u_singular - 1 the pair (w, rho w') traces a
spiral around the origin; Theta = atan2(rho w', w) unwrapped along the
radius decreases through pi/2 - k pi exactly at the zeros of w, so the
nodal index can be read off as a winding count, independently of sign
changes on the sample grid.  The walk runs on Python floats; angle steps
larger than pi/2 are subdivided through dense output before unwrapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ModelParams
from .integrate import (
    TERM_REACHED_END,
    Tolerances,
    Trajectory,
    center_trajectory,
    lightcone_trajectory,
)

__all__ = [
    "MonotoneCheck",
    "MonotonicityReport",
    "FirstCrossingReport",
    "DiscriminantReport",
    "ExtensionReport",
    "DegenerateTrajectoryError",
    "eval_energy",
    "eval_virial",
    "eval_deviation_energy",
    "monotonicity_report",
    "phase_trajectory",
    "phase_zero_count",
    "w_zero_locations",
    "phase_at",
    "first_crossing_report",
    "crossing_discriminant",
    "discriminant_report",
    "extend_beyond_lightcone",
]

R_DEGENERATE = 1e-12   # phase radius below which the spiral is meaningless
PHASE_MAX_STEP = 0.5 * math.pi   # widest phase step kept without subdividing
CROSSING_RHO_END = 0.999   # first_crossing_report integrates the center shot to here
DRIFT_TOL = 1e-9           # largest scaled rise monotonicity_report lets pass
DISCRIMINANT_GRID = 2001   # samples of the discriminant scan on [v*, 1]
W_ZERO_XTOL = 1e-15        # _brentq stops within W_ZERO_XTOL + W_ZERO_RTOL |t| of a zero of w
W_ZERO_RTOL = 8.9e-16


class DegenerateTrajectoryError(ValueError):
    """The deviation pair (w, rho w') passed through the origin."""


# -- pointwise functionals ---------------------------------------------------


def eval_energy(rho, u, du, params: ModelParams):
    """Interior energy; non-increasing in rho for rho^2 <= 2(p-1)/(p+3); on
    floats or arrays."""
    p = params.p
    return (0.5 * (1.0 - rho**2) * du**2 + u**(p + 1) / (p + 1)
            - 0.5 * params.aa1 * u**2)


def eval_virial(rho, u, du, params: ModelParams):
    """Weighted virial; vanishes at the center, non-increasing inside the
    cone, and exactly conserved in the critical case p = 5; on floats or arrays."""
    p = params.p
    q2 = 3.0 * (5 - p) / (4.0 * (p - 1)) - 2.0 / (p - 1) ** 2
    omc = 1.0 - rho**2
    return (0.5 * omc * rho**3 * du**2 + 0.5 * rho**2 * omc * u * du
            + q2 * rho**3 * u**2 + rho**3 * u**(p + 1) / (p + 1))


def eval_deviation_energy(rho, u, du, params: ModelParams):
    """Energy of v = u/u_singular; global minimum -(p-3)/(p^2-1) at v = 1.

    d/drho = -(kappa - 1) rho v'^2 with kappa = 2(p-3)/(p-1) > 1, so this
    decreases along every trajectory, on both sides of the cone.
    """
    import numpy as np
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("deviation energy needs rho > 0")
    u = np.asarray(u, dtype=float)
    du = np.asarray(du, dtype=float)
    p = params.p
    al = params.alpha
    ra = rho**al
    v = ra * u / params.b_inf
    rv = ra * (rho * du + al * u) / params.b_inf   # rho v'
    a1m = al * (1.0 - al)
    return 0.5 * (1.0 - rho**2) * rv**2 + a1m * (v**(p + 1) / (p + 1) - 0.5 * v**2)


_FUNCTIONALS = {
    "energy": eval_energy,
    "virial": eval_virial,
    "deviation_energy": eval_deviation_energy,
}


@dataclass(frozen=True)
class MonotoneCheck:
    """One functional along increasing rho; MonotonicityReport.checks keys it by name."""

    initial: float
    final: float
    max_rise_scaled: float       # max (v[i+1]-v[i]) / (1+|v[i]|), < 0 if strictly falling
    max_drift_scaled: float      # max |v[i]-v[0]| / (1+|v[0]|), conservation metric
    passed: bool


@dataclass(frozen=True)
class MonotonicityReport:
    checks: dict[str, MonotoneCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


def monotonicity_report(traj) -> MonotonicityReport:
    """Evaluate energy, virial and deviation energy along increasing rho, at
    the trajectory's own exponent, and flag any rise above DRIFT_TOL * (1 + |value|)."""
    rho, u, du = traj.profile_samples()
    order = rho.argsort()
    rho, u, du = rho[order], u[order], du[order]
    checks = {}
    for name, functional in _FUNCTIONALS.items():
        vals = functional(rho, u, du, traj.params)
        rises = (vals[1:] - vals[:-1]) / (1.0 + abs(vals[:-1]))
        drift = abs(vals - vals[0]) / (1.0 + abs(float(vals[0])))
        max_rise = float(rises.max()) if len(rises) else 0.0
        checks[name] = MonotoneCheck(
            initial=float(vals[0]), final=float(vals[-1]),
            max_rise_scaled=max_rise,
            max_drift_scaled=float(drift.max()),
            passed=max_rise <= DRIFT_TOL)
    return MonotonicityReport(checks=checks)


# -- phase of the deviation --------------------------------------------------


def _principal(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _piece_chain(piece: Trajectory):
    """(t ascending in rho, w, rw, k) with k the rho-per-t factor; sequences of floats."""
    t, w, rw = piece.w_samples()
    if len(t) > 1 and t[0] > t[-1]:
        t, w, rw = t[::-1], w[::-1], rw[::-1]
    return t, w, rw, piece.rho_per_t()


def _push(pts: list, rho: float, w: float, rw: float, theta: float) -> float:
    R = math.hypot(w, rw)
    if R < R_DEGENERATE:
        raise DegenerateTrajectoryError(
            f"phase radius {R:.2e} at rho={rho:.6g}; the deviation "
            "trajectory is indistinguishable from the singular solution")
    pts.append((rho, w, rw, theta))
    return theta


def _refine(pts, piece, k, t_a, th_a, t_b, w_b, rw_b, depth=0) -> float:
    """Phase at t_b from th_a at t_a, halving steps wider than PHASE_MAX_STEP."""
    d = _principal(math.atan2(rw_b, w_b) - th_a)
    if abs(d) <= PHASE_MAX_STEP:
        return _push(pts, t_b * k, w_b, rw_b, th_a + d)
    if depth >= 48:
        raise DegenerateTrajectoryError(f"phase refinement stalled near rho={t_b * k:.6g}")
    t_m = 0.5 * (t_a + t_b)
    w_m, rw_m = piece.w_of_t(t_m)
    th_m = _refine(pts, piece, k, t_a, th_a, t_m, w_m, rw_m, depth + 1)
    return _refine(pts, piece, k, t_m, th_m, t_b, w_b, rw_b, depth + 1)


def phase_trajectory(traj, _chains=None) -> tuple[tuple, ...]:
    """(rho, w, rho w', theta) of the unwrapped deviation phase along rho, as tuples
    of floats; a step wider than PHASE_MAX_STEP goes through _refine.  _chains
    are the pieces' _piece_chain, when the caller has built them."""
    pts, theta = [], None
    atan2, hypot, pi, tau = math.atan2, math.hypot, math.pi, 2.0 * math.pi
    for piece, (t, w, rw, k) in zip(traj.pieces, _chains or map(_piece_chain, traj.pieces)):
        start = atan2(rw[0], w[0])
        if theta is None:
            theta = _push(pts, t[0] * k, w[0], rw[0], start)
        else:
            # junction: same geometric point up to the matching mismatch
            theta = theta + _principal(start - theta)
        for i in range(1, len(t)):
            wi, rwi = w[i], rw[i]
            d = (atan2(rwi, wi) - theta + pi) % tau - pi
            if abs(d) <= PHASE_MAX_STEP and hypot(wi, rwi) >= R_DEGENERATE:
                theta = theta + d
                pts.append((t[i] * k, wi, rwi, theta))
            else:
                theta = _refine(pts, piece, k, t[i - 1], theta, t[i], wi, rwi)
    return tuple(zip(*pts))


def _brentq(f, xa: float, xb: float) -> float:
    """Brent's (1973) zero of f in the bracket [xa, xb] to W_ZERO_XTOL + W_ZERO_RTOL |x|,
    ported line for line from scipy's brentq.c: the roots are scipy.optimize.brentq's to the
    bit (at most 100 iterations, scipy's default)."""
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (W_ZERO_XTOL + W_ZERO_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


def w_zero_locations(traj) -> list:
    """Zeros of w = u/u_singular - 1 in rho, refined through dense output."""
    zeros = []
    for piece in traj.pieces:
        t, w, _ = piece.w_samples()
        k = piece.rho_per_t()
        for i in range(len(t) - 1):
            wi, wj = w[i], w[i + 1]
            if wi == 0.0:
                zeros.append(t[i] * k)
            elif (wi < 0.0 < wj) or (wj < 0.0 < wi):
                zeros.append(_brentq(lambda tq: piece.w_of_t(tq)[0], t[i], t[i + 1]) * k)
        if len(t) and w[-1] == 0.0:
            zeros.append(t[-1] * k)
    zeros = sorted(zeros)
    # junction duplicates (a zero straddling the glue point) collapse to one;
    # distinct zeros are whole spiral turns apart, so a relative test is safe
    out = []
    for z in zeros:
        if out and z <= out[-1] * (1.0 + 1e-6):
            continue
        out.append(z)
    return out


def phase_zero_count(traj, _chains=None) -> int:
    """Zeros of w counted as gross crossings of the levels pi/2 - k pi."""
    levels = [math.floor((th - 0.5 * math.pi) / math.pi)
              for th in phase_trajectory(traj, _chains)[3]]
    return sum(abs(b - a) for a, b in zip(levels, levels[1:]))


def phase_at(traj, rho):
    """Unwrapped phase at radii inside the trajectory span: the exact
    atan2(rho w', w) from dense output at the trajectory's own exponent, on the
    branch of the interpolated phase trajectory.  A scalar rho gives a float,
    an array an array."""
    import numpy as np
    params = traj.params
    rhos, _, _, thetas = phase_trajectory(traj)
    r = np.asarray(rho, dtype=float)
    if not (rhos[0] <= r.min() and r.max() <= rhos[-1]):
        raise ValueError(f"rho in [{r.min():g}, {r.max():g}] outside sampled span "
                         f"[{rhos[0]:g}, {rhos[-1]:g}]")
    u, du = traj.eval(r)
    ra = r ** params.alpha / params.b_inf
    exact = np.arctan2(ra * (r * du + params.alpha * u), ra * u - 1.0)
    branch = np.interp(r, rhos, thetas)
    theta = branch + _principal(exact - branch)
    return float(theta) if theta.ndim == 0 else theta


# -- first crossing at large center amplitude --------------------------------


@dataclass(frozen=True)
class FirstCrossingReport:
    crossing_bound: float    # (b_inf/(d c))^{(p-1)/2}, d = (p-1)/p
    rho_first: float
    rw_first: float
    min_w_after: float
    floor: float             # -2 alpha
    passed: bool


def first_crossing_report(c: float, params: ModelParams,
                          tol: Tolerances = Tolerances()) -> FirstCrossingReport:
    """Locate the first zero of w for a center launch and compare with the
    closed-form bound; also record the later floor of w."""
    p = params.p
    d = (p - 1.0) / p
    if c * d <= params.b0:
        raise ValueError(f"bound needs c > b0 p/(p-1) = {params.b0 / d:.6g}")
    bound = (params.b_inf / (d * c)) ** ((p - 1) / 2.0)
    traj = center_trajectory(c, CROSSING_RHO_END, params, tol)
    if traj.termination != TERM_REACHED_END:
        raise RuntimeError(f"center trajectory c={c:g} stopped early "
                           f"({traj.termination})")
    # w -> -1 at the center, so the first zero is the first upward crossing
    zs = w_zero_locations(traj)
    if len(zs) == 0:
        raise RuntimeError(f"no crossing of the singular solution below "
                           f"rho={CROSSING_RHO_END} for c={c:g}")
    rho1 = float(zs[0])
    rw1 = float(traj.w_of_t(rho1 / traj.rho_per_t())[1])
    rho, w = phase_trajectory(traj)[:2]
    after = [wi for ri, wi in zip(rho, w) if ri > rho1]
    min_w = min(after) if after else float("nan")
    floor = -2.0 * params.alpha
    passed = (rho1 < bound * (1.0 + 1e-6)
              and 0.0 < rw1 < params.alpha
              and min_w > floor)
    return FirstCrossingReport(crossing_bound=bound, rho_first=rho1, rw_first=rw1,
                               min_w_after=min_w, floor=floor, passed=passed)


# -- crossing discriminant ---------------------------------------------------


def crossing_discriminant(v, params: ModelParams):
    """Discriminant of the quadratic controlling transversality of radial
    crossings at deviation amplitude v (a float or an array), times (p-1)^2."""
    p = params.p
    s, vk = 0.0, 1.0
    for _ in range(1, p):
        vk = vk * v
        s = s + vk
    return (p - 5.0) ** 2 - 8.0 * (p - 3.0) * s


@dataclass(frozen=True)
class DiscriminantReport:
    value_at_v_star: float   # v* = (p-5)/(p-1)
    closed_form: float
    all_negative: bool
    decreasing: bool


def discriminant_report(params: ModelParams) -> DiscriminantReport:
    """Scan the discriminant on [v*, 1], v* = (p-5)/(p-1); spiraling toward
    the singular solution is transversal when it stays negative there."""
    import numpy as np
    p = params.p
    v_star = (p - 5.0) / (p - 1.0)
    closed = ((2.0 * p * p - 8.0 * p + 6.0) * ((p - 5.0) / (p - 1.0)) ** p
              - p * p + 6.0 * p - 5.0)
    grid = np.linspace(v_star, 1.0, DISCRIMINANT_GRID)
    vals = crossing_discriminant(grid, params)
    return DiscriminantReport(
        value_at_v_star=float(vals[0]),
        closed_form=float(closed),
        all_negative=bool(np.all(vals < 0.0)),
        decreasing=bool(np.all(np.diff(vals) < 0.0)))


# -- continuation beyond the cone --------------------------------------------


@dataclass(frozen=True)
class ExtensionReport:
    b: float
    rho_max: float
    u_final: float
    du_final: float
    min_u: float
    max_u: float
    min_decay_margin: float   # min of rho u' + (alpha+1)/2 u, positive = slow decay
    decay_margin_at_cone: float   # series value (p-1) b^p / 4
    monotone: bool
    positive: bool
    below_b0: bool
    passed: bool
    trajectory: Trajectory


def extend_beyond_lightcone(b: float, params: ModelParams, rho_max: float = 100.0,
                            tol: Tolerances = Tolerances()) -> ExtensionReport:
    """Continue a cone value 0 < b < b0 outward and check the decay regime:
    u positive, strictly decreasing, below the constant solution, with
    rho u' + (alpha+1)/2 u staying positive (decay slower than the
    self-similar rate)."""
    if not 0.0 < b < params.b0:
        raise ValueError("outward decay requires 0 < b < b0")
    if rho_max <= 1.0:
        raise ValueError("rho_max must exceed the cone")
    traj = lightcone_trajectory(b, rho_max, params, tol)
    if traj.termination != TERM_REACHED_END:
        raise RuntimeError(f"outward continuation stopped early ({traj.termination})")
    rho, u, du = traj.profile_samples()
    f = rho * du + 0.5 * (params.alpha + 1.0) * u
    p = params.p
    f_cone = (p - 1.0) / 4.0 * b**p
    monotone = bool((du < 0.0).all())
    positive = bool((u > 0.0).all())
    below = bool((u < params.b0).all())
    f_pos = bool((f > 0.0).all())
    return ExtensionReport(
        b=b, rho_max=rho_max,
        u_final=float(u[-1]), du_final=float(du[-1]),
        min_u=float(u.min()), max_u=float(u.max()),
        min_decay_margin=float(f.min()),
        decay_margin_at_cone=f_cone,
        monotone=monotone, positive=positive, below_b0=below,
        passed=monotone and positive and below and f_pos,
        trajectory=traj)
