"""Equation kernels, singular-point series launches, and coordinate charts.

Both endpoints of the profile equation are regular singular points, so
trajectories are launched a small offset away from rho = 0 or rho = 1 with
truncated power series and integrated from there.

Center chart.  The regular family at the origin is even in rho,
u = c + a2 rho^2 + a4 rho^4 + ..., and the coefficients follow from the
recurrence (multiply the equation by rho and collect powers)

    (m+1)(m+2) a_{m+1} = mu [ (m-1)(m-2) + (2+2 alpha)(m-1)
                              + alpha(alpha+1) ] a_{m-1} - N_{m-1},

where N_k are the coefficients of u^p and mu selects the chart: mu = 1 is
the plain equation, mu = c^{-(p-1)} is the exact large-amplitude rescaling
x = rho c^{(p-1)/2}, U = u/c (whose mu -> 0 member is the limit equation
U'' + (2/x) U' + U^p = 0).

Light-cone chart.  With s = rho - 1 the analytic branch at the cone is
u = b + b1 s + ..., indicial exponents 0 and (p-3)/(p-1), and the
recurrence divides by 2(m+1)(m+alpha), which never degenerates.  The first
coefficient is the one-parameter boundary condition of the regular family:

    u'(1) = (p-1) b^p / 4 - (p+1) b / (2(p-1)).

One kernel, chart_rhs(params, mu), serves every chart: the first-order
system of the plain (mu = 1), rescaled (mu = c^{-(p-1)}) and limit (mu = 0)
equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, ProfileState

__all__ = [
    "SingularPointError",
    "SeriesRangeError",
    "SeriesStart",
    "chart_rhs",
    "rhs_interior",
    "equation_residual",
    "series_at_center",
    "series_at_lightcone",
    "center_launch",
    "lightcone_launch",
    "center_launch_rescaled",
    "limit_launch",
]

SERIES_ORDER = 6  # truncation of every launch and default of series_at_*


class SingularPointError(ValueError):
    """Raised when the interior right-hand side is evaluated at rho = 0 or 1."""


class SeriesRangeError(ValueError):
    """Raised when a series is evaluated beyond its validated radius."""


@dataclass(frozen=True)
class SeriesStart:
    """Validated launch state produced by a series expansion.

    trunc_error_est is the magnitude of the first omitted series term at
    rho0, kept below the integration tolerance by shrinking the offset.
    """

    rho0: float
    state: ProfileState
    trunc_error_est: float


def chart_rhs(params: ModelParams, mu: float):
    """rhs(t, (u, du)) -> (u', u'') of the profile equation in the chart with parameter mu.

    mu = 1 is the plain equation in rho, mu = c^{-(p-1)} the rescaled one in
    x, mu = 0 the limit equation.  The closure is the integrator's hot path,
    so it captures its constants and makes no further Python calls.
    """
    p = params.p
    aa1 = params.aa1
    tt = 2.0 + 2.0 * params.alpha

    def rhs(t, y):
        u, du = y
        return (du, (mu * (aa1 * u + tt * t * du) - 2.0 * du / t - u**p)
                / (1.0 - mu * t * t))

    return rhs


def rhs_interior(state: ProfileState, params: ModelParams) -> float:
    """u'' from the profile equation at an interior point (rho not 0 or 1)."""
    rho = state.rho
    if rho == 0.0 or rho == 1.0 or (1.0 - rho * rho) == 0.0:
        raise SingularPointError(
            f"rho = {rho} is a singular point; launch with series_at_center or "
            "series_at_lightcone instead of evaluating the raw equation"
        )
    return chart_rhs(params, 1.0)(rho, (state.u, state.du))[1]


def equation_residual(rho: float, u: float, du: float, ddu: float, params: ModelParams) -> float:
    """Left-hand side of the profile equation; zero on exact solutions."""
    tt = 2.0 + 2.0 * params.alpha
    return (1.0 - rho * rho) * ddu + (2.0 / rho - tt * rho) * du - params.aa1 * u + u**params.p


def _pow_coeffs(a: np.ndarray, p: int, order: int) -> np.ndarray:
    """Coefficients of (sum a_k t^k)^p truncated at t^order."""
    base = a[: order + 1]
    out = base.copy()
    for _ in range(p - 1):
        out = np.convolve(out, base)[: order + 1]
    return out


def _center_coeffs(c: float, params: ModelParams, order: int, mu: float) -> np.ndarray:
    aa1 = params.aa1
    tt = 2.0 + 2.0 * params.alpha
    a = np.zeros(order + 1)
    a[0] = c
    for m in range(1, order):
        if (m + 1) % 2:
            continue  # odd coefficients vanish for the regular family
        n = _pow_coeffs(a, params.p, m - 1)
        num = mu * ((m - 1) * (m - 2) + tt * (m - 1) + aa1) * a[m - 1] - n[m - 1]
        a[m + 1] = num / ((m + 1) * (m + 2))
    return a


def _lightcone_coeffs(b: float, params: ModelParams, order: int) -> np.ndarray:
    aa1 = params.aa1
    al = params.alpha
    tt = 2.0 + 2.0 * al
    beta = np.zeros(order + 1)
    beta[0] = b
    for m in range(order):
        pw = _pow_coeffs(beta, params.p, m)
        num = -(3.0 * m * (m - 1) + (4.0 + 4.0 * al) * m + aa1) * beta[m] + pw[m]
        if m >= 1:
            num -= ((m - 1) * (m - 2) + tt * (m - 1) + aa1) * beta[m - 1]
            num += pw[m - 1]
        beta[m + 1] = num / (2.0 * (m + 1) * (m + al))
    return beta


def _eval_poly(a: np.ndarray, t: float) -> tuple[float, float]:
    # Horner evaluation of the polynomial and its derivative
    u = 0.0
    du = 0.0
    for k in range(len(a) - 1, -1, -1):
        du = du * t + u
        u = u * t + a[k]
    return u, du


def _series_eval(coeffs: np.ndarray, t: float, order: int) -> tuple[float, float, float]:
    """Evaluate the truncated series and estimate the first omitted term.

    coeffs must extend at least two orders past `order` so the tail term is
    available.  Raises SeriesRangeError when the tail fails to decay, which
    signals evaluation outside the validated radius.
    """
    kept = coeffs[: order + 1]
    u, du = _eval_poly(kept, t)
    tail = 0.0
    for k in range(order + 1, len(coeffs)):
        tail = max(tail, abs(coeffs[k]) * abs(t) ** k)
    if t != 0.0:
        last = max(abs(kept[k]) * abs(t) ** k for k in range(max(order - 1, 1), order + 1))
        if tail > max(last, 1e-13 * abs(u)) and tail > 1e-15:
            raise SeriesRangeError(
                f"series terms are not decaying at offset {t:g}; move the launch closer"
            )
    return u, du, tail


def series_at_center(c: float, rho: float, params: ModelParams, order: int = SERIES_ORDER) -> ProfileState:
    """Regular-family state near the origin, u(0) = c, from the even series."""
    if rho < 0.0:
        raise ValueError(f"center series needs rho >= 0, got {rho}")
    coeffs = _center_coeffs(c, params, order + 2, mu=1.0)
    u, du, _ = _series_eval(coeffs, rho, order)
    return ProfileState(rho=rho, u=u, du=du)


def series_at_lightcone(b: float, rho: float, params: ModelParams, order: int = SERIES_ORDER) -> ProfileState:
    """Analytic-branch state near the cone, u(1) = b; valid on either side."""
    if rho <= 0.0:
        raise ValueError(f"light-cone series needs rho > 0, got {rho}")
    coeffs = _lightcone_coeffs(b, params, order + 2)
    u, du, _ = _series_eval(coeffs, rho - 1.0, order)
    return ProfileState(rho=rho, u=u, du=du)


def _shrink_until_valid(coeffs, t0, order, rtol, atol, scale_u, scale_du):
    """Halve the offset t0 until the truncation estimates of u and u' drop
    below rtol * max(|value|, scale) + atol; returns (t, u, du, est)."""
    t = t0
    for _ in range(80):
        try:
            u, du, est = _series_eval(coeffs, t, order)
        except SeriesRangeError:
            t *= 0.5
            continue
        est_du = est * (order + 2) / abs(t) if t != 0.0 else 0.0
        if (est <= rtol * max(abs(u), scale_u) + atol
                and est_du <= rtol * max(abs(du), scale_du) + atol):
            return t, u, du, est
        t *= 0.5
    raise SeriesRangeError("could not validate a series launch offset")


def _center_launch(amp: float, mu: float, t0: float, params: ModelParams, rtol: float,
                   atol: float) -> tuple[float, float, float, float]:
    # validated offset of the center series u(0) = amp in the chart with parameter mu
    coeffs = _center_coeffs(amp, params, SERIES_ORDER + 2, mu=mu)
    return _shrink_until_valid(coeffs, t0, SERIES_ORDER, rtol, atol, abs(amp), abs(amp))


def center_launch(c: float, params: ModelParams, rtol: float = 1e-12,
                  atol: float = 1e-14) -> SeriesStart:
    """Pick a validated offset rho0 and return the launch state there.

    The series converges only out to roughly sqrt(6) c^{-(p-1)/2} (where the
    quadratic term overtakes c), so the 1e-3 default offset is capped by
    0.02 c^{-(p-1)/2} for large amplitudes and halved until the truncation
    estimate drops below the integration tolerance.
    """
    scale = max(abs(c), 1.0) ** (-(params.p - 1) / 2.0)
    rho_cap = min(1.0e-3, 0.02 * scale)
    rho0, u, du, est = _center_launch(c, 1.0, rho_cap, params, rtol, atol)
    return SeriesStart(rho0=rho0, state=ProfileState(rho0, u, du), trunc_error_est=est)


def lightcone_launch(b: float, params: ModelParams, rtol: float = 1e-12, atol: float = 1e-14,
                     side: int = -1) -> SeriesStart:
    """Validated launch at rho = 1 + side*s0; side=-1 interior, +1 exterior."""
    if side not in (-1, 1):
        raise ValueError("side must be -1 (inside the cone) or +1 (outside)")
    coeffs = _lightcone_coeffs(b, params, SERIES_ORDER + 2)
    s0, u, du, est = _shrink_until_valid(coeffs, side * 1.0e-3, SERIES_ORDER, rtol, atol,
                                         abs(b), max(abs(b), 1.0))
    rho0 = 1.0 + s0
    return SeriesStart(rho0=rho0, state=ProfileState(rho0, u, du), trunc_error_est=est)


def center_launch_rescaled(c: float, params: ModelParams, rtol: float = 1e-12,
                           atol: float = 1e-14) -> tuple[float, float, float, float]:
    """Launch data (x0, U, dU, trunc_est) in the rescaled chart U(0) = 1.

    Used for large c, where the plain chart's convergence radius collapses;
    here the radius is O(1) uniformly because mu = c^{-(p-1)} <= 1.
    """
    return _center_launch(1.0, float(c) ** (-(params.p - 1)), 1.0e-3, params, rtol, atol)


def limit_launch(params: ModelParams, rtol: float = 1e-12,
                 atol: float = 1e-14) -> tuple[float, float, float, float]:
    """Launch data (x0, U, dU, trunc_est) for the infinite-amplitude limit
    equation U'' + (2/x)U' + U^p = 0, normalized to U(0) = 1."""
    return _center_launch(1.0, 0.0, 1.0e-3, params, rtol, atol)
