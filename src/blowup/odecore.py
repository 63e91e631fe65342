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
the plain equation, mu = c^{-(p-1)} the exact large-amplitude rescaling
x = rho c^{(p-1)/2}, U = u/c, and mu = 0 its limit equation
U'' + (2/x) U' + U^p = 0.  In the chart of c a center shot is
u/c = sum_k rho^{2k} V_k(x), V_k = U_k x^{-2k} with U_k its mu^k coefficient:
one solution for every c, V_0 = U_0 the limit solution.  Shots keep k <= K
= CENTER_K = 8, whose kept run has 2K + 2 = 18 components, and start on its
last node at or below rho = rtol^{1/(2K+2)}, where the first term left out is
~rtol (integrate.center_trajectory).  With tt = 2 + 2 alpha and P_k the
rho^{2k} coefficient of (sum_j rho^{2j} V_j)^p (series_rhs),
    V_k'' = V_{k-1}'' + (4(k-1) + tt) V_{k-1}'/x - (4k+2) V_k'/x - P_k
            + ((2(k-1)(2k-3) + 2(k-1) tt + aa1) V_{k-1} - 2k(2k+1) V_k)/x^2,
launched from the center recurrence with coefficients polynomial in mu
(mu_series_launch).  The coefficients of u^p and P_k come from J. C. P.
Miller's recurrence (_pow_next).

Light-cone chart.  With s = rho - 1 the analytic branch at the cone is
u = b + b1 s + ..., indicial exponents 0 and (p-3)/(p-1), and the
recurrence divides by 2(m+1)(m+alpha), which never degenerates.  The first
coefficient is the one-parameter boundary condition of the regular family:

    u'(1) = (p-1) b^p / 4 - (p+1) b / (2(p-1)).

One kernel, chart_rhs(params, mu), serves every chart: the first-order system
of the plain (mu = 1), rescaled (mu = c^{-(p-1)}) and limit (mu = 0) equations,
from one source text integrate's stages share.  Every launch returns (offset,
u, du, trunc_est): the offset is halved until trunc_est, the first omitted
series term, falls below the integration tolerance; shots start from there.
"""

from __future__ import annotations

import functools
import math

from .model import ModelParams

__all__ = [
    "SeriesRangeError",
    "chart_rhs",
    "center_launch",
    "lightcone_launch",
    "limit_launch",
    "mu_series_launch",
    "mu_series_values",
    "series_rhs",
]

SERIES_ORDER = 6  # truncation of every series launch
CENTER_K = 8      # center shots sum rho^{2k} V_k for k = 0..CENTER_K


class SeriesRangeError(ValueError):
    """Raised when a series is evaluated beyond its validated radius."""


# u'' of the chart equation at t, the one source text of the equation: chart_rhs
# compiles it, and integrate writes it into the stages of its DOP853 loop
_CHART_U2 = "(mu * (aa1 * u + tt * {t} * du) - 2.0 * du / {t} - u**p) / (1.0 - mu * {t} * {t})"


@functools.cache
def _chart_closure():
    ns = {}
    exec(compile(f"""def chart(mu, aa1, tt, p):
    def rhs(t, y):
        u, du = y
        return (du, {_CHART_U2.format(t='t')})
    rhs.chart = mu, aa1, tt, p
    return rhs""", "<chart equation>", "exec"), ns)
    return ns["chart"]


def chart_rhs(params: ModelParams, mu: float):
    """rhs(t, (u, du)) -> (u', u'') of the profile equation in the chart with parameter mu.

    mu = 1 is the plain equation in rho, mu = c^{-(p-1)} the rescaled one in
    x, mu = 0 the limit equation.  The closure, compiled on first use from
    _CHART_U2, makes no further Python calls; its constants (mu, aa1, tt, p)
    ride along as rhs.chart, by which integrate.drive_ode knows the equation
    and computes it inside its stages instead of calling rhs.
    """
    return _chart_closure()(mu, params.aa1, 2.0 + 2.0 * params.alpha, params.p)


def _pow_next(a, P, p: int) -> float:
    """Coefficient k = len(P) of (sum a_j t^j)^p from a_0..a_k and its lower
    coefficients P, by J. C. P. Miller's recurrence (Knuth, TAOCP 2, 4.7)
    P_k = sum_{j=1..k} ((p+1) j - k) a_j P_{k-j} / (k a_0), on floats; a_0 != 0."""
    k = len(P)
    if not k:
        return a[0] ** p
    return sum(((p + 1) * j - k) * a[j] * P[k - j] for j in range(1, k + 1)) / (k * a[0])


def _cauchy(a, b, k: int) -> float:
    """Coefficient k of the product of the series a and b."""
    return sum(a[j] * b[k - j] for j in range(k + 1))


def _center_coeffs(c: float, params: ModelParams, order: int, mu: float) -> list:
    aa1 = params.aa1
    tt = 2.0 + 2.0 * params.alpha
    a, n = [float(c)] + [0.0] * order, []
    for m in range(1, order, 2):   # odd coefficients vanish for the regular family
        while len(n) < m:
            n.append(_pow_next(a, n, params.p))
        num = mu * ((m - 1) * (m - 2) + tt * (m - 1) + aa1) * a[m - 1] - n[m - 1]
        a[m + 1] = num / ((m + 1) * (m + 2))
    return a


def _lightcone_coeffs(b: float, params: ModelParams, order: int) -> list:
    aa1 = params.aa1
    al = params.alpha
    tt = 2.0 + 2.0 * al
    beta, pw = [float(b)] + [0.0] * order, []
    for m in range(order):
        pw.append(_pow_next(beta, pw, params.p))
        num = -(3.0 * m * (m - 1) + (4.0 + 4.0 * al) * m + aa1) * beta[m] + pw[m]
        if m >= 1:
            num -= ((m - 1) * (m - 2) + tt * (m - 1) + aa1) * beta[m - 1]
            num += pw[m - 1]
        beta[m + 1] = num / (2.0 * (m + 1) * (m + al))
    return beta


def _eval_poly(a: list, t: float) -> tuple[float, float]:
    # Horner evaluation of the polynomial and its derivative
    u = 0.0
    du = 0.0
    for k in range(len(a) - 1, -1, -1):
        du = du * t + u
        u = u * t + a[k]
    return u, du


def _series_eval(coeffs: list, t: float, order: int) -> tuple[float, float, float]:
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


def _shrink_until_valid(coeffs, t0, order, rtol, atol, scale_u, scale_du):
    """Halve the offset t0 until the truncation estimates of u and u' drop
    below rtol * max(|value|, scale) + atol; returns (t, u, du, est)."""
    coeffs, t = [float(v) for v in coeffs], t0
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
                  atol: float = 1e-14) -> tuple[float, float, float, float]:
    """Launch data (rho0, u, du, trunc_est) of the plain-chart center series
    u(0) = c at a validated offset rho0, at most 1e-3 and 0.02 c^{-(p-1)/2}
    (the series converges out to roughly sqrt(6) c^{-(p-1)/2}); no shot starts
    here, perfbench/tracing.py spans it."""
    scale = max(abs(c), 1.0) ** (-(params.p - 1) / 2.0)
    rho_cap = min(1.0e-3, 0.02 * scale)
    return _center_launch(c, 1.0, rho_cap, params, rtol, atol)


def lightcone_launch(b: float, params: ModelParams, rtol: float = 1e-12, atol: float = 1e-14,
                     side: int = -1) -> tuple[float, float, float, float]:
    """Launch data (rho0, u, du, trunc_est) of the cone series u(1) = b at a
    validated rho0 = 1 + side*s0; side=-1 interior, +1 exterior."""
    if side not in (-1, 1):
        raise ValueError("side must be -1 (inside the cone) or +1 (outside)")
    # the series radius shrinks like b^{-(p-1)}; a b past float range, or
    # whose valid offset is below one ulp of rho = 1, has no launch
    try:
        coeffs = _lightcone_coeffs(b, params, SERIES_ORDER + 2)
    except OverflowError:   # b^p past the float range
        coeffs = [math.inf]
    rho0 = 1.0
    if all(map(math.isfinite, coeffs)):
        s0, u, du, est = _shrink_until_valid(coeffs, side * 1.0e-3, SERIES_ORDER, rtol,
                                             atol, abs(b), max(abs(b), 1.0))
        rho0 = 1.0 + s0
    if rho0 == 1.0:
        raise SeriesRangeError(f"cone amplitude b={b:g} has no validated series launch "
                               "offset off rho = 1")
    return rho0, u, du, est


def center_launch_rescaled(c: float, params: ModelParams, rtol: float = 1e-12,
                           atol: float = 1e-14) -> tuple[float, float, float, float]:
    """Launch data (x0, U, dU, trunc_est) in the rescaled chart U(0) = 1; no
    shot starts here, perfbench/tracing.py spans it."""
    return _center_launch(1.0, float(c) ** (-(params.p - 1)), 1.0e-3, params, rtol, atol)


def limit_launch(params: ModelParams, rtol: float = 1e-12,
                 atol: float = 1e-14) -> tuple[float, float, float, float]:
    """Launch data (x0, U, dU, trunc_est) for the infinite-amplitude limit
    equation U'' + (2/x)U' + U^p = 0, normalized to U(0) = 1; no run starts
    here (kept runs start from mu_series_launch), perfbench/tracing.py spans it."""
    return _center_launch(1.0, 0.0, 1.0e-3, params, rtol, atol)


@functools.cache
def series_rhs(params: ModelParams, K: int):
    """rhs(x, (V_0, V_0', ..., V_K, V_K')) -> their derivatives, compiled on first
    use for each (params, K) as straight-line code, Miller's recurrence unrolled."""
    p, aa1, tt = params.p, params.aa1, 2.0 + 2.0 * params.alpha
    lines = [f"{', '.join(f'v{k}, d{k}' for k in range(K + 1))}, = y", f"P0 = v0**{p}",
             "e0 = -2.0 * d0 / t - P0"]
    for k in range(1, K + 1):
        miller = " + ".join(f"{((p + 1) * j - k) / k!r} * v{j} * P{k - j}"
                            for j in range(1, k + 1))
        a, b = 4 * (k - 1) + tt, 2 * (k - 1) * (2 * k - 3) + 2 * (k - 1) * tt + aa1
        lines += [f"P{k} = ({miller}) / v0", f"e{k} = (e{k - 1} + ({a!r} * d{k - 1} - "
                  f"{4 * k + 2}.0 * d{k}) / t - P{k} + ({b!r} * v{k - 1} - {2 * k * (2 * k + 1)}.0"
                  f" * v{k}) / (t * t))"]
    ns = {}
    exec(compile("def rhs(t, y):\n" + "".join(f"    {line}\n" for line in lines)
                 + f"    return {', '.join(f'd{k}, e{k}' for k in range(K + 1))}",
                 f"<series in rho^2, p = {p}, K = {K}>", "exec"), ns)
    return ns["rhs"]


@functools.cache
def _mu_series(params: ModelParams) -> tuple:
    """The series in x of V_0..V_CENTER_K to x^{2 SERIES_ORDER + 2}: the center
    recurrence at U(0) = 1 in X = x^2 with coefficients polynomial in mu,
    truncated at mu^CENTER_K, whose mu^k parts from X^k on are V_k's."""
    p, tt, K, J = params.p, 2.0 + 2.0 * params.alpha, CENTER_K, SERIES_ORDER + 1
    A, N = [[1.0] + [0.0] * K], []   # A[j][k]: the mu^k coefficient of X^j in U
    for j in range(K + J):
        # the X^j coefficient of U^p, by Miller's recurrence with A_0 = 1
        N.append([sum(((p + 1) * i - j) * _cauchy(A[i], N[j - i], k) for i in range(1, j + 1))
                  / j for k in range(K + 1)] if j else A[0])
        lin = 2 * j * (2 * j - 1) + 2 * j * tt + params.aa1
        A.append([((lin * A[j][k - 1] if k else 0.0) - N[j][k]) / ((2 * j + 2) * (2 * j + 3))
                  for k in range(K + 1)])
    return tuple([a for i in range(J + 1) for a in (A[k + i][k], 0.0)][:-1] for k in range(K + 1))


def mu_series_values(x: float, params: ModelParams) -> tuple:
    """(V_0, V_0', ..., V_K, V_K') at x from their series, K = CENTER_K."""
    return tuple(v for a in _mu_series(params) for v in _series_eval(a, x, 2 * SERIES_ORDER)[:2])


@functools.cache
def mu_series_launch(params: ModelParams, rtol: float = 1e-12,
                     atol: float = 1e-14) -> tuple[float, tuple]:
    """(x0, (V_0, V_0', ..., V_K, V_K')) at x0 = 0.05, halved until every series
    is valid there; the same for every kept run, whatever its K.  Cached: each
    center shot reads x0."""
    x0 = min(_shrink_until_valid(a, 0.05, 2 * SERIES_ORDER, rtol, atol, 1.0, 1.0)[0]
             for a in _mu_series(params))
    return x0, mu_series_values(x0, params)
