"""Large-amplitude limit, linearized cone behavior, and scaling laws.

As c -> infinity the rescaled profile U(x) = u(x c^{-(p-1)/2})/c satisfies
the limit equation U'' + (2/x)U' + U^p = 0, whose log-radius form is an
autonomous damped oscillator around the singular amplitude b_inf.  Its
ringdown frequency omega and decay exponent (p-5)/(2(p-1)) are the same
ones that govern the linearization of the deviation equation at the light
cone.  Matching the two oscillatory descriptions across the interior
produces the geometric laws for the solution family,

    c_{n+1}/c_n -> exp(2 pi/((p-1) omega)),
    (b_{n+1} - b_inf)/(b_inf - b_n) -> -exp(-(p-5) pi/(2(p-1) omega)),

plus an amplitude relation A0 c^{(5-p)/4} = +-A1 (b - b_inf)/b_inf tying
the limit-equation ringdown amplitude A0 to the cone-linearization
amplitude A1.  This module samples U0 off the kept run whose V0 center shots
start from, integrates the cone linearization, and extracts (amplitude, phase) by
linear least squares and (frequency, decay) by variable projection; the
check command compares the fitted frequency and decay with omega and
(p-5)/(2(p-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ModelParams
from .odecore import SERIES_ORDER, _shrink_until_valid
from .integrate import TERM_REACHED_END, Tolerances, _limit_run, drive_ode

__all__ = [
    "OscillationFit",
    "InsufficientSpanError",
    "integrate_limit_equation",
    "limit_lyapunov",
    "fit_limit_asymptotics",
    "solve_linearized_lightcone",
]

DEFAULT_X_MAX = 1e16   # ~6.7 ringdown periods for p = 7
SAMPLES_PER_PERIOD = 256   # fit grid density, uniform in the log radius
CONE_TRANSIENT_RHO = 0.2   # the cone fit window stops here, short of the transient at the cone
TRANSIENT_PERIODS = 2.0    # ringdown periods past x = 1 skipped before the limit fit window
VARPRO_MAX_ITER = 20       # Gauss-Newton steps allowed to a free (omega, decay) fit


class InsufficientSpanError(ValueError):
    """The sampled span covers too few oscillation periods to fit."""


@dataclass(frozen=True)
class OscillationFit:
    """Damped-sinusoid parameters extracted from a trajectory tail.

    amplitude/phase come from the fixed-frequency linear projection;
    frequency/decay from the free nonlinear refinement.  residual is the
    RMS misfit of the projection in the detrended variable.
    """

    amplitude: float
    phase: float
    frequency: float
    decay: float
    residual: float
    n_periods: float
    window: tuple[float, float]


# -- limit equation -----------------------------------------------------------


def integrate_limit_equation(x_max: float, params: ModelParams,
                             tol: Tolerances = Tolerances()):
    """Arrays (x, U, U') of the limit solution U0 from its center to x_max, on
    a grid uniform in tau = ln x (the ringdown's variable), dense enough for
    the fits; read off full steps of the K = 0 integrate._limit_run (the
    center shots' V0 to the bit), so they do not depend on what ran before.
    An x_max past U0's reach is a ValueError."""
    import numpy as np
    if x_max <= 1.0:
        raise ValueError("x_max must exceed 1")
    run = _limit_run(x_max, params, tol, f"x_max {x_max:g}", K=0)
    x0 = run.t[0]
    period = 2.0 * math.pi / params.omega
    n = max(64, int((math.log(x_max) - math.log(x0)) / period * SAMPLES_PER_PERIOD))
    x = np.exp(np.linspace(math.log(x0), math.log(x_max), n))
    U, dU = run.dense(x)
    return x, U, dU


def limit_lyapunov(samples, params: ModelParams):
    """(tau, h) along limit samples (x, U, U'); h is non-increasing for p > 5."""
    import numpy as np
    p = params.p
    al = params.alpha
    x, U, dU = samples
    ub = x**al * U    # the autonomous-form variable Ubar
    # dUbar/dtau = alpha Ubar + x^{alpha+1} U'
    dub = al * ub + x ** (al + 1.0) * dU
    h = 0.5 * dub**2 + ub**(p + 1) / (p + 1) - (p - 3.0) / (p - 1.0) ** 2 * ub**2
    return np.log(x), h


# -- oscillation fits ---------------------------------------------------------


def _project(M, y):
    """Least squares of y on the columns of M, whose first two are a sin and
    cos of one phase; returns (A, delta, rms): the amplitude and phase of that
    pair and the RMS misfit."""
    import numpy as np
    coef, *_ = np.linalg.lstsq(M, y, rcond=None)
    rms = float(np.sqrt(np.mean((y - M @ coef) ** 2)))
    return float(np.hypot(coef[0], coef[1])), float(math.atan2(coef[1], coef[0])), rms


def _varpro(basis, omega0, decay0):
    """Free fit of (omega, decay) by variable projection (Golub & Pereyra,
    SIAM J. Numer. Anal. 10, 1973).

    basis(omega, decay) returns (M, y) for a model linear in the columns of
    M.  Gauss-Newton runs on the projected residual y - M lstsq(M, y) with a
    central-difference Jacobian, until a step is <= 1e-13 relative, or stops
    on a non-finite model (an envelope that overflows) before LAPACK sees it.
    """
    import numpy as np

    def failed(why):
        return RuntimeError(f"the {basis.__name__} fit did not converge ({why})")

    def resid(q):
        with np.errstate(over="ignore", invalid="ignore"):
            M, y = basis(*q)
        if not (np.isfinite(M).all() and np.isfinite(y).all()):
            raise failed(f"non-finite model at omega {q[0]:.6g}, decay {q[1]:.6g}")
        coef, *_ = np.linalg.lstsq(M, y, rcond=None)
        return y - M @ coef

    q = np.array([omega0, decay0], dtype=float)
    for _ in range(VARPRO_MAX_ITER):
        h = 1e-6 * np.abs(q)
        J = np.column_stack([(resid(q + d) - resid(q - d)) / (2.0 * hj)
                             for d, hj in zip(np.diag(h), h)])
        step, *_ = np.linalg.lstsq(J, -resid(q), rcond=None)
        q += step
        if np.all(np.abs(step) <= 1e-13 * np.abs(q)):
            return float(q[0]), float(q[1])
    raise failed(f"Gauss-Newton iteration cap {VARPRO_MAX_ITER}")


def fit_limit_asymptotics(samples, params: ModelParams) -> OscillationFit:
    """A0, delta0 of the ringdown U = b_inf x^{-alpha}(1 + A0 x^{-(p-5)/(2(p-1))}
    sin(omega ln x + delta0)) of limit samples (x, U, U'), with the free-fit
    frequency and decay."""
    import numpy as np
    p = params.p
    om = params.omega
    period = 2.0 * math.pi / om
    lam = (p - 5.0) / (2.0 * (p - 1.0))
    x, U, _ = samples
    tau = np.log(x)
    w = x**params.alpha * U / params.b_inf - 1.0

    tol_floor = 1e3 * 1e-12
    lo = TRANSIENT_PERIODS * period        # ringdown counted from x = 1
    hi = float(tau.max())
    # drop any tail where the raw envelope sinks into integration noise
    keep = tau >= lo
    if np.any(keep):
        env = np.abs(w[keep]).max() * np.exp(-lam * (tau[keep] - tau[keep].min()))
        cut = tau[keep][env < tol_floor]
        if len(cut):
            hi = float(cut[0])
    hi = max(hi, lo)    # a span that ends before the window leaves it empty
    n_periods = (hi - lo) / period
    if n_periods < 4.0:
        raise InsufficientSpanError(
            f"window [{lo:.2f}, {hi:.2f}] in tau covers {n_periods:.2f} "
            "oscillation periods; at least 4 are needed, which takes "
            f"x_max >= {math.exp(lo + 4.0 * period):.3g}")
    sel = (tau >= lo) & (tau <= hi)
    ts, ws = tau[sel], w[sel]
    y = ws * np.exp(lam * ts)
    # project on the fundamental plus the decaying second-order terms; the
    # extra columns soak up the nonlinear correction so (A, delta) are clean
    t = ts - ts[0]    # time origin at the window start
    env = np.exp(-lam * t)
    M = np.column_stack([np.sin(om * ts), np.cos(om * ts),
                         env * np.sin(2.0 * om * ts),
                         env * np.cos(2.0 * om * ts), env])
    A, delta, rms = _project(M, y)

    def ringdown(omega, decay):
        # the fundamental plus the second harmonic and DC offset that the
        # oscillator's quadratic term feeds at twice the decay rate (left out,
        # they bias omega by parts in 1e3); divided by the envelope, so early
        # (dirtier) samples do not dominate
        e = np.exp(-decay * t)
        return np.column_stack([np.sin(omega * t), np.cos(omega * t),
                                e * np.sin(2.0 * omega * t),
                                e * np.cos(2.0 * omega * t), e]), ws / e

    om_fit, dec_fit = _varpro(ringdown, om, lam)
    return OscillationFit(amplitude=A, phase=delta, frequency=om_fit,
                          decay=dec_fit, residual=rms,
                          n_periods=n_periods, window=(lo, hi))


# -- linearized light-cone equation -------------------------------------------


def _linearized_cone_coeffs(params: ModelParams, order: int) -> list:
    """Taylor coefficients of the cone-regular linearized deviation in
    s = rho - 1, normalized to w(1) = 1 (hence w'(1) = (p-3)/2)."""
    al = params.alpha
    kap = 2.0 * (params.p - 3.0) / (params.p - 1.0)
    beta = [1.0] + [0.0] * order
    for m in range(order):
        acc = (5.0 * m * (m - 1.0) - (kap - 6.0) * m - kap) * beta[m]
        if m >= 1:
            acc += (4.0 * (m - 1.0) * (m - 2.0) + 6.0 * (m - 1.0)) * beta[m - 1]
        if m >= 2:
            acc += ((m - 2.0) * (m - 3.0) + 2.0 * (m - 2.0)) * beta[m - 2]
        beta[m + 1] = acc / (-2.0 * (m + 1.0) * (m + al))
    return beta


def _linearized_cone_rhs(params: ModelParams):
    kap = 2.0 * (params.p - 3.0) / (params.p - 1.0)

    def rhs(r, y):
        w, dw = y
        return (dw, -((kap * r - 2.0 * r**3) * dw + kap * w)
                / (r * r * (1.0 - r * r)))

    return rhs


def solve_linearized_lightcone(rho_min: float, params: ModelParams,
                               tol: Tolerances = Tolerances()) -> OscillationFit:
    """A1, delta1 of the cone linearization w_L ~ rho^{-(p-5)/(2(p-1))}
    A1 sin(omega ln rho + delta1), from a series launch at the cone."""
    import numpy as np
    if not 0.0 < rho_min < 0.5:
        raise ValueError("rho_min must lie in (0, 0.5)")
    p = params.p
    om = params.omega
    lam = (p - 5.0) / (2.0 * (p - 1.0))
    order = SERIES_ORDER + 4
    beta = _linearized_cone_coeffs(params, order + 2)
    s0, w0, dw0, _ = _shrink_until_valid(beta, -1e-3, order, tol.rtol, tol.atol, 1.0, 1.0)

    t, y, dense, term = drive_ode(_linearized_cone_rhs(params), 1.0 + s0,
                                  (w0, dw0), rho_min, tol, blow_cap=None)
    if term != TERM_REACHED_END:
        raise RuntimeError(f"cone linearization integration stopped early ({term})")

    period = 2.0 * math.pi / om
    lo = math.log(rho_min)
    hi = math.log(min(CONE_TRANSIENT_RHO, max(t)))
    n_periods = (hi - lo) / period
    if n_periods < 1.0:
        raise InsufficientSpanError(
            f"window [{rho_min:g}, {CONE_TRANSIENT_RHO:g}] covers {n_periods:.2f} "
            "oscillation periods; at least 1 is needed")
    n = max(64, int(n_periods * SAMPLES_PER_PERIOD))
    sigma = np.linspace(lo, hi, n)            # ln rho grid
    rr = np.exp(sigma)
    wl = dense(rr)[0]
    y1 = wl * rr**lam
    A, delta, rms = _project(np.column_stack([np.sin(om * sigma), np.cos(om * sigma)]), y1)
    s = sigma - lo     # time origin at the window start

    # not folded into the ringdown model: that moves the cone frequency error
    # 2.3e-5 -> 8.3e-5
    def cone(omega, decay):
        e = np.exp(-decay * s)
        return np.column_stack([e * np.sin(omega * s), e * np.cos(omega * s)]), wl

    om_fit, dec_fit = _varpro(cone, om, lam)
    return OscillationFit(amplitude=A, phase=delta, frequency=om_fit,
                          decay=dec_fit, residual=rms,
                          n_periods=n_periods, window=(lo, hi))
