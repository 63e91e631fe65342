"""Adaptive integration of the profile equation with dense output.

The stepper is DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10) as
scipy 1.17.1 steps it, run on Python floats for the two-component systems
(u, u') every caller integrates.  Step budget, minimum step size and
termination reasons are explicit.  Dense output, built on first use from the
stages kept while stepping, interpolates at the order of the stepper, so
trajectories can be sampled anywhere without re-integration.

Every trajectory lives in one chart family: (U, U') in x = rho c^{(p-1)/2}
with u = c U.  The plain equation in rho is the member c = 1; large center
amplitudes use their own c, where the plain chart is ill-conditioned; the
limit equation is stored with c = 1 as well.  Conversions are exact, and
scaling by 1 leaves every digit of the plain chart unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, OdeSolution
from scipy.integrate._ivp.rk import Dop853DenseOutput

from .model import ModelParams, ProfileState
from .odecore import center_launch, center_launch_rescaled, chart_rhs, lightcone_launch

__all__ = [
    "Tolerances",
    "Trajectory",
    "integrate",
    "integrate_rescaled",
    "integrate_limit",
    "center_trajectory",
    "lightcone_trajectory",
    "drive_ode",
    "TERM_REACHED_END",
    "TERM_BLEW_UP",
    "TERM_STEP_UNDERFLOW",
    "TERM_STEP_LIMIT",
]

TERM_REACHED_END = "reached_end"
TERM_BLEW_UP = "blew_up"
TERM_STEP_UNDERFLOW = "step_underflow"
TERM_STEP_LIMIT = "step_limit"

MAX_STEPS = 200_000       # accepted steps before an integration stops (step_limit)
H_MIN = 1e-15             # step size below which it stops (step_underflow)
RESCALE_THRESHOLD = 1e3   # stretch c^{(p-1)/2} above which center launches use the x-chart
_RTOL_MIN = 100.0 * np.finfo(float).eps


@dataclass(frozen=True)
class Tolerances:
    """Integration control; defaults give ~1e-12 relative trajectories."""

    rtol: float = 1e-12
    atol: float = 1e-14

    def __post_init__(self):
        # below 100 eps the stepper could not honor rtol (scipy's floor)
        if not (_RTOL_MIN <= self.rtol <= 1e-6):
            raise ValueError(
                f"rtol must be in [{_RTOL_MIN:.3g}, 1e-6], got {self.rtol}")
        # an atol that dominates every component would let the stepper take
        # unchecked steps; this bound also rejects nan and inf
        if not (0.0 < self.atol <= 1e-6):
            raise ValueError(f"atol must be in (0, 1e-6], got {self.atol}")


def _sparse(row) -> tuple:
    """(a, stage) pairs of a tableau row, zeros dropped."""
    return tuple((float(a), j) for j, a in enumerate(row) if a)


# DOP853's tableau as (c, sparse row): the 11 stages after the first, then
# the 3 extra stages of the interpolant
_STAGES = DOP853.n_stages
_MAIN = [(float(c), _sparse(row[:s])) for s, (c, row) in
         enumerate(zip(DOP853.C, DOP853.A)) if s]
_EXTRA = [(float(c), _sparse(row[:s])) for s, (c, row) in
          enumerate(zip(DOP853.C_EXTRA, DOP853.A_EXTRA), start=_STAGES + 1)]
_B, _E5, _E3 = _sparse(DOP853.B), _sparse(DOP853.E5), _sparse(DOP853.E3)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0


def _combine(row, K0, K1) -> tuple[float, float]:
    """The sparse row's combination of the stages of each component."""
    d0 = d1 = 0.0
    for a, j in row:
        d0 += a * K0[j]
        d1 += a * K1[j]
    return d0, d1


def _add_stages(rows, rhs, t, u, du, h, K0, K1) -> None:
    """Append the stages of `rows` for the step h from (t, u, du)."""
    for c, row in rows:
        d0, d1 = _combine(row, K0, K1)
        k0, k1 = rhs(t + c * h, (u + d0 * h, du + d1 * h))
        K0.append(k0)
        K1.append(k1)


def _initial_step(rhs, t, u, du, f, t_end, direction, rtol, atol) -> float:
    """scipy's select_initial_step (Hairer, Norsett & Wanner, II.4)."""
    span = abs(t_end - t)
    s0 = atol + abs(u) * rtol
    s1 = atol + abs(du) * rtol
    d0 = math.hypot(u / s0, du / s1) / math.sqrt(2.0)
    d1 = math.hypot(f[0] / s0, f[1] / s1) / math.sqrt(2.0)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    hd = h0 * direction
    try:
        g = rhs(t + hd, (u + hd * f[0], du + hd * f[1]))
    except OverflowError:      # scipy's inf slope difference, which gives h = 0
        return 0.0
    d2 = math.hypot((g[0] - f[0]) / s0, (g[1] - f[1]) / s1) / math.sqrt(2.0) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        return min(100.0 * h0, max(1e-6, h0 * 1e-3), span)
    return min(100.0 * h0, (0.01 / max(d1, d2)) ** (1.0 / 8.0), span)


def _step(rhs, t, u, du, f, h_abs, t_end, direction, rtol, atol):
    """One accepted step from (t, u, du), where rhs is f, retrying rejected
    sizes.  Returns (t, u, du, f, next h_abs, K0, K1) with the 13 stages
    of each component, or None once the size falls under 10 ulp of t."""
    min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
    h_abs = max(h_abs, min_step)
    rejected = False
    while h_abs >= min_step:
        t_new = t + h_abs * direction
        if direction * (t_new - t_end) > 0:
            t_new = t_end
        h = t_new - t
        h_abs = abs(h)
        K0, K1 = [f[0]], [f[1]]
        try:
            _add_stages(_MAIN, rhs, t, u, du, h, K0, K1)
            b0, b1 = _combine(_B, K0, K1)
            u_new, du_new = u + h * b0, du + h * b1
            f_new = rhs(t_new, (u_new, du_new))
        except OverflowError:
            # u**p left the float range; there scipy's arrays hold inf and
            # its error norm rejects the step by the smallest factor
            h_abs *= _MIN_FACTOR
            rejected = True
            continue
        K0.append(f_new[0])
        K1.append(f_new[1])
        s0 = atol + max(abs(u), abs(u_new)) * rtol
        s1 = atol + max(abs(du), abs(du_new)) * rtol
        e0, e1 = _combine(_E5, K0, K1)
        err5 = (e0 / s0) ** 2 + (e1 / s1) ** 2
        e0, e1 = _combine(_E3, K0, K1)
        err3 = (e0 / s0) ** 2 + (e1 / s1) ** 2
        err = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0) if err5 or err3 else 0.0
        if err < 1.0:
            factor = min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT) if err else _MAX_FACTOR
            h_next = h_abs * (min(1.0, factor) if rejected else factor)
            return t_new, u_new, du_new, f_new, h_next, K0, K1
        h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
        rejected = True
    return None


def _dense_output(rhs, t: np.ndarray, y: np.ndarray, stages: np.ndarray) -> OdeSolution:
    """DOP853's interpolant on every step: the 3 extra stages of each step,
    taken on Python floats from its 13 kept ones as the stepper would, then
    the interpolant coefficients; row i of y is the state at t[i]."""
    ts, ys, full = t.tolist(), y.tolist(), []
    for i, (K0, K1) in enumerate(stages.tolist()):
        _add_stages(_EXTRA, rhs, ts[i], *ys[i], ts[i + 1] - ts[i], K0, K1)
        full.append((K0, K1))
    K = np.array(full)                            # (step, component, stage)
    h = np.diff(t)[:, None]
    dy = np.diff(y, axis=0)
    f_old, f_new = K[:, :, 0], K[:, :, _STAGES]
    F = np.concatenate(
        (np.stack((dy, h * f_old - dy, 2.0 * dy - h * (f_new + f_old)), axis=1),
         h[:, :, None] * np.swapaxes(K @ DOP853.D.T, 1, 2)), axis=1)
    return OdeSolution(t, [Dop853DenseOutput(t[i], t[i + 1], y[i], F[i])
                           for i in range(len(h))])


class _DenseOutput:
    """Dense output of one drive_ode run, built by its first call from the
    13 stages kept per accepted step; the 3 interpolant stages of each step
    are RHS calls made then, after drive_ode returned."""

    def __init__(self, rhs, t: np.ndarray, y: np.ndarray, stages: np.ndarray):
        self._pending, self._solution = (rhs, t, y, stages), None

    def __call__(self, tq):
        if self._solution is None:
            self._solution, self._pending = _dense_output(*self._pending), None
        return self._solution(tq)


def drive_ode(rhs, t0: float, y0, t_end: float, tol: Tolerances,
              blow_cap: float | None = None, store_dense: bool = True):
    """Step rhs from t0 to t_end; returns (t, y, dense, termination).

    y0 holds the two components (u, u'); rhs(t, (u, du)) gets a tuple of
    floats and returns the pair (u', u'').  t is the accepted-step grid
    (monotone), y has shape (2, len(t)), dense is a _DenseOutput holding the
    13 stages of every step in one float64 array, or None without
    store_dense or a step.  Stops early on |y[0]| > blow_cap, a step below
    H_MIN, or MAX_STEPS accepted steps.
    """
    if t_end == t0:
        raise ValueError("empty integration span")
    if len(y0) != 2:
        raise ValueError(f"drive_ode integrates 2 components, got {len(y0)}")
    t, u, du = float(t0), float(y0[0]), float(y0[1])
    direction = 1.0 if t_end > t0 else -1.0
    try:
        f = rhs(t, (u, du))
    except OverflowError:      # the start is past the float range: no step
        return np.array([t]), np.array([[u], [du]]), None, TERM_STEP_UNDERFLOW
    h_abs = _initial_step(rhs, t, u, du, f, t_end, direction, tol.rtol, tol.atol)
    ts, ys, stages = [t], [(u, du)], []
    termination = TERM_REACHED_END
    while direction * (t - t_end) < 0:
        if len(ts) > MAX_STEPS:
            termination = TERM_STEP_LIMIT
            break
        step = _step(rhs, t, u, du, f, h_abs, t_end, direction, tol.rtol, tol.atol)
        if step is None:
            termination = TERM_STEP_UNDERFLOW
            break
        t, u, du, f, h_abs, K0, K1 = step
        if store_dense:
            stages += K0
            stages += K1
        ts.append(t)
        ys.append((u, du))
        if blow_cap is not None and abs(u) > blow_cap:
            termination = TERM_BLEW_UP
            break
        if h_abs < H_MIN:
            termination = TERM_STEP_UNDERFLOW
            break
    t, y = np.array(ts), np.array(ys)
    K = np.array(stages).reshape(-1, 2, _STAGES + 1)   # (step, component, stage)
    return t, y.T, _DenseOutput(rhs, t, y, K) if stages else None, termination


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Integrated piece of a profile in the chart of scale c_scale.

    t, y hold the accepted-step grid in chart coordinates x = rho
    c_scale^{(p-1)/2}, with u = c_scale U; c_scale is 1.0 for the plain rho
    chart.  eval() and profile_samples() convert to (rho, u, du).  The
    deviation variable w = u/u_singular - 1 and its scale-invariant slope
    rho*w' have the same expression in every chart's native variables, so
    w_samples()/w_of_t() never leave the well-conditioned representation.
    dense builds its interpolant on the first eval()/w_of_t(), so a shot
    read only on its grid, like a Newton trial, never pays for it.
    """

    params: ModelParams
    c_scale: float
    t: np.ndarray
    y: np.ndarray
    dense: _DenseOutput | None
    termination: str

    @property
    def pieces(self) -> tuple[Trajectory]:
        """(self,), so single pieces and two-sided merges iterate alike."""
        return (self,)

    # -- chart conversions ------------------------------------------------

    def rho_per_t(self) -> float:
        """drho/dt of the chart: c_scale^{-(p-1)/2}."""
        return self.c_scale ** (-(self.params.p - 1) / 2.0)

    def rho_span(self) -> tuple[float, float]:
        r = self.t * self.rho_per_t()
        return (float(r.min()), float(r.max()))

    def profile_samples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho, u, du) arrays on the accepted-step grid, in rho units."""
        dscale = self.c_scale ** ((self.params.p + 1) / 2.0)
        return self.t * self.rho_per_t(), self.c_scale * self.y[0], dscale * self.y[1]

    def eval(self, rho):
        """(u, du) at arbitrary rho inside the integrated span."""
        if self.dense is None:
            raise ValueError("trajectory has no step to interpolate")
        yv = self.dense(np.asarray(rho) / self.rho_per_t())
        return self.c_scale * yv[0], self.c_scale ** ((self.params.p + 1) / 2.0) * yv[1]

    def endpoint(self) -> ProfileState:
        rho, u, du = self.profile_samples()
        return ProfileState(float(rho[-1]), float(u[-1]), float(du[-1]))

    # -- deviation from the singular solution ------------------------------

    def _w_expr(self, t, u, du):
        al = self.params.alpha
        ta = np.asarray(t) ** al
        w = ta * u / self.params.b_inf - 1.0
        rw = ta * (t * du + al * u) / self.params.b_inf
        return w, rw

    def w_samples(self):
        """(t_grid, w, rho*w') on the accepted-step grid (chart coordinates)."""
        return self.t, *self._w_expr(self.t, self.y[0], self.y[1])

    def w_of_t(self, tq):
        """(w, rho*w') at arbitrary chart coordinate tq via dense output."""
        if self.dense is None:
            raise ValueError("trajectory has no step to interpolate")
        yv = self.dense(tq)
        return self._w_expr(tq, yv[0], yv[1])


def _trajectory(params: ModelParams, mu: float, c_scale: float, t0: float, y0,
                t_end: float, tol: Tolerances, blow_cap: float) -> Trajectory:
    t, y, dense, term = drive_ode(chart_rhs(params, mu), t0, y0, t_end, tol, blow_cap)
    return Trajectory(params=params, c_scale=c_scale, t=t, y=y, dense=dense,
                      termination=term)


def integrate(start: ProfileState, rho_end: float, params: ModelParams,
              tol: Tolerances = Tolerances()) -> Trajectory:
    """Integrate the profile equation in the plain chart (c_scale = 1).

    start.rho and rho_end must lie strictly on the same side of the cone
    (both in (0,1) or both above 1); crossing rho = 1 requires the series
    bridge in odecore.
    """
    r0 = start.rho
    inside = 0.0 < r0 < 1.0 and 0.0 < rho_end < 1.0
    outside = r0 > 1.0 and rho_end > 1.0
    if not (inside or outside):
        raise ValueError(
            f"span [{r0}, {rho_end}] must stay strictly on one side of the cone")
    cap = max(1.0e6, 1.0e3 * (abs(start.u) + 1.0))
    return _trajectory(params, 1.0, 1.0, r0, (start.u, start.du), rho_end, tol, cap)


def integrate_rescaled(c: float, x_start: float, U: float, dU: float, x_end: float,
                       params: ModelParams, tol: Tolerances = Tolerances()) -> Trajectory:
    """Integrate the exact rescaled equation in x; valid while rho < 1."""
    if c <= 0.0:
        raise ValueError("rescaled chart needs c > 0")
    mu = float(c) ** (-(params.p - 1))
    x_cone = (1.0 - 1e-12) / math.sqrt(mu)
    if not (0.0 < x_start < x_cone and 0.0 < x_end < x_cone):
        raise ValueError("x span must stay inside the cone image")
    return _trajectory(params, mu, float(c), x_start, (U, dU), x_end, tol, 1.0e3)


def integrate_limit(x_start: float, U: float, dU: float, x_end: float,
                    params: ModelParams, tol: Tolerances = Tolerances()) -> Trajectory:
    """Integrate the infinite-amplitude limit equation (the mu = 0 chart).

    The trajectory is stored with unit scale, so the deviation helpers
    compare against the limit equation's own singular solution."""
    if x_start <= 0.0 or x_end <= 0.0:
        raise ValueError("limit chart needs x > 0")
    return _trajectory(params, 0.0, 1.0, x_start, (U, dU), x_end, tol, 1.0e3)


def center_trajectory(c: float, rho_end: float, params: ModelParams,
                      tol: Tolerances = Tolerances()) -> Trajectory:
    """Series launch at the center followed by integration out to rho_end.

    Launches whose stretch c^{(p-1)/2} exceeds RESCALE_THRESHOLD (c > 10
    for p = 7) run in the x-chart, where the offset stays O(1), not 1/stretch.
    """
    if c <= 0.0:
        raise ValueError("center launches need c > 0")
    if not 0.0 < rho_end < 1.0:
        raise ValueError("rho_end must lie strictly inside the cone")
    stretch = float(c) ** ((params.p - 1) / 2.0)
    if stretch > RESCALE_THRESHOLD:
        x0, U, dU, _ = center_launch_rescaled(c, params, tol.rtol, tol.atol)
        return integrate_rescaled(c, x0, U, dU, rho_end * stretch, params, tol)
    ls = center_launch(c, params, tol.rtol, tol.atol)
    return integrate(ls.state, rho_end, params, tol)


def lightcone_trajectory(b: float, rho_end: float, params: ModelParams,
                         tol: Tolerances = Tolerances()) -> Trajectory:
    """Series launch on the cone followed by integration to rho_end (either side)."""
    if b <= 0.0:
        raise ValueError("light-cone launches need b > 0")
    if rho_end <= 0.0 or rho_end == 1.0:
        raise ValueError("rho_end must be positive and off the cone")
    side = -1 if rho_end < 1.0 else +1
    ls = lightcone_launch(b, params, tol.rtol, tol.atol, side=side)
    return integrate(ls.state, rho_end, params, tol)
