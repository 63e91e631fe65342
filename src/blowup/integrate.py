"""Adaptive integration of the profile equation with dense output.

The stepper is an embedded explicit pair of order 8 (scipy's DOP853) with
proportional-integral step control, driven through its low-level interface
so step budgets, minimum step size, and termination reasons are explicit.
Dense output interpolates at the order of the stepper, so trajectories can
be sampled anywhere without re-integration.

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


@dataclass(frozen=True)
class Tolerances:
    """Integration control; defaults give ~1e-12 relative trajectories."""

    rtol: float = 1e-12
    atol: float = 1e-14

    def __post_init__(self):
        if not (0.0 < self.rtol <= 1e-6):
            raise ValueError(f"rtol must be in (0, 1e-6], got {self.rtol}")
        if self.atol <= 0.0:
            raise ValueError(f"atol must be positive, got {self.atol}")


def drive_ode(rhs, t0: float, y0, t_end: float, tol: Tolerances,
              blow_cap: float | None = None, store_dense: bool = True):
    """Step rhs from t0 to t_end; returns (t, y, dense, termination).

    t is the accepted-step grid (monotone), y has shape (2, len(t)), dense
    is an OdeSolution or None.  Stops early on |y[0]| > blow_cap, a step
    below H_MIN, or MAX_STEPS accepted steps.
    """
    if t_end == t0:
        raise ValueError("empty integration span")
    solver = DOP853(rhs, t0, np.asarray(y0, dtype=float), t_end,
                    rtol=tol.rtol, atol=tol.atol)
    ts = [t0]
    ys = [np.asarray(y0, dtype=float)]
    interps = [] if store_dense else None
    termination = TERM_REACHED_END
    nsteps = 0
    while solver.status == "running":
        if nsteps >= MAX_STEPS:
            termination = TERM_STEP_LIMIT
            break
        solver.step()
        if solver.status == "failed":
            termination = TERM_STEP_UNDERFLOW
            break
        nsteps += 1
        ts.append(solver.t)
        ys.append(solver.y.copy())
        if store_dense:
            interps.append(solver.dense_output())
        if blow_cap is not None and abs(solver.y[0]) > blow_cap:
            termination = TERM_BLEW_UP
            break
        if solver.h_abs < H_MIN:
            termination = TERM_STEP_UNDERFLOW
            break
    t = np.array(ts)
    y = np.array(ys).T
    dense = OdeSolution(t, interps) if store_dense and interps else None
    return t, y, dense, termination


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Integrated piece of a profile in the chart of scale c_scale.

    t, y hold the accepted-step grid in chart coordinates x = rho
    c_scale^{(p-1)/2}, with u = c_scale U; c_scale is 1.0 for the plain rho
    chart.  eval() and profile_samples() convert to (rho, u, du).  The
    deviation variable w = u/u_singular - 1 and its scale-invariant slope
    rho*w' have the same expression in every chart's native variables, so
    w_samples()/w_of_t() never leave the well-conditioned representation.
    """

    params: ModelParams
    c_scale: float
    t: np.ndarray
    y: np.ndarray
    dense: OdeSolution | None
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
            raise ValueError("trajectory was integrated without dense output")
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
            raise ValueError("trajectory was integrated without dense output")
        yv = self.dense(tq)
        return self._w_expr(tq, yv[0], yv[1])


def _trajectory(params: ModelParams, mu: float, c_scale: float, t0: float, y0,
                t_end: float, tol: Tolerances, blow_cap: float,
                store_dense: bool) -> Trajectory:
    t, y, dense, term = drive_ode(chart_rhs(params, mu), t0, y0, t_end, tol,
                                  blow_cap, store_dense)
    return Trajectory(params=params, c_scale=c_scale, t=t, y=y, dense=dense,
                      termination=term)


def integrate(start: ProfileState, rho_end: float, params: ModelParams,
              tol: Tolerances = Tolerances(), store_dense: bool = True) -> Trajectory:
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
    return _trajectory(params, 1.0, 1.0, r0, (start.u, start.du), rho_end, tol,
                       cap, store_dense)


def integrate_rescaled(c: float, x_start: float, U: float, dU: float, x_end: float,
                       params: ModelParams, tol: Tolerances = Tolerances(),
                       store_dense: bool = True) -> Trajectory:
    """Integrate the exact rescaled equation in x; valid while rho < 1."""
    if c <= 0.0:
        raise ValueError("rescaled chart needs c > 0")
    mu = float(c) ** (-(params.p - 1))
    x_cone = (1.0 - 1e-12) / math.sqrt(mu)
    if not (0.0 < x_start < x_cone and 0.0 < x_end < x_cone):
        raise ValueError("x span must stay inside the cone image")
    return _trajectory(params, mu, float(c), x_start, (U, dU), x_end, tol,
                       1.0e3, store_dense)


def integrate_limit(x_start: float, U: float, dU: float, x_end: float,
                    params: ModelParams, tol: Tolerances = Tolerances(),
                    store_dense: bool = True) -> Trajectory:
    """Integrate the infinite-amplitude limit equation (the mu = 0 chart).

    The trajectory is stored with unit scale, so the deviation helpers
    compare against the limit equation's own singular solution."""
    if x_start <= 0.0 or x_end <= 0.0:
        raise ValueError("limit chart needs x > 0")
    return _trajectory(params, 0.0, 1.0, x_start, (U, dU), x_end, tol,
                       1.0e3, store_dense)


def center_trajectory(c: float, rho_end: float, params: ModelParams,
                      tol: Tolerances = Tolerances(), store_dense: bool = False,
                      rescale_threshold: float = RESCALE_THRESHOLD) -> Trajectory:
    """Series launch at the center followed by integration out to rho_end.

    Launches whose stretch c^{(p-1)/2} exceeds rescale_threshold (c > 10
    for p = 7) run in the x-chart, where the offset stays O(1), not 1/stretch.
    """
    if c <= 0.0:
        raise ValueError("center launches need c > 0")
    if not 0.0 < rho_end < 1.0:
        raise ValueError("rho_end must lie strictly inside the cone")
    stretch = float(c) ** ((params.p - 1) / 2.0)
    if stretch > rescale_threshold:
        x0, U, dU, _ = center_launch_rescaled(c, params, tol.rtol, tol.atol)
        return integrate_rescaled(c, x0, U, dU, rho_end * stretch, params, tol,
                                  store_dense)
    ls = center_launch(c, params, tol.rtol, tol.atol)
    return integrate(ls.state, rho_end, params, tol, store_dense)


def lightcone_trajectory(b: float, rho_end: float, params: ModelParams,
                         tol: Tolerances = Tolerances(),
                         store_dense: bool = False) -> Trajectory:
    """Series launch on the cone followed by integration to rho_end (either side)."""
    if b <= 0.0:
        raise ValueError("light-cone launches need b > 0")
    if rho_end <= 0.0 or rho_end == 1.0:
        raise ValueError("rho_end must be positive and off the cone")
    side = -1 if rho_end < 1.0 else +1
    ls = lightcone_launch(b, params, tol.rtol, tol.atol, side=side)
    return integrate(ls.state, rho_end, params, tol, store_dense)
