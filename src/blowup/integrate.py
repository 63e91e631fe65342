"""Adaptive integration of the profile equation with dense output.

The stepper is DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10) as
scipy 1.17.1 steps it, run on Python floats for the two-component systems
(u, u') every caller integrates; its tableau is module data, so numpy is the
only import.  Step budget, minimum step size and termination reasons are
explicit.  Dense output, built on first use from the stages kept while
stepping, sums scipy's DOP853 interpolant bit for bit, without re-integration.

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


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10) as scipy 1.17.1's doubles in shortest
# decimals, pinned bit for bit by a test: nodes C, rows 1-15 of A (a step's stages, B as row 12,
# the 3 interpolant stages), E5, what E3 takes off B, and the rows of D; zeros are written 0.
_C_ALL = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
    1.0, 0.1, 0.2, 0.7777777777777778,
)
_A_ROWS = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
_E5_ROW = (
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0,
)
_D_ROWS = (
    (-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564),
)
_E3_LESS_B = (0.2440944881889764, 0, 0, 0, 0, 0, 0, 0, 0.7338466882816118, 0, 0,
              0.022058823529411766, 0)


def _sparse(row) -> tuple:
    """(a, stage) pairs of a tableau row, zeros dropped."""
    return tuple((float(a), j) for j, a in enumerate(row) if a)


# DOP853's tableau as (c, sparse row): the 11 stages after the first, then
# the 3 extra stages of the interpolant
_STAGES = 12
_MAIN = [(c, _sparse(row)) for c, row in zip(_C_ALL[1:_STAGES], _A_ROWS)]
_EXTRA = [(c, _sparse(row)) for c, row in zip(_C_ALL[_STAGES + 1:], _A_ROWS[_STAGES:])]
_B, _E5 = _sparse(_A_ROWS[_STAGES - 1]), _sparse(_E5_ROW)
_E3 = _sparse([b - d for b, d in zip((*_A_ROWS[_STAGES - 1], 0.0), _E3_LESS_B)])
_D = np.array(_D_ROWS, dtype=float)
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


class _DenseOutput:
    """DOP853's interpolant on every step of one drive_ode run.  Its first
    call adds each step's 3 interpolant stages to the 13 kept ones (RHS calls
    made after drive_ode returned) and builds the (step, 7, 2) coefficients.
    Each point's step is chosen as in scipy's OdeSolution and summed in the
    order of its Dop853DenseOutput, so values are scipy's to the bit: shape
    (2,) for a scalar t, (2, m) for m points."""

    def __init__(self, rhs, t: np.ndarray, y: np.ndarray, stages: np.ndarray):
        self._pending, self._t, self._y, self._F = (rhs, stages), t, y, None

    def __call__(self, tq):
        if self._F is None:
            (rhs, stages), t, y = self._pending, self._t, self._y
            ts, ys, full = t.tolist(), y.tolist(), []
            for i, (K0, K1) in enumerate(stages.tolist()):
                _add_stages(_EXTRA, rhs, ts[i], *ys[i], ts[i + 1] - ts[i], K0, K1)
                full.append((K0, K1))
            K = np.array(full)                            # (step, component, stage)
            h = np.diff(t)[:, None]
            dy = np.diff(y, axis=0)
            f_old, f_new = K[:, :, 0], K[:, :, _STAGES]
            self._pending, self._h, self._F = None, h[:, 0], np.concatenate(
                (np.stack((dy, h * f_old - dy, 2.0 * dy - h * (f_new + f_old)), axis=1),
                 h[:, :, None] * np.swapaxes(K @ _D.T, 1, 2)), axis=1)
        t, tq = self._t, np.asarray(tq)
        q = tq.ravel()
        # OdeSolution's step, clip(searchsorted(t, q) - 1, 0, steps - 1), read off
        # the interior nodes: an interior node goes to the step that ends there
        if t[-1] >= t[0]:
            seg = t[1:-1].searchsorted(q, side="left")
        else:
            seg = len(t) - 2 - t[-2:0:-1].searchsorted(q, side="right")
        x = ((q - t[seg]) / self._h[seg])[:, None]
        y = np.zeros((len(q), 2))
        for i, f in enumerate(self._F[seg].transpose(1, 0, 2)[::-1]):
            y += f
            y *= x if i % 2 == 0 else 1 - x
        y += self._y[seg]
        return y[0] if tq.ndim == 0 else y.T


def drive_ode(rhs, t0: float, y0, t_end: float, tol: Tolerances,
              blow_cap: float | None = None, store_dense: bool = True):
    """Step rhs from t0 to t_end; returns (t, y, dense, termination).

    y0 holds the two components (u, u'); rhs(t, (u, du)) gets a tuple of
    floats and returns the pair (u', u'').  t is the accepted-step grid
    (monotone), y has shape (2, len(t)), dense is a _DenseOutput (callable
    on t, scipy-free) holding the 13 stages of every step in one float64
    array, or None without store_dense or a step.  Stops early on |y[0]| >
    blow_cap, a step below H_MIN, or MAX_STEPS accepted steps.
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
