"""Adaptive integration of the profile equation with dense output.

The stepper is DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10) as
scipy 1.17.1 steps it, on Python floats for the systems (u, u') every caller
integrates (and the kept run below), in one step loop generated on first use
from the module's tableau, with the chart equation in its stages.  Runs hold
their nodes in lists of floats, and a run is its nodes: no step keeps its
stages.  numpy is imported only to evaluate dense output or sample a trajectory
on arrays.  Step budget, minimum step size and termination reasons are
explicit.  Dense output, built one step at a time from the stages rebuilt off
the step's first node, is scipy's to the bit given its coefficients.

Every trajectory lives in one chart family: (U, U') in x = rho c^{(p-1)/2}
with u = c U.  The plain equation in rho is the member c = 1; center shots
past the kept run's launch use their own c, where the plain chart is
ill-conditioned for large c; the kept run is stored with c = 1 as well.
Conversions are exact, and scaling by 1 leaves every digit of the plain chart
unchanged.

Center shots share their inner part u/c = sum_k rho^{2k} V_k(x) (odecore):
V_0..V_K, K = CENTER_K, are integrated once per (params, tolerances they step
at) in one kept run with steps controlled on V_0 = U_0, at an rtol no looser
than the default, and each shot integrates only from the run's last node at
or below rho_s = rtol^{1/(2K+2)}, started from that node's values, not from
the run's interpolant.  Outer runs read atol in units of u.  The
asymptotic fits read U_0 off the K = 0 run, the same to the bit.  A nodal
count reads a shot's head below its cut off one _HeadTable per kept run: V_0's
deviation phase and zero count, and the bound on what V_1..V_K add to them.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from array import array
from dataclasses import dataclass

from .model import ModelParams, ProfileState
from .odecore import (_CHART_U2, CENTER_K, chart_rhs, lightcone_launch, mu_series_launch,
                      mu_series_values, series_rhs)

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
LIMIT_REACH = 1e17        # end of the first kept run; its last full step passes 1e16
LIMIT_FAR = 1e100         # end of the longest kept run: short of where U0^p leaves the
                          # normal floats and its steps collapse (x ~ 1e128 at p = 6)
_RTOL_MIN = 100.0 * sys.float_info.epsilon


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

    def capped(self) -> Tolerances:
        """rtol no looser than the default, as kept runs and the cone curve step."""
        return Tolerances(min(self.rtol, Tolerances.rtol), self.atol)


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
_D = [_sparse(row) for row in _D_ROWS]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0


def _sum(row, k: str) -> str:
    """Source of a sparse row's sum over the stages k + str(j), left to right."""
    return " + ".join(f"{a!r} * {k}{j}" for a, j in row)


def _stage_lines(rows, first: int, n: int, chart: bool) -> list[str]:
    """Source of the stages first, first + 1, ..., each at ti = t + c h."""
    lines = []
    for i, (c, row) in enumerate(rows, first):
        y = [f"y{m} + ({_sum(row, f'k{m}_')}) * h" for m in range(n)]
        lines += [f"ti = t + {c!r} * h", *_stage(i, "ti", y, chart)]
    return lines


def _stage(i: int, t: str, y: list, chart: bool) -> list[str]:
    """Source of stage i at time t and state y: a call of rhs or, for the chart
    equation, that equation written in."""
    return ([f"u = {y[0]}", f"k0_{i} = du = {y[1]}", f"k1_{i} = {_CHART_U2.format(t=t)}"] if chart
            else [f"{_ks(len(y), i)} = rhs({t}, ({', '.join(y)},))"])


def _ks(n: int, j) -> str:
    return ", ".join(f"k{m}_{j}" for m in range(n))


# drive_ode's loop of accepted steps, each sized as scipy's DOP853 _step sizes
# it; a step's 13 stages rebuilt from its first node by the loop's own lines;
# and its interpolant coefficients.  _kernel fills in the stages
_SOURCES = {"_loop": """\
def _loop(rhs, t, y, f, h_abs, t_end, direction, rtol, atol, blow_cap, h_min, max_steps):
    {head}
    {y}, = y
    {k0}, = f
    ts, ys = [t], [*y]
    while direction * (t - t_end) < 0:
        if len(ts) > max_steps:
            return ts, ys, TERM_STEP_LIMIT
        min_step = 10.0 * abs(nextafter(t, direction * inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            try:
{stages}
            except OverflowError:
                # u**p left the float range: scipy's error norm rejects by the smallest factor
                h_abs *= _MIN_FACTOR
                rejected = True
                continue
            s0 = atol + max(abs(y0), abs(yn0)) * rtol
            s1 = atol + max(abs(y1), abs(yn1)) * rtol
            err5 = (({e5_0}) / s0) ** 2 + (({e5_1}) / s1) ** 2
            err3 = (({e3_0}) / s0) ** 2 + (({e3_1}) / s1) ** 2
            norm = sqrt((err5 + 0.01 * err3) * 2.0)
            # norm is 0 only when both estimates underflow: the step's error is nil
            err = h_abs * err5 / norm if norm else 0.0
            if err < 1.0:
                factor = min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT) if err else _MAX_FACTOR
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True
        else:
            return ts, ys, TERM_STEP_UNDERFLOW
        t, {y} = t_new, {yn}
        {k0} = {k12}
        ts.append(t)
        ys += {y},
        if blow_cap is not None and abs(y0) > blow_cap:
            return ts, ys, TERM_BLEW_UP
        # a step that lands a few ulp short of t_end leaves a sliver to step,
        # whose next size says nothing once the end is reached
        if h_abs < h_min and direction * (t - t_end) < 0:
            return ts, ys, TERM_STEP_UNDERFLOW
    return ts, ys, TERM_REACHED_END
""", "_stages": """\
def _stages(rhs, t, t_new, y):
    {head}
    {y}, = y
    h = t_new - t
{stages}
    return {kept}
""", "_coeffs": """\
def _coeffs(rhs, t, y, yn, h, K):
    {head}
    {y}, = y
    {yn}, = yn
    {kept}, = K
    try:
{extra}
    except OverflowError:   # u**p left the float range: no finite interpolant, as scipy's
        {extra_ks} = inf
    {d} = {dy}
    return {F}
"""}


@functools.cache
def _kernel(n: int, chart: bool, name: str = "_loop"):
    """_SOURCES[name] for n components, generated from the tableau on first use
    (as namedtuple builds its class), each on its own to bound the compiler's
    memory: no per-term loop and no Python call but rhs's, each sum adding its
    row's nonzero terms left to right in repr literals; with chart, the stages
    compute odecore.chart_rhs's equation in place instead.  _stages rebuilds a
    step's stages, stage 0 from its first node; _coeffs gives a step's
    Dop853DenseOutput F0..F6 of each component in turn, D's rows so summed."""
    y, yn = [f"y{m}" for m in range(n)], [f"yn{m}" for m in range(n)]
    stages = [*_stage(0, "t", y, chart)] * (name == "_stages") + [
        *_stage_lines(_MAIN, 1, n, chart),
        *(f"yn{m} = y{m} + h * ({_sum(_B, f'k{m}_')})" for m in range(n)),
        *_stage(_STAGES, "t_new", yn, chart)]
    src = _SOURCES[name].format(
        head="mu, aa1, tt, p = rhs.chart" if chart else "", y=", ".join(y), yn=", ".join(yn),
        k0=_ks(n, 0), k12=_ks(n, _STAGES),
        stages="\n".join(" " * (16 if name == "_loop" else 4) + line for line in stages),
        kept=", ".join(", ".join(f"k{m}_{j}" for j in range(_STAGES + 1)) for m in range(n)),
        d=", ".join(f"d{m}" for m in range(n)), dy=", ".join(f"yn{m} - y{m}" for m in range(n)),
        F=", ".join(f"d{m}, h * k{m}_0 - d{m}, 2.0 * d{m} - h * (k{m}_12 + k{m}_0), "
                    + ", ".join(f"h * ({_sum(row, f'k{m}_')})" for row in _D)
                    for m in range(n)),
        **{f"e{o}_{m}": _sum(row, f"k{m}_") for o, row in ((5, _E5), (3, _E3)) for m in (0, 1)},
        extra="\n".join(" " * 8 + line for line in _stage_lines(_EXTRA, _STAGES + 1, n, chart)),
        extra_ks=" = ".join(f"k{m}_{j}" for m in range(n) for j in range(_STAGES + 1, 16)))
    ns = dict(globals(), nextafter=math.nextafter, inf=math.inf, sqrt=math.sqrt)
    exec(compile(src, f"<DOP853 {name}, {n} components{', chart' if chart else ''}>", "exec"), ns)
    return ns[name]


def _initial_step(rhs, t, y, f, t_end, direction, rtol, atol) -> float:
    """scipy's select_initial_step (Hairer, Norsett & Wanner, II.4) on (u, u')."""
    span = abs(t_end - t)
    s0 = atol + abs(y[0]) * rtol
    s1 = atol + abs(y[1]) * rtol
    d0 = math.hypot(y[0] / s0, y[1] / s1) / math.sqrt(2.0)
    d1 = math.hypot(f[0] / s0, f[1] / s1) / math.sqrt(2.0)
    if d1 == math.inf:         # so h0 = 0, and scipy's 0/0 slope difference gives h = 0
        return 0.0
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    hd = h0 * direction
    try:
        g = rhs(t + hd, tuple(a + hd * b for a, b in zip(y, f)))
    except OverflowError:      # scipy's inf slope difference, which gives h = 0
        return 0.0
    d2 = math.hypot((g[0] - f[0]) / s0, (g[1] - f[1]) / s1) / math.sqrt(2.0) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        return min(100.0 * h0, max(1e-6, h0 * 1e-3), span)
    return min(100.0 * h0, (0.01 / max(d1, d2)) ** (1.0 / 8.0), span)


class _DenseOutput:
    """DOP853's interpolant on every step of one drive_ode run, which is its
    nodes.  Step i's coefficients, F0..F6 of each component in turn, are built
    on its first read: the generated _stages rebuilds its 13 stages from its
    first node, the loop's own lines, and _coeffs adds the 3 interpolant stages
    (16 RHS calls made after drive_ode returned); they are kept as doubles, and
    a float t and an array read the same ones.  Each point's step is chosen as
    in scipy's OdeSolution and summed in the order of its Dop853DenseOutput, so
    values are scipy's to the bit given the coefficients: a tuple of n floats
    for a float t, shape (n, m) for m points ((n,) for a 0-d array), which
    imports numpy."""

    def __init__(self, rhs, t: list, y: tuple):
        self._rhs, self._t, self._y, self._F = rhs, t, y, {}

    def coefficients(self, i: int) -> array:
        F = self._F.get(i)
        if F is None:
            rhs, t, y = self._rhs, self._t, [c[i] for c in self._y]
            n, chart = len(y), hasattr(rhs, "chart")
            K = _kernel(n, chart, "_stages")(rhs, t[i], t[i + 1], y)
            F = self._F[i] = array("d", _kernel(n, chart, "_coeffs")(
                rhs, t[i], y, [c[i + 1] for c in self._y], t[i + 1] - t[i], K))
        return F

    @functools.cached_property
    def _h(self) -> list:
        return [b - a for a, b in zip(self._t, self._t[1:])]

    @functools.cached_property
    def _keys(self) -> tuple[float, list]:
        """The direction of integration, and the nodes along it (negation is exact)."""
        sign = 1.0 if self._t[-1] >= self._t[0] else -1.0
        return sign, [sign * v for v in self._t]

    def __call__(self, tq):
        # OdeSolution's step, clip(searchsorted(t, q) - 1, 0, steps - 1), read off
        # the interior nodes: an interior node goes to the step that ends there
        if not isinstance(tq, float):
            return self._on_array(tq)
        sign, keys = self._keys
        i = bisect.bisect_left(keys, sign * tq, 1, len(keys) - 1) - 1
        x = (tq - self._t[i]) / self._h[i]
        F, ms, y = self.coefficients(i), (x, 1 - x) * 4, []
        for m, c in enumerate(self._y):
            v = 0.0
            for a, mx in zip(reversed(F[7 * m:7 * m + 7]), ms):
                v = (v + a) * mx
            y.append(v + c[i])
        return tuple(y)

    def _on_array(self, tq):
        import numpy as np
        q = np.ravel(tq)
        sign, keys = self._keys
        seg = np.searchsorted(keys[1:-1], sign * q, side="left")
        x = (q - np.take(self._t, seg)) / np.take(self._h, seg)
        y = np.zeros((len(self._y), len(q)))
        steps, at = np.unique(seg, return_inverse=True)   # each step's coefficients once
        F = np.frombuffer(b"".join([self.coefficients(i) for i in steps.tolist()]))
        F = F.reshape(len(steps), len(self._y), 7)[at].T   # (7, n, points)
        for i, f in enumerate(F[::-1]):
            y += f
            y *= x if i % 2 == 0 else 1 - x
        y += np.array(self._y)[:, seg]
        return y[:, 0] if np.ndim(tq) == 0 else y


def drive_ode(rhs, t0: float, y0, t_end: float, tol: Tolerances,
              blow_cap: float | None = None, store_dense: bool = True, h0=None):
    """Step rhs from t0 to t_end; returns (t, y, dense, termination).

    y0 holds pairs (u, u'), two or a kept run's 2K + 2 components, steps
    controlled on the first two; rhs(t, y) gets a tuple of floats and returns
    their derivatives.
    The first step tried is h0 or scipy's.  t is the accepted-step grid
    (monotone) as a list, y a tuple of len(y0) lists of the components on it,
    dense a _DenseOutput (callable on t, scipy-free) over those nodes, or None
    without store_dense or a step; no stage outlives its step.  Stops early on
    |y[0]| > blow_cap, a step below H_MIN or MAX_STEPS accepted steps.  Every
    step runs in the loop _kernel generates, with the chart equation in its
    stages when rhs is odecore.chart_rhs's, else a call of rhs per stage.
    """
    if t_end == t0:
        raise ValueError("empty integration span")
    if len(y0) < 2 or len(y0) % 2:
        raise ValueError(f"drive_ode integrates pairs (u, u'), got {len(y0)} components")
    t, y = float(t0), tuple(float(v) for v in y0)
    direction = 1.0 if t_end > t0 else -1.0
    try:
        f = rhs(t, y)
    except OverflowError:      # the start is past the float range: no step
        return [t], tuple([v] for v in y), None, TERM_STEP_UNDERFLOW
    h_abs = h0 or _initial_step(rhs, t, y, f, t_end, direction, tol.rtol, tol.atol)
    ts, ys, termination = _kernel(len(y), hasattr(rhs, "chart"))(
        rhs, t, y, f, h_abs, t_end, direction, tol.rtol, tol.atol, blow_cap, H_MIN, MAX_STEPS)
    y = tuple(ys[m::len(y0)] for m in range(len(y0)))
    return ts, y, _DenseOutput(rhs, ts, y) if store_dense and len(ts) > 1 else None, termination


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Integrated piece of a profile in the chart of scale c_scale.

    t (a list) and y (a tuple of (U, U') lists) hold the accepted-step grid in
    chart coordinates x = rho c_scale^{(p-1)/2}, with u = c_scale U; c_scale
    is 1.0 for the plain rho chart.  eval() and profile_samples() convert to
    (rho, u, du).  The deviation variable w = u/u_singular - 1 and its
    scale-invariant slope rho*w' have the same expression in every chart's
    native variables, so w_samples()/w_of_t() never leave the well-conditioned
    representation.  dense builds a step's interpolant when eval()/w_of_t()
    first reads it, so a shot read only on its grid, like a Newton trial,
    never pays for it.
    """

    params: ModelParams
    c_scale: float
    t: list
    y: tuple
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
        return (min(self.t) * self.rho_per_t(), max(self.t) * self.rho_per_t())

    def profile_samples(self):
        """(rho, u, du) arrays on the accepted-step grid, in rho units."""
        import numpy as np
        dscale = self.c_scale ** ((self.params.p + 1) / 2.0)
        t, (U, dU) = np.array(self.t), np.array(self.y[:2])
        return t * self.rho_per_t(), self.c_scale * U, dscale * dU

    def eval(self, rho):
        """(u, du) at rho inside the integrated span: floats for a float rho,
        arrays for an array."""
        if self.dense is None:
            raise ValueError("trajectory has no step to interpolate")
        yv = self.dense(rho / self.rho_per_t())
        return self.c_scale * yv[0], self.c_scale ** ((self.params.p + 1) / 2.0) * yv[1]

    def endpoint(self) -> ProfileState:
        return ProfileState(self.t[-1] * self.rho_per_t(), self.c_scale * self.y[0][-1],
                            self.c_scale ** ((self.params.p + 1) / 2.0) * self.y[1][-1])

    # -- deviation from the singular solution ------------------------------

    def _w_expr(self, t, u, du):
        al = self.params.alpha
        ta = t ** al
        w = ta * u / self.params.b_inf - 1.0
        rw = ta * (t * du + al * u) / self.params.b_inf
        return w, rw

    def w_samples(self, start: int = 0):
        """(t_grid, w, rho*w') on the accepted-step grid (chart coordinates) from
        node start on, as lists: _w_expr node by node."""
        return self._w_lists(self.t[start:], self.y[0][start:], self.y[1][start:])

    def _w_lists(self, ts: list, us: list, dus: list):
        al, bi = self.params.alpha, self.params.b_inf
        ta = [t ** al for t in ts]
        return (ts, [a * u / bi - 1.0 for a, u in zip(ta, us)],
                [a * (t * du + al * u) / bi for a, t, u, du in zip(ta, ts, us, dus)])

    def nodal_start(self) -> tuple[int, float | None, int]:
        """(i, theta, zeros): a nodal count walks from node i, its phase there put
        on theta's branch, after zeros zeros below it; (0, None, 0), all of it."""
        return 0, None, 0

    def w_of_t(self, tq):
        """(w, rho*w') at arbitrary chart coordinate tq via dense output."""
        if self.dense is None:
            raise ValueError("trajectory has no step to interpolate")
        yv = self.dense(tq)
        return self._w_expr(tq, yv[0], yv[1])


def _trajectory(params: ModelParams, mu: float, c_scale: float, t0: float, y0,
                t_end: float, tol: Tolerances, blow_cap: float, h0=None) -> Trajectory:
    t, y, dense, term = drive_ode(chart_rhs(params, mu), t0, y0, t_end, tol, blow_cap, h0=h0)
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
                       params: ModelParams, tol: Tolerances = Tolerances(), h0=None) -> Trajectory:
    """Integrate the exact rescaled equation in x; valid while rho < 1, with
    atol in units of u = c U: (U, U') are held to atol/c for c > 1."""
    if c <= 0.0:
        raise ValueError("rescaled chart needs c > 0")
    mu = float(c) ** (-(params.p - 1))
    x_cone = (1.0 - 1e-12) / math.sqrt(mu)
    if not (0.0 < x_start < x_cone and 0.0 < x_end < x_cone):
        raise ValueError("x span must stay inside the cone image")
    return _trajectory(params, mu, float(c), x_start, (U, dU), x_end,
                       Tolerances(tol.rtol, tol.atol / max(float(c), 1.0)), 1.0e3, h0)


def integrate_limit(x_start: float, U: float, dU: float, x_end: float,
                    params: ModelParams, tol: Tolerances = Tolerances()) -> Trajectory:
    """Integrate the infinite-amplitude limit equation (the mu = 0 chart).

    The trajectory is stored with unit scale, so the deviation helpers
    compare against the limit equation's own singular solution.  Unused by the
    package; a test pins the kept runs' V0 to it, perfbench/tracing.py spans it."""
    if x_start <= 0.0 or x_end <= 0.0:
        raise ValueError("limit chart needs x > 0")
    return _trajectory(params, 0.0, 1.0, x_start, (U, dU), x_end, tol, 1.0e3)


_LIMIT_RUNS: dict = {}   # (params, _limit_tol, K) -> (the kept run, its reach, why)


def _limit_tol(params: ModelParams, tol: Tolerances) -> Tolerances:
    """rtol, never looser than the default (steps sized on V0 at rtol 1e-7 let
    the stiff -2k(2k+1)/x^2 modes of the last V_k grow; at K = 6, V_6 by 16 at
    x = 2.16), and an atol that holds every shot's atol in units of u where it
    reads V0: the outer run of amplitude c holds (U, U') to atol/c, and c is at
    most 2^{1074/(p-1)}, where mu = c^{-(p-1)} leaves the floats.  An atol
    whose scaled value underflows to 0 is a ValueError naming p's floor."""
    scale = 2.0 ** (-1074 / (params.p - 1))
    if tol.atol * scale == 0.0:
        raise ValueError(f"atol {tol.atol!r} is under p = {params.p}'s floor ~"
                         f"{math.ulp(0.0) / scale / 2:.3g}, where the limit run's atol underflows")
    return Tolerances(tol.capped().rtol, tol.atol * scale)


def _limit_run(x: float, params: ModelParams, tol: Tolerances, subject: str,
               K: int = CENTER_K) -> Trajectory:
    """The kept run of (V_0, V_0', ..., V_K, V_K') from odecore.mu_series_launch
    for a center shot (K = CENTER_K) or fit (K = 0) that reads it up to x,
    steps controlled on V_0 at _limit_tol (so V_0 is the same for every K),
    with drive_ode's dense output like every run and its components held as
    arrays of doubles.  The first run ends at LIMIT_REACH; one whose last full
    step ends before x is replaced by one to max(x^2, LIMIT_REACH), at most
    LIMIT_FAR.  Only the last step is cut to a run's end, so what is read does
    not depend on the order of the calls.  Past the run's reach, its last full
    step or last node before U0 turns nonpositive (the true U0 never does), x
    raises a ValueError naming subject."""
    tol = _limit_tol(params, tol)
    run, reach, why = _LIMIT_RUNS.get((params, tol, K), (None, 0.0, ""))
    while run is None or (run.t[-2] < x and run.t[-1] < LIMIT_FAR
                          and run.termination == TERM_REACHED_END):
        x0, V = mu_series_launch(params, tol.rtol, tol.atol)
        end = min(max(x * x, LIMIT_REACH), LIMIT_FAR) if run else LIMIT_REACH
        rhs = series_rhs(params, K)
        t, y, _, term = drive_ode(rhs, x0, V[:2 * K + 2], end, tol, 1.0e3)
        y = tuple(array("d", c) for c in y)   # a quarter of the memory of float objects
        run = Trajectory(params, 1.0, t, y, _DenseOutput(rhs, t, y), term)
        bad = next((i for i, u in enumerate(run.y[0][:-1]) if u <= 0.0), None)
        reach = run.t[-2] if bad is None else run.t[bad - 1]
        why = f"full step ({run.termination})" if bad is None else "positive node"
        _LIMIT_RUNS[params, tol, K] = run, reach, why
    if x > reach:
        raise ValueError(f"{subject} needs the limit solution at x = {x:.3g}, "
                         f"past its last {why} at {reach:.3g}")
    return run


HEAD_FRACTION = 0.5       # largest E/m below a row's cut: its phase is within pi/6 of V0's
_HEAD_TABLES: dict = {}   # (params, _limit_tol, K) -> (a kept run, its _HeadTable)


class _HeadTable:
    """V0's deviation w0 = x^alpha V0/b_inf - 1 on a kept run's nodes 0..n-1: its
    unwrapped phase theta and zero count there, sign and phase counts agreeing on
    every node; m, the running minimum of its phase radius R0 = |(w0, x w0')|; and
    M[k-1], k = 1..K, the running maximum of x^alpha |(V_k, x V_k' + (2k+alpha) V_k)|
    / b_inf.  So a head's (w, rho w') lies within E = sum_k (mu x^2)^k M_k of
    (w0, x w0') on every node up to x.  A plain class: no dataclass to build at
    import."""

    __slots__ = ("theta", "zeros", "w", "m", "M")

    def __init__(self, K: int):
        self.theta, self.zeros, self.w, self.m = array("d"), array("q"), array("d"), array("d")
        self.M = tuple(array("d") for _ in range(K))


def _head_table(run: Trajectory) -> _HeadTable:
    """The _HeadTable of a kept run, walked on floats as diagnostics walks a phase.
    It ends at the first node where the sign and phase counts disagree, where R0 <
    R_DEGENERATE, or where a phase refinement stalls."""
    from . import diagnostics as diag   # which imports this module
    al, bi, K = run.params.alpha, run.params.b_inf, len(run.y) // 2 - 1
    t, w, rw = run.w_samples()
    table = _HeadTable(K)
    theta = math.atan2(rw[0], w[0])
    level = math.floor((theta - 0.5 * math.pi) / math.pi)
    pts, n_phase, n_sign, sign, r_min, maxima = [], 0, 0, None, math.inf, [0.0] * K
    for j, x in enumerate(t):
        try:   # node 0 is pushed at its own phase, as the walk starts
            theta = diag._refine(pts, run, 1.0, t[max(j - 1, 0)], theta, x, w[j], rw[j])
        except diag.DegenerateTrajectoryError:
            break
        for q in pts:   # the node and the points its refinement pushed
            new = math.floor((q[3] - 0.5 * math.pi) / math.pi)
            n_phase, level = n_phase + abs(new - level), new
        pts.clear()
        if w[j]:
            n_sign += sign is not None and (w[j] > 0.0) != sign
            sign = w[j] > 0.0
        if n_phase != n_sign:
            break
        r_min, xa = min(r_min, math.hypot(w[j], rw[j])), x ** al / bi
        for k in range(1, K + 1):
            v = run.y[2 * k][j]
            maxima[k - 1] = max(maxima[k - 1], xa * math.hypot(v, x * run.y[2 * k + 1][j]
                                                                + (2 * k + al) * v))
            table.M[k - 1].append(maxima[k - 1])
        table.theta.append(theta)
        table.zeros.append(n_sign)
        table.w.append(w[j])
        table.m.append(r_min)
    return table


@functools.cache
def _sum_kernel(K: int):
    """(point, nodes): u/c = sum_k s^k V_k and its x derivative
    sum_k s^k (V_k' + 2k V_k/x), s = mu x^2, as straight-line Horner sums
    generated on first use, at one x (floats or arrays) and node by node."""
    v = ", ".join(f"v{k}, d{k}" for k in range(K + 1))
    sums = ("v0" + "".join(f" + s * (v{k}" for k in range(1, K + 1)) + ")" * K + ", d0"
            + "".join(f" + s * (d{k} + {2 * k}.0 * v{k} / x" for k in range(1, K + 1)) + ")" * K)
    ns = {}
    exec(compile(f"def point(mu, x, {v}):\n    s = mu * x * x\n    return {sums}\n\n"
                 f"def nodes(mu, t, y):\n    U, dU = [], []\n    for x, {v} in zip(t, *y):\n"
                 f"        s = mu * x * x\n        u, du = {sums}\n        U.append(u)\n"
                 "        dU.append(du)\n    return U, dU", f"<series in rho^2, K = {K}>", "exec"),
         ns)
    return ns["point"], ns["nodes"]


class _CenterShot(Trajectory):
    """A center shot in the chart of c: below the outer run's start, the kept
    run's node k, sum_k (mu x^2)^k V_k on the kept run's first k nodes and,
    pointwise, of its dense output (x^{2k} V_k is no polynomial on a step);
    then the outer run.  It is its own dense output.  Newton's trials read only
    the endpoint, the outer run's; a nodal count combines only the head's nodes
    from its cut (nodal_start), and the whole head is combined when t or y is
    first read."""

    def __init__(self, c: float, run: Trajectory, key: tuple, mu: float, k: int,
                 outer: Trajectory):
        self.__dict__.update(params=outer.params, c_scale=c, termination=outer.termination,
                             _run=run, _key=key, _mu=mu, _k=k, _outer=outer)

    dense = property(lambda self: self)
    __repr__ = object.__repr__

    @functools.cached_property
    def t(self) -> list:
        return self._run.t[:self._k] + self._outer.t

    @functools.cached_property
    def y(self) -> tuple:
        return tuple(a + b for a, b in zip(self._head(0), self._outer.y))

    def _head(self, start: int) -> tuple[list, list]:
        """(U, U') on the head's nodes start..k-1."""
        return _sum_kernel(CENTER_K)[1](self._mu, self._run.t[start:self._k],
                                        [c[start:self._k] for c in self._run.y])

    def w_samples(self, start: int = 0):
        if not start:
            return super().w_samples()
        U, dU = self._head(start)
        return self._w_lists(self._run.t[start:self._k] + self._outer.t,
                             U + self._outer.y[0], dU + self._outer.y[1])

    def nodal_start(self) -> tuple[int, float | None, int]:
        """The cut: the last head node x where E <= HEAD_FRACTION m and m - E >=
        R_DEGENERATE (_HeadTable; both fail from some node on), moved down to a
        node where |w0| > E and the head's own w has w0's sign.  Below it the head
        winds as V0 does, so the table's phase and count stand for the walk there;
        (0, None, 0), the whole walk, if the cut is the first node."""
        from .diagnostics import R_DEGENERATE   # which imports this module
        run, mu = self._run, self._mu
        kept, table = _HEAD_TABLES.get(self._key, (None, None))
        if kept is not run:
            table = _head_table(run)
            _HEAD_TABLES[self._key] = run, table

        def bound(j):   # E at node j, by Horner's rule in s = mu x^2
            s, e = mu * run.t[j] * run.t[j], 0.0
            for Mk in reversed(table.M):
                e = (e + Mk[j]) * s
            return e

        lo, hi = 0, min(self._k, len(table.m))   # nodes below lo pass, from hi on fail
        while lo < hi:
            j = (lo + hi) // 2
            e, m = bound(j), table.m[j]
            lo, hi = (j + 1, hi) if e <= HEAD_FRACTION * m and m - e >= R_DEGENERATE else (lo, j)
        al, bi, point = self.params.alpha, self.params.b_inf, _sum_kernel(CENTER_K)[0]
        for i in range(lo - 1, 0, -1):
            w0 = table.w[i]
            if abs(w0) > bound(i):
                x = run.t[i]
                w = x ** al * point(mu, x, *(c[i] for c in run.y))[0] / bi - 1.0
                if w and (w > 0.0) == (w0 > 0.0):
                    return i, table.theta[i], table.zeros[i]
        return 0, None, 0

    def endpoint(self) -> ProfileState:
        return self._outer.endpoint()

    def __call__(self, tq):
        x_s, point, outer = self._outer.t[0], _sum_kernel(CENTER_K)[0], self._outer.dense
        if isinstance(tq, float):
            return outer(tq) if tq >= x_s else point(self._mu, tq, *self._run.dense(tq))
        import numpy as np
        q = np.ravel(tq)
        head, y = q < x_s, np.empty((2, len(q)))
        y[:, ~head] = outer(q[~head])
        y[:, head] = point(self._mu, q[head], *self._run.dense(q[head]))
        return y[:, 0] if np.ndim(tq) == 0 else y


def center_trajectory(c: float, rho_end: float, params: ModelParams,
                      tol: Tolerances = Tolerances()) -> Trajectory:
    """The center shot u(0) = c out to rho_end: u/c = sum_{k<=K} rho^{2k} V_k(x),
    K = CENTER_K, up to the kept run's last node x_k <= x_s = rho_s c^{(p-1)/2},
    read off its nodes in the chart of c, then the exact rescaled equation from
    x_k, started from node k's own values and first trying the run's step
    from there; or, with x_s below the kept run's launch, read off the series
    at x_s and continued in the plain chart.
    rho_s = rtol^{1/(2K+2)}, where the first term left out, ~rho^{2K+2}, is
    ~rtol, moves in to rho_end/2 but not below rtol^{1/4}."""
    if c <= 0.0:
        raise ValueError("center launches need c > 0")
    if not 0.0 < rho_end < 1.0:
        raise ValueError("rho_end must lie strictly inside the cone")
    try:
        mu = float(c) ** (-(params.p - 1))
    except OverflowError:      # a tiny c: mu past the floats, as a huge c's underflows
        mu = 0.0
    if mu == 0.0:
        raise ValueError(f"center amplitude c={c:g} is beyond the float range of the "
                         "rescaled chart")
    stretch = float(c) ** ((params.p - 1) / 2.0)
    rho_s = min(tol.rtol ** (1.0 / (2 * CENTER_K + 2)), max(tol.rtol ** 0.25, 0.5 * rho_end))
    if not rho_end * stretch > rho_s * stretch:
        raise ValueError(f"rho_end {rho_end:g} must exceed the center launch radius {rho_s:g}")
    x_s, point, kept = rho_s * stretch, _sum_kernel(CENTER_K)[0], _limit_tol(params, tol)
    if x_s <= mu_series_launch(params, kept.rtol, kept.atol)[0]:
        U, dU = point(mu, x_s, *mu_series_values(x_s, params))
        return integrate(ProfileState(rho_s, c * U, c * stretch * dU), rho_end, params, tol)
    run = _limit_run(x_s, params, tol, f"center amplitude c={c:g}")
    # the last node at or below x_s whose step is a full one, not the run's cut last
    k = min(bisect.bisect_right(run.t, x_s), len(run.t) - 2) - 1
    U, dU = point(mu, run.t[k], *(v[k] for v in run.y))
    outer = integrate_rescaled(c, run.t[k], U, dU, rho_end * stretch, params, tol,
                               run.t[k + 1] - run.t[k])   # the kept run's step from there
    return _CenterShot(float(c), run, (params, kept, CENTER_K), mu, k, outer)


def lightcone_trajectory(b: float, rho_end: float, params: ModelParams,
                         tol: Tolerances = Tolerances()) -> Trajectory:
    """Series launch on the cone followed by integration to rho_end (either side)."""
    if b <= 0.0:
        raise ValueError("light-cone launches need b > 0")
    if rho_end <= 0.0 or rho_end == 1.0:
        raise ValueError("rho_end must be positive and off the cone")
    side = -1 if rho_end < 1.0 else +1
    rho0, u, du, _ = lightcone_launch(b, params, tol.rtol, tol.atol, side=side)
    if rho_end == rho0:
        raise ValueError(f"rho_end {rho_end:g} is the cone launch radius")
    return integrate(ProfileState(rho0, u, du), rho_end, params, tol)
