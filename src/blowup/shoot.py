"""Two-sided shooting for the countable family of regular profiles.

A profile regular on the whole closed cone is determined by two one-parameter
families: center launches u(0) = c and light-cone launches u(1) = b.  Both are
integrated to a common matching radius rho_mid, giving two curves in the
(u, u') plane there,

    C0: c -> (u, u')(rho_mid)      spirals (as c -> inf) around the image
                                   P of the singular solution,
    C1: b -> (u, u')(rho_mid)      passes through P exactly at b = b_inf,

and profiles are transversal intersections C0(c_n) = C1(b_n).  Because C0
winds around P once per factor ratio_c in c, the intersections form the
geometric sequence the solver reproduces.

Refinement is a damped two-variable Newton iteration on the scaled
midpoint mismatch

    F(c, b) = ( u_C0 - u_C1,  (u'_C0 - u'_C1) / |u_singular'(rho_mid)| )

whose Jacobian's ln c column is a forward difference and b column exact:
C1 is read off one kept Chebyshev interpolant per (p, cone tolerances,
rho_mid), and the accepted pair's cone piece is integrated at assembly,
where its real gap must pass.  Every entry point builds the family by one
rule: starting at the exact constant solution (n, c, b) = (0, b0, b0), row
n+1 is seeded by extrapolating the chain's own quotients c_{k+1}/c_k and
(b_{k+1}-b_inf)/(b_inf-b_k) towards their limits ratio_c and ratio_b, and
that seed gets exactly one Newton solve.  Center shots start from a series
in rho^2 whose coefficients one kept run shares among all of them, and
integrate only their outer part in the exact rescaled chart, which keeps
the curve data well conditioned up to its reach.

Solutions are classified by their nodal index: the number of zeros of
w = u/u_singular - 1, counted by sign changes on the integration nodes and
cross-checked against the winding of the phase (w, rho w'); profile n has
exactly n + 1 zeros.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .model import ModelParams, du_singular
from .integrate import (
    TERM_REACHED_END,
    Tolerances,
    Trajectory,
    center_trajectory,
    lightcone_trajectory,
)
from . import diagnostics as _diag

__all__ = [
    "MergedTrajectory",
    "ShootingResult",
    "SpectrumResult",
    "ShootingError",
    "SearchError",
    "find_solution",
    "iter_rows",
    "nodal_index",
    "spectrum",
    "constant_solution_result",
    "sample_curves",
]

MISMATCH_ACCEPT = 1e-9     # scaled norm below which a root is accepted
NEWTON_MAX_ITER = 30       # Newton iterations before a root search gives up
CURVE_M = (16, 128)        # first and last Chebyshev degree M of the cone curve
CURVE_TAIL = 4.0           # cone rtols its last three coefficients must be below
_CONE_CURVES: dict = {}    # (params, cone tolerances, rho_mid) -> coefficients, or None


class ShootingError(RuntimeError):
    pass


class SearchError(ShootingError):
    """Refinement failed or refined to the wrong row.

    trace holds the (c, |F|) of every Newton iterate, F read off the cone
    curve, when refinement stalls, and is empty when the refined root's real
    shots miss or have the wrong zero count.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass(eq=False)
class MergedTrajectory:
    """Center piece on [rho0, rho_mid] glued to the light-cone piece on [rho_mid, ~1];
    its params are the center piece's."""

    center: Trajectory
    lightcone: Trajectory
    rho_mid: float

    @property
    def pieces(self) -> tuple[Trajectory, Trajectory]:
        return (self.center, self.lightcone)

    @property
    def params(self) -> ModelParams:
        return self.center.params

    def profile_samples(self):
        """(rho, u, du) on the center nodes, then on the cone nodes past rho_mid:
        one sample per radius, as nodal_index and eval split the pieces."""
        import numpy as np
        rc, uc, dc = self.center.profile_samples()
        rl, ul, dl = self.lightcone.profile_samples()
        if rl[0] > rl[-1]:  # integrated downward from the cone
            rl, ul, dl = rl[::-1], ul[::-1], dl[::-1]
        keep = rl > self.rho_mid
        return (np.concatenate([rc, rl[keep]]),
                np.concatenate([uc, ul[keep]]),
                np.concatenate([dc, dl[keep]]))

    def eval(self, rho):
        import numpy as np
        rho = np.asarray(rho, dtype=float)
        u = np.empty_like(rho)
        du = np.empty_like(rho)
        lo = rho <= self.rho_mid
        if lo.any():
            u[lo], du[lo] = self.center.eval(rho[lo])
        if (~lo).any():
            u[~lo], du[~lo] = self.lightcone.eval(rho[~lo])
        return u, du

    def rho_span(self):
        return (self.center.rho_span()[0], self.lightcone.rho_span()[1])


@dataclass(eq=False)
class ShootingResult:
    """One row of the profile family; its matching radius is trajectory.rho_mid."""

    n: int
    c: float
    b: float
    mismatch: float
    zeros: int
    trajectory: MergedTrajectory


@dataclass(eq=False)
class SpectrumResult:
    rows: list[ShootingResult]
    params: ModelParams

    def delta_c(self, n: int) -> float:
        """c_{n+1}/c_n; defined while row n+1 exists."""
        return self.rows[n].c / self.rows[n - 1].c

    def delta_b(self, n: int) -> float:
        """(b_{n+1}-b_inf)/(b_inf-b_n)."""
        bi = self.params.b_inf
        return (self.rows[n].b - bi) / (bi - self.rows[n - 1].b)


# -- one-sided shots ---------------------------------------------------------


def _shot(side: str, param: float, rho_mid: float, params: ModelParams,
          tol: Tolerances) -> Trajectory:
    """Center shot u(0) = param or cone shot u(1) = param, integrated to rho_mid."""
    if not 0.0 < rho_mid < 1.0:
        raise ValueError("rho_mid must lie strictly inside the cone")
    if side == "center":
        traj = center_trajectory(param, rho_mid, params, tol)
    else:
        traj = lightcone_trajectory(param, rho_mid, params, tol)
    if traj.termination != TERM_REACHED_END:
        raise ShootingError(
            f"{side} shot from {param:g} stopped early ({traj.termination})")
    return traj


class _ImageCache:
    """Center shots u(0) = c to rho_mid, memoized for one Newton solve and read
    back by _assemble, dense output and all; and C1 at tol.capped(), as the kept
    center run steps, read off the kept cone curve, or direct shots if None."""

    def __init__(self, params: ModelParams, rho_mid: float, tol: Tolerances):
        self.params = params
        self.rho_mid = rho_mid
        self.tol, self.cone_tol = tol, tol.capped()
        self.dscale = abs(du_singular(params, rho_mid))
        self.span = (params.b_inf - 1.1 * (params.b0 - params.b_inf), params.b0)
        self._memo: dict[tuple[str, float], Trajectory] = {}

    def shot(self, side: str, param: float) -> Trajectory:
        key = (side, param)
        if key not in self._memo:
            tol = self.tol if side == "center" else self.cone_tol
            self._memo[key] = _shot(side, param, self.rho_mid, self.params, tol)
        return self._memo[key]

    @functools.cached_property
    def curve(self):
        """Chebyshev coefficients in b on span of C1's (u, u'/dscale) and of their
        b-derivatives, from cone shots at M + 1 Lobatto nodes; M doubles from 16,
        reusing every shot, while one of the last three exceeds CURVE_TAIL cone
        rtols.  Kept per (params, cone_tol, rho_mid); None past CURVE_M."""
        key = (self.params, self.cone_tol, self.rho_mid)
        (lo, hi), m = self.span, CURVE_M[0]
        while key not in _CONE_CURVES:
            # node j of M is node 2j of 2M, the same b, so self.shot reuses its shot
            cos = [math.cos(math.pi * i / m) for i in range(2 * m)]
            f = [self.shot("lightcone", lo + 0.5 * (hi - lo) * (1.0 + x)).endpoint()
                 for x in cos[:m + 1]]
            # a DCT-I: a_k = (2/M) h_k sum_j h_j f_j cos(pi j k/M), h halving j, k = 0, M
            h = [0.5, *[1.0] * (m - 1), 0.5]
            series = [[2.0 / m * h[k] * sum(h[j] * v * cos[j * k % (2 * m)]
                                            for j, v in enumerate(g)) for k in range(m + 1)]
                      for g in ([st.u for st in f], [st.du / self.dscale for st in f])]
            if max(abs(v) for a in series for v in a[-3:]) <= CURVE_TAIL * self.cone_tol.rtol:
                # T_j' = 2j (T_{j-1} + T_{j-3} + ...), the T_0 term halved
                _CONE_CURVES[key] = series + [
                    [sum(4.0 * j * a[j] for j in range(k + 1, m + 1, 2)) / (hi - lo)
                     / (1 + (k == 0)) for k in range(m)] for a in series]
            elif m == CURVE_M[1]:
                _CONE_CURVES[key] = None
            m *= 2
        return _CONE_CURVES[key]

    def cone(self, b: float, d: int = 0) -> tuple[float, float]:
        """(u, u'/dscale)(rho_mid) on C1 at b for d = 0, their b-derivatives for
        d = 1, by a 1e-9 forward difference of direct shots if curve is None."""
        if self.curve is None:
            st = self.shot("lightcone", b).endpoint()
            v = (st.u, st.du / self.dscale)
            return v if d == 0 else tuple((w - x) / 1e-9 for w, x in zip(self.cone(b + 1e-9), v))
        x = (2.0 * b - sum(self.span)) / (self.span[1] - self.span[0])
        out = []
        for a in self.curve[2 * d:2 * d + 2]:   # Clenshaw's sum of a_k T_k(x)
            b1 = b2 = 0.0
            for ak in a[:0:-1]:
                b1, b2 = ak + 2.0 * x * b1 - b2, b1
            out.append(a[0] + x * b1 - b2)
        return tuple(out)

    def F(self, c: float, b: float) -> tuple[float, float]:
        """Scaled two-component gap between the center image and C1."""
        ic = self.shot("center", c).endpoint()
        u, du = self.cone(b)
        return ic.u - u, ic.du / self.dscale - du

    def gap(self, c: float, b: float) -> tuple[float, float]:
        """F between the real shots: the center shot and a cone shot integrated at b."""
        ic, il = self.shot("center", c).endpoint(), self.shot("lightcone", b).endpoint()
        return ic.u - il.u, (ic.du - il.du) / self.dscale


# -- Newton refinement -------------------------------------------------------


def _newton_refine(c0, b0, shots: _ImageCache):
    """Damped Newton on F(ln c, b), b kept in shots.span; returns (c, b) or
    raises SearchError."""
    # a loose rtol may stop Newton early, but never short of what is accepted
    target = min(MISMATCH_ACCEPT, max(1e-11, 20.0 * shots.tol.rtol))
    s = math.log(c0)
    b = b0
    F = shots.F(math.exp(s), b)
    norm = math.hypot(*F)
    trace = [(c0, norm)]
    for _ in range(NEWTON_MAX_ITER):
        if norm < target:
            break
        c = math.exp(s)
        # J: dF/d ln c by a forward difference, its step growing with c as |dF/d ln c| decays
        # like c^{-(p-5)/4}, and dF/db = -dC1/db off the curve; J^{-1} F by Cramer's rule
        ds = 1e-7 * max(1.0, (c / 100.0) ** 0.5)
        j00, j10 = ((x - f) / ds for x, f in zip(shots.F(math.exp(s + ds), b), F))
        j01, j11 = (-v for v in shots.cone(b, 1))
        det = j00 * j11 - j01 * j10
        if det == 0.0:
            raise SearchError("singular mismatch Jacobian", trace)
        step = ((j11 * F[0] - j01 * F[1]) / det, (j00 * F[1] - j10 * F[0]) / det)
        lam = 1.0
        improved = False
        while lam >= 1.0 / 512.0:
            s_t = s - lam * step[0]
            b_t = b - lam * step[1]
            if shots.span[0] <= b_t <= shots.span[1] and abs(s_t - s) < 2.0:
                Ft = shots.F(math.exp(s_t), b_t)
                nt = math.hypot(*Ft)
                if nt < norm:
                    s, b, F, norm = s_t, b_t, Ft, nt
                    improved = True
                    break
            lam *= 0.5
        trace.append((math.exp(s), norm))
        if not improved:
            break
    if norm > MISMATCH_ACCEPT:
        raise SearchError(
            f"Newton stalled at scaled mismatch {norm:.3e} from seed c={c0:g}", trace)
    return math.exp(s), b


# -- nodal classification ----------------------------------------------------


def nodal_index(traj: MergedTrajectory) -> int:
    """Number of zeros of w: its sign changes on the center nodes, then on the
    cone nodes past rho_mid, so a zero at the junction counts once; no zero is
    located.  Cross-checked by phase winding."""
    (_, wc, _, _), (t, wl, _, k) = chains = [_diag._piece_chain(piece) for piece in traj.pieces]
    past = [w for ti, w in zip(t, wl) if ti * k > traj.rho_mid]
    s = [w > 0.0 for w in (*wc, *past) if w]   # the signs of the nonzero values
    n_sign = sum(a != b for a, b in zip(s, s[1:]))
    n_phase = _diag.phase_zero_count(traj, chains)
    if n_sign != n_phase:
        raise ShootingError(
            f"zero counts disagree (sign changes {n_sign}, phase winding {n_phase}); "
            "integration tolerance is likely too loose for this trajectory")
    return n_sign


# -- assembly ----------------------------------------------------------------


def _assemble(n_label, c, b, shots: _ImageCache) -> ShootingResult:
    """Row n_label from the real shots of (c, b), the center one read back from
    `shots`: their gap is its mismatch, and the nodal count builds their dense output."""
    merged = MergedTrajectory(center=shots.shot("center", c),
                              lightcone=shots.shot("lightcone", b),
                              rho_mid=shots.rho_mid)
    norm = math.hypot(*shots.gap(c, b))
    if norm > MISMATCH_ACCEPT:
        raise SearchError(f"refined root (c={c:.6g}, b={b:.6g}) has shot mismatch {norm:.3e}")
    zeros = nodal_index(merged)
    if zeros != n_label + 1:
        raise SearchError(
            f"refined root (c={c:.6g}, b={b:.6g}) has {zeros} zeros, "
            f"wanted {n_label + 1}")
    return ShootingResult(n=zeros - 1, c=c, b=b, mismatch=norm, zeros=zeros, trajectory=merged)


def constant_solution_result(params: ModelParams, tol: Tolerances = Tolerances(),
                             rho_mid: float = 0.5) -> ShootingResult:
    """The n = 0 member, u = b0, pushed through the standard pipeline."""
    return _assemble(0, params.b0, params.b0, _ImageCache(params, rho_mid, tol))


def _next_row(history, params, tol, rho_mid) -> ShootingResult:
    """Row n+1 from the chain's rows 0..n, history = [(c_0, b_0), ..., (c_n, b_n)]:
    one Newton solve from the seed its own quotients extrapolate.

    The deviations e_k = (c_{k+1}/c_k, (b_{k+1}-b_inf)/(b_inf-b_k)) - (ratio_c,
    ratio_b) shrink by q = -ratio_b and q^2 per row, so e_n is predicted as
    0 at n = 0, q e_0 at n = 1, and q(1+q) e_{n-1} - q^3 e_{n-2} above, which
    is exact for both modes.
    """
    q, bi = -params.ratio_b, params.b_inf
    tail = history[-3:]
    e = [(c1 / c0 - params.ratio_c, (b1 - bi) / (bi - b0) - params.ratio_b)
         for (c0, b0), (c1, b1) in zip(tail, tail[1:])]
    if len(e) == 2:
        e_c, e_b = (q * (1 + q) * e1 - q ** 3 * e0 for e0, e1 in zip(*e))
    else:
        e_c, e_b = (q * e0 for e0 in e[0]) if e else (0.0, 0.0)
    c, b = history[-1]
    shots = _ImageCache(params, rho_mid, tol)
    c, b = _newton_refine(c * (params.ratio_c + e_c),
                          bi - (params.ratio_b + e_b) * (b - bi), shots)
    return _assemble(len(history), c, b, shots)


def iter_rows(n_max: int, params: ModelParams, tol: Tolerances = Tolerances(),
              rho_mid: float = 0.5):
    """Rows n = 1..n_max: the one chain loop, from the exact constant solution
    (n, c, b) = (0, b0, b0), which costs no integration; each row is seeded
    from the (c, b) of the rows below it (see _next_row).

    A generator, so a caller keeps the rows already yielded when a deeper
    one raises.  n_max < 1 raises ValueError at the first row request.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    history = [(params.b0, params.b0)]
    for _ in range(n_max):
        row = _next_row(history, params, tol, rho_mid)
        history.append((row.c, row.b))
        yield row


def find_solution(n: int, params: ModelParams, tol: Tolerances = Tolerances(),
                  rho_mid: float = 0.5) -> ShootingResult:
    """Profile n >= 1 (n + 1 zeros): the last row of iter_rows(n)."""
    if n < 1:
        raise ValueError("find_solution labels start at n = 1; n = 0 is the "
                         "constant solution (constant_solution_result)")
    for row in iter_rows(n, params, tol, rho_mid):
        pass
    return row


def spectrum(n_max: int, params: ModelParams, tol: Tolerances = Tolerances(),
             rho_mid: float = 0.5) -> SpectrumResult:
    """Rows n = 1..n_max of the family (see iter_rows)."""
    return SpectrumResult(rows=list(iter_rows(n_max, params, tol, rho_mid)), params=params)


def _linspace(start: float, stop: float, num: int) -> list:
    """numpy's linspace on floats: start + i step, the last point set to stop."""
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [stop]


def sample_curves(params: ModelParams, tol: Tolerances, rho_mid: float,
                  c_lo: float, c_hi: float, n_c: int,
                  b_lo: float, b_hi: float, n_b: int):
    """Rows (side, param, u_mid, du_mid) of C0 over a log c grid, then of C1
    over a b grid that always includes b_inf, whose image is the spiral limit
    point.  No curve keeps its trajectories."""
    cs = [math.exp(v) for v in _linspace(math.log(c_lo), math.log(c_hi), n_c)]
    bs = sorted({*_linspace(b_lo, b_hi, n_b), params.b_inf})
    rows = []
    for side, grid in (("center", cs), ("lightcone", bs)):
        for param in grid:
            st = _shot(side, param, rho_mid, params, tol).endpoint()
            rows.append((side, param, st.u, st.du))
    return rows
