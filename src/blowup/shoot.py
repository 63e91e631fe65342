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

with a forward-difference Jacobian in (ln c, b).  Every entry point builds
the family by one rule: starting at the exact constant solution
(n, c, b) = (0, b0, b0), row n+1 is seeded by extrapolating the chain's
own quotients c_{k+1}/c_k and (b_{k+1}-b_inf)/(b_inf-b_k) towards their
limits ratio_c and ratio_b, and that seed gets exactly one Newton solve.
Center launches with large c integrate in the exact rescaled chart, which
keeps the curve data well conditioned for arbitrarily large c.

Solutions are classified by their nodal index: the number of zeros of
w = u/u_singular - 1, counted by sign changes on the dense trajectory and
cross-checked against the winding of the phase (w, rho w'); profile n has
exactly n + 1 zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, du_singular
from .integrate import (
    TERM_REACHED_END,
    Tolerances,
    Trajectory,
    center_trajectory,
    lightcone_trajectory,
)
from . import diagnostics as _diag
from .diagnostics import w_zero_locations

__all__ = [
    "MidpointImage",
    "MergedTrajectory",
    "ShootingResult",
    "SpectrumResult",
    "ShootingError",
    "SearchError",
    "center_image",
    "lightcone_image",
    "mismatch",
    "find_solution",
    "iter_rows",
    "nodal_index",
    "w_zero_locations",
    "spectrum",
    "constant_solution_result",
    "sample_curves",
]

MISMATCH_ACCEPT = 1e-9     # scaled norm below which a root is accepted
NEWTON_MAX_ITER = 30       # Newton iterations before a root search gives up


class ShootingError(RuntimeError):
    pass


class SearchError(ShootingError):
    """Refinement failed or refined to the wrong row.

    trace holds the (c, |F|) of every Newton iterate when refinement stalls,
    and is empty when the refined root has the wrong zero count.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass(frozen=True)
class MidpointImage:
    """(u, du) of one shot at the matching radius."""

    side: str          # "center" or "lightcone"
    param: float       # c or b
    rho_mid: float
    u: float
    du: float


@dataclass(eq=False)
class MergedTrajectory:
    """Center piece on [rho0, rho_mid] glued to the light-cone piece on [rho_mid, ~1]."""

    center: Trajectory
    lightcone: Trajectory
    rho_mid: float

    @property
    def pieces(self) -> tuple[Trajectory, Trajectory]:
        return (self.center, self.lightcone)

    def profile_samples(self):
        rc, uc, dc = self.center.profile_samples()
        rl, ul, dl = self.lightcone.profile_samples()
        if rl[0] > rl[-1]:  # integrated downward from the cone
            rl, ul, dl = rl[::-1], ul[::-1], dl[::-1]
        keep = rl > rc[-1]
        return (np.concatenate([rc, rl[keep]]),
                np.concatenate([uc, ul[keep]]),
                np.concatenate([dc, dl[keep]]))

    def eval(self, rho):
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
    """One row of the profile family."""

    n: int
    c: float
    b: float
    mismatch: float
    zeros: int
    rho_mid: float
    trajectory: MergedTrajectory


@dataclass(eq=False)
class SpectrumResult:
    rows: list[ShootingResult]
    params: ModelParams
    rho_mid: float

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
    """Memoized center shots u(0) = c and cone shots u(1) = b to rho_mid.

    The one place a shot is integrated.  An instance lives for one Newton
    solve, so _assemble reads the accepted pair back from it, dense output
    and all, instead of integrating it again.
    """

    def __init__(self, params: ModelParams, rho_mid: float, tol: Tolerances):
        self.params = params
        self.rho_mid = rho_mid
        self.tol = tol
        self.dscale = abs(du_singular(params, rho_mid))
        self._memo: dict[tuple[str, float], Trajectory] = {}

    def shot(self, side: str, param: float) -> Trajectory:
        key = (side, param)
        if key not in self._memo:
            self._memo[key] = _shot(side, param, self.rho_mid, self.params, self.tol)
        return self._memo[key]

    def __call__(self, side: str, param: float) -> MidpointImage:
        st = self.shot(side, param).endpoint()
        return MidpointImage(side, param, self.rho_mid, st.u, st.du)

    def F(self, c: float, b: float) -> np.ndarray:
        """Scaled two-component gap between the center and cone images."""
        ic = self("center", c)
        il = self("lightcone", b)
        return np.array([ic.u - il.u, (ic.du - il.du) / self.dscale])


def center_image(c: float, rho_mid: float, params: ModelParams,
                 tol: Tolerances = Tolerances()) -> MidpointImage:
    """Image of the center launch u(0)=c at the matching radius."""
    return _ImageCache(params, rho_mid, tol)("center", c)


def lightcone_image(b: float, rho_mid: float, params: ModelParams,
                    tol: Tolerances = Tolerances()) -> MidpointImage:
    """Image of the light-cone launch u(1)=b at the matching radius."""
    return _ImageCache(params, rho_mid, tol)("lightcone", b)


def mismatch(c: float, b: float, rho_mid: float, params: ModelParams,
             tol: Tolerances = Tolerances()) -> np.ndarray:
    """Scaled two-component gap between the center and light-cone images."""
    return _ImageCache(params, rho_mid, tol).F(c, b)


# -- Newton refinement -------------------------------------------------------


def _newton_refine(c0, b0, shots: _ImageCache):
    """Damped Newton on F(ln c, b); returns (c, b, |F|) or raises SearchError."""
    # a loose rtol may stop Newton early, but never short of what is accepted
    target = min(MISMATCH_ACCEPT, max(1e-11, 20.0 * shots.tol.rtol))
    s = math.log(c0)
    b = b0
    F = shots.F(math.exp(s), b)
    norm = float(np.hypot(*F))
    trace = [(c0, norm)]
    for _ in range(NEWTON_MAX_ITER):
        if norm < target:
            break
        c = math.exp(s)
        # forward differences; the ln c step grows with c because the spiral
        # amplitude, and with it |dF/d ln c|, decays like c^{-(p-5)/4}
        ds = 1e-7 * max(1.0, (c / 100.0) ** 0.5)
        db = 1e-9
        Fc = shots.F(math.exp(s + ds), b)
        Fb = shots.F(c, b + db)
        J = np.column_stack([(Fc - F) / ds, (Fb - F) / db])
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            raise SearchError("singular mismatch Jacobian", trace)
        lam = 1.0
        improved = False
        while lam >= 1.0 / 512.0:
            s_t = s - lam * step[0]
            b_t = b - lam * step[1]
            if b_t > 1e-5 and abs(s_t - s) < 2.0:
                Ft = shots.F(math.exp(s_t), b_t)
                nt = float(np.hypot(*Ft))
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
    return math.exp(s), b, norm


# -- nodal classification ----------------------------------------------------


def nodal_index(traj, params: ModelParams) -> int:
    """Number of zeros of w, sign-change count cross-checked by phase winding."""
    n_sign = len(w_zero_locations(traj, params))
    n_phase = _diag.phase_zero_count(traj, params)
    if n_sign != n_phase:
        raise ShootingError(
            f"zero counts disagree (sign changes {n_sign}, phase winding {n_phase}); "
            "integration tolerance is likely too loose for this trajectory")
    return n_sign


# -- assembly ----------------------------------------------------------------


def _assemble(n_label, c, b, norm, shots: _ImageCache) -> ShootingResult:
    """Row n_label from the shots of the accepted pair (c, b), read back
    from `shots`; the nodal count builds their dense output."""
    merged = MergedTrajectory(center=shots.shot("center", c),
                              lightcone=shots.shot("lightcone", b),
                              rho_mid=shots.rho_mid)
    zeros = nodal_index(merged, shots.params)
    if zeros != n_label + 1:
        raise SearchError(
            f"refined root (c={c:.6g}, b={b:.6g}) has {zeros} zeros, "
            f"wanted {n_label + 1}")
    return ShootingResult(n=zeros - 1, c=c, b=b, mismatch=norm, zeros=zeros,
                          rho_mid=shots.rho_mid, trajectory=merged)


def constant_solution_result(params: ModelParams, tol: Tolerances = Tolerances(),
                             rho_mid: float = 0.5) -> ShootingResult:
    """The n = 0 member, u = b0, pushed through the standard pipeline."""
    b0 = params.b0
    shots = _ImageCache(params, rho_mid, tol)
    return _assemble(0, b0, b0, float(np.hypot(*shots.F(b0, b0))), shots)


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
    e = [np.array([c1 / c0 - params.ratio_c, (b1 - bi) / (bi - b0) - params.ratio_b])
         for (c0, b0), (c1, b1) in zip(tail, tail[1:])]
    if len(e) == 2:
        e_c, e_b = q * (1 + q) * e[1] - q ** 3 * e[0]
    else:
        e_c, e_b = q * e[0] if e else (0.0, 0.0)
    c, b = history[-1]
    shots = _ImageCache(params, rho_mid, tol)
    c, b, norm = _newton_refine(c * (params.ratio_c + e_c),
                                bi - (params.ratio_b + e_b) * (b - bi), shots)
    return _assemble(len(history), c, b, norm, shots)


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
    return SpectrumResult(rows=list(iter_rows(n_max, params, tol, rho_mid)),
                          params=params, rho_mid=rho_mid)


def sample_curves(params: ModelParams, tol: Tolerances, rho_mid: float,
                  c_lo: float, c_hi: float, n_c: int,
                  b_lo: float, b_hi: float, n_b: int):
    """(C0 images, C1 images) for plotting and curve export; b grid always
    includes b_inf, whose image is the spiral limit point."""
    cs = np.exp(np.linspace(math.log(c_lo), math.log(c_hi), n_c))
    bs = np.unique(np.append(np.linspace(b_lo, b_hi, n_b), params.b_inf))
    # one cache per shot, so no curve keeps its trajectories
    return ([center_image(c, rho_mid, params, tol) for c in cs],
            [lightcone_image(b, rho_mid, params, tol) for b in bs])
