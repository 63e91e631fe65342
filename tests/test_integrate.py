import math

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution
from scipy.integrate._ivp.rk import Dop853DenseOutput

from blowup import asymptotics, integrate as integrate_module
from blowup.model import ProfileState, derive_constants, du_singular, u_singular
from blowup.integrate import (
    TERM_BLEW_UP,
    TERM_REACHED_END,
    TERM_STEP_LIMIT,
    TERM_STEP_UNDERFLOW,
    Tolerances,
    center_trajectory,
    drive_ode,
    integrate,
    integrate_rescaled,
    lightcone_trajectory,
)
from blowup.odecore import (
    SERIES_ORDER,
    _shrink_until_valid,
    center_launch,
    center_launch_rescaled,
    chart_rhs,
    lightcone_launch,
    limit_launch,
)
from reference_values import ORACLES


def _singular_err(p7, rtol):
    tol = Tolerances(rtol=rtol, atol=rtol * 1e-2)
    start = ProfileState(0.1, u_singular(p7, 0.1), du_singular(p7, 0.1))
    traj = integrate(start, 0.9, p7, tol)
    assert traj.termination == TERM_REACHED_END
    rho = np.linspace(0.1, 0.9, 33)
    u, du = traj.eval(rho)
    exact = np.array([u_singular(p7, r) for r in rho])
    return float(np.max(np.abs(u - exact) / np.abs(exact)))


def test_singular_solution_reproduced(p7):
    # exact scale-invariant solution from its own data at 0.1
    assert _singular_err(p7, 1e-12) < 1e-8


def test_tolerance_ordering_study(p7):
    # loosening rtol by two orders must cost accuracy; the spread confirms
    # the integrator actually tracks its tolerance parameter
    errs = [_singular_err(p7, r) for r in (1e-6, 1e-8, 1e-10, 1e-12)]
    assert errs[0] > errs[-1]
    assert errs[0] / errs[-1] > 50.0
    assert all(e < 1e-4 for e in errs)


def test_reversibility(p7, tol):
    start = ProfileState(0.1, u_singular(p7, 0.1), du_singular(p7, 0.1))
    fwd = integrate(start, 0.9, p7, tol)
    u9, du9 = fwd.eval(0.9)
    back = integrate(ProfileState(0.9, float(u9), float(du9)), 0.1, p7, tol)
    u1, du1 = back.eval(0.1)
    assert float(u1) == pytest.approx(start.u, rel=100 * tol.rtol)
    assert float(du1) == pytest.approx(start.du, rel=100 * tol.rtol)


def test_constant_solution_is_fixed_point(p7, tol):
    traj = integrate(ProfileState(0.2, p7.b0, 0.0), 0.95, p7, tol)
    rho = np.linspace(0.2, 0.95, 20)
    u, du = traj.eval(rho)
    assert np.max(np.abs(u - p7.b0)) < 1e-12
    assert np.max(np.abs(du)) < 1e-12


def test_cone_crossing_rejected(p7, tol):
    with pytest.raises(ValueError):
        integrate(ProfileState(0.5, 1.0, 0.0), 1.5, p7, tol)
    with pytest.raises(ValueError):
        integrate(ProfileState(1.2, 0.5, 0.0), 0.8, p7, tol)


def test_center_trajectory_charts_agree(p7, tol, monkeypatch):
    # the same profile through the plain and rescaled paths; the stretch
    # threshold c^3 > 1e3 routes c=9.9 plainly and c=10.1 through the x-chart
    for c in (9.9, 10.1):
        tr = center_trajectory(c, 0.6, p7, tol)
        assert tr.termination == TERM_REACHED_END
    lo = center_trajectory(9.9, 0.6, p7, tol)
    hi = center_trajectory(10.1, 0.6, p7, tol)
    assert lo.c_scale == 1.0 and hi.c_scale == 10.1
    # cross-check one amplitude through both charts explicitly
    monkeypatch.setattr(integrate_module, "RESCALE_THRESHOLD", 1e9)
    plain = center_trajectory(10.1, 0.6, p7, tol)
    assert plain.c_scale == 1.0
    rho = np.linspace(0.05, 0.6, 23)
    u_a, du_a = hi.eval(rho)
    u_b, du_b = plain.eval(rho)
    assert np.max(np.abs(u_a - u_b) / np.abs(u_a)) < 1e-9
    assert np.max(np.abs(du_a - du_b) / (1.0 + np.abs(du_a))) < 1e-8


def test_center_launch_bounds(p7, tol):
    # amplitude and gradient bounds for center data above the constant value:
    # sqrt(1-rho^2) |u'| <= c^{(p+1)/2} and |u| <= c while u stays positive
    for c in (2.0, 10.0, 50.0):
        traj = center_trajectory(c, 0.999, p7, tol)
        rho, u, du = traj.profile_samples()
        assert np.all(np.abs(u) <= c * (1.0 + 1e-12))
        assert np.all(np.sqrt(1.0 - rho**2) * np.abs(du)
                      <= c ** ((p7.p + 1) / 2.0) * (1.0 + 1e-12))


def test_blowup_detection(p7):
    # outside the cone the equation flips sign and large data blows up in
    # finite rho; the driver must stop with a labeled reason, not an exception
    tol = Tolerances(rtol=1e-10, atol=1e-12)
    traj = integrate(ProfileState(1.05, 5.0, 50.0), 3.0, p7, tol)
    assert traj.termination in (TERM_BLEW_UP, TERM_STEP_UNDERFLOW)
    assert traj.rho_span()[1] < 3.0


@pytest.mark.parametrize("u0", [1e6, 1e50])
def test_overflowing_power_stops_with_a_label(p7, u0):
    # u**p on Python floats raises OverflowError past the float range: at
    # u0 = 1e6 in trial stages of the first steps, at 1e50 at the start
    tol = Tolerances(rtol=1e-10, atol=1e-12)
    traj = integrate(ProfileState(0.5, u0, 0.0), 0.9, p7, tol)
    assert traj.termination in (TERM_BLEW_UP, TERM_STEP_UNDERFLOW)
    assert traj.rho_span()[1] < 0.9


def test_rescaled_cone_guard(p7, tol):
    with pytest.raises(ValueError):
        integrate_rescaled(2.0, 0.1, 1.0, 0.0, 10.0, p7, tol)  # x_end past the cone image


def test_lightcone_trajectory_inward_and_outward(p7, tol):
    b = 0.6887
    inner = lightcone_trajectory(b, 0.5, p7, tol)
    outer = lightcone_trajectory(b, 2.0, p7, tol)
    assert inner.termination == TERM_REACHED_END
    assert outer.termination == TERM_REACHED_END
    lo_in, hi_in = inner.rho_span()
    lo_out, hi_out = outer.rho_span()
    assert lo_in == pytest.approx(0.5)
    assert hi_in < 1.0 < hi_out
    # both branches continue the same analytic germ: u', u continuous at cone
    u_in, _ = inner.eval(hi_in)
    u_out, _ = outer.eval(lo_out)
    assert float(u_in) == pytest.approx(b, rel=1e-2)
    assert float(u_out) == pytest.approx(b, rel=1e-2)


def test_singular_point_landmarks(p7, tol):
    # integrating the singular solution from 0.1 to 0.5 hits the tabulated value
    start = ProfileState(0.1, ORACLES["u_inf_01"], ORACLES["du_inf_01"])
    traj = integrate(start, 0.5, p7, tol)
    u5, du5 = traj.eval(0.5)
    assert float(u5) == pytest.approx(ORACLES["u_inf_05"], rel=1e-10)
    assert float(du5) == pytest.approx(ORACLES["du_inf_05"], rel=1e-10)


def test_w_expression_matches_samples(p7, tol):
    b = 0.72
    traj = lightcone_trajectory(b, 0.4, p7, tol)
    t, w, rw = traj.w_samples()
    rho, u, du = traj.profile_samples()
    w_direct = rho ** p7.alpha * u / p7.b_inf - 1.0
    rw_direct = rho ** p7.alpha * (rho * du + p7.alpha * u) / p7.b_inf
    assert np.max(np.abs(w - w_direct)) < 1e-12
    assert np.max(np.abs(rw - rw_direct)) < 1e-12


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(rtol=1e-3)
    with pytest.raises(ValueError):
        Tolerances(rtol=-1.0)
    with pytest.raises(ValueError):
        Tolerances(rtol=1e-15)     # under the stepper's 100 eps floor
    for atol in (math.inf, math.nan, 1e-3):
        with pytest.raises(ValueError):
            Tolerances(atol=atol)
    Tolerances(rtol=1e-8, atol=1e-10)


def test_center_chart_routes_on_the_stretch_for_large_p(tol):
    # for p = 27 the plain-chart launch offset 0.02 c^{-13} at c = 10 falls
    # under the minimum step; routing on c^{(p-1)/2} sends it to the x-chart
    p27 = derive_constants(27)
    for c in (5.0, 10.0):
        traj = center_trajectory(c, 0.999, p27, tol)
        assert traj.termination == TERM_REACHED_END
        assert traj.c_scale == c


def _counted(rhs):
    calls = []

    def wrapped(t, y):
        calls.append(1)
        return rhs(t, y)

    return wrapped, calls


def _scipy_dop853(rhs, t0, y0, t_end, tol):
    """The reference: scipy's DOP853 stepped to t_end with an interpolant
    per step; returns (t, y, dense, RHS calls)."""
    solver = DOP853(rhs, t0, np.array(y0, dtype=float), t_end,
                    rtol=tol.rtol, atol=tol.atol)
    ts, ys, pieces = [t0], [solver.y.copy()], []
    while solver.status == "running":
        solver.step()
        ts.append(solver.t)
        ys.append(solver.y.copy())
        pieces.append(solver.dense_output())
    assert solver.status == "finished"
    return np.array(ts), np.array(ys).T, OdeSolution(np.array(ts), pieces), solver.nfev


def _oracle_case(name, p7, tol):
    """(rhs, t0, y0, t_end) of the integrations the package runs."""
    if name == "center c=2":
        st = center_launch(2.0, p7, tol.rtol, tol.atol).state
        return chart_rhs(p7, 1.0), st.rho, (st.u, st.du), 0.5
    if name == "x-chart c=1e4":
        x0, U, dU, _ = center_launch_rescaled(1e4, p7, tol.rtol, tol.atol)
        return chart_rhs(p7, 1e4 ** -(p7.p - 1)), x0, (U, dU), 0.5 * 1e4 ** 3
    if name == "cone b=0.7":
        st = lightcone_launch(0.7, p7, tol.rtol, tol.atol, side=-1).state
        return chart_rhs(p7, 1.0), st.rho, (st.u, st.du), 0.5
    if name == "limit":
        x0, U, dU, _ = limit_launch(p7, tol.rtol, tol.atol)
        return chart_rhs(p7, 0.0), x0, (U, dU), 1e6
    beta = asymptotics._linearized_cone_coeffs(p7, SERIES_ORDER + 6)
    s0, w0, dw0, _ = _shrink_until_valid(beta, -1e-3, SERIES_ORDER + 4,
                                         tol.rtol, tol.atol, 1.0, 1.0)
    return asymptotics._linearized_cone_rhs(p7), 1.0 + s0, (w0, dw0), 1e-3


@pytest.mark.parametrize("name", ["center c=2", "x-chart c=1e4", "cone b=0.7",
                                  "limit", "cone linearization"])
def test_stepper_agrees_with_scipy_dop853(name, p7, tol):
    rhs, t0, y0, t_end = _oracle_case(name, p7, tol)
    t_ref, y_ref, dense_ref, ref_calls = _scipy_dop853(rhs, t0, y0, t_end, tol)
    rhs_new, calls = _counted(rhs)
    t, y, dense, term = drive_ode(rhs_new, t0, y0, t_end, tol)
    assert term == TERM_REACHED_END
    assert len(t) == len(t_ref)
    # each accepted step has cost its 13 stages (12 RHS calls, the first
    # stage is the last slope of the step before); the 3 interpolant stages
    # per step wait for the first dense evaluation
    steps = len(t) - 1
    assert len(calls) == ref_calls - 3 * steps
    # scipy sums the stages through BLAS with fused multiply-adds, Python
    # floats without, so the stage sums differ in the last bit.  The error
    # estimate cancels them down to ~rtol of their size, which turns that
    # bit into a relative change ~eps/rtol of the error and, through the
    # exponent -1/8, into step sizes a few eps/rtol apart
    assert np.max(np.abs(t / t_ref - 1.0)) < 5.0 * np.finfo(float).eps / tol.rtol
    scale = np.max(np.abs(y_ref), axis=1, keepdims=True)
    assert np.max(np.abs(y - dense_ref(t)) / scale) < 1e-12
    tq = np.linspace(min(t0, t_end), max(t0, t_end), 200)
    assert np.max(np.abs(dense(tq) - dense_ref(tq)) / scale) < 1e-12
    # after it: the same RHS calls as scipy, interpolant stages included,
    # and later evaluations reuse the interpolant
    assert len(calls) == ref_calls
    dense(tq)
    assert len(calls) == ref_calls
    # without dense output: the same grid and the calls of the steps alone
    rhs_plain, plain_calls = _counted(rhs)
    t_plain, y_plain, dense_plain, _ = drive_ode(rhs_plain, t0, y0, t_end, tol,
                                                 store_dense=False)
    assert dense_plain is None
    assert np.array_equal(t_plain, t) and np.array_equal(y_plain, y)
    assert len(plain_calls) == ref_calls - 3 * steps


def test_step_budget_stops_with_step_limit(p7, tol, monkeypatch):
    monkeypatch.setattr(integrate_module, "MAX_STEPS", 5)
    rhs, t0, y0, t_end = _oracle_case("center c=2", p7, tol)
    t, y, dense, term = drive_ode(rhs, t0, y0, t_end, tol)
    assert term == TERM_STEP_LIMIT
    assert len(t) == 6 and y.shape == (2, 6)
    assert dense(t[-1]) == pytest.approx(y[:, -1], rel=1e-15)


def test_step_below_h_min_stops_after_one_step(p7, tol, monkeypatch):
    monkeypatch.setattr(integrate_module, "H_MIN", 1.0)
    rhs, t0, y0, t_end = _oracle_case("center c=2", p7, tol)
    t, _, _, term = drive_ode(rhs, t0, y0, t_end, tol)
    assert term == TERM_STEP_UNDERFLOW
    assert len(t) == 2


@pytest.mark.parametrize("y0", [(1.0,), (1.0, 0.0, 0.0)])
def test_drive_ode_needs_two_components(y0, tol):
    with pytest.raises(ValueError):
        drive_ode(lambda t, y: y, 0.5, y0, 0.6, tol)


def test_tableau_is_scipys_bit_for_bit():
    # scipy's 8 arrays assembled from the module data, then the sparse rows
    # and D the stepper and dense output actually read
    m = integrate_module
    A = np.zeros((16, 16))
    A[np.tril_indices(16, -1)] = [a for row in m._A_ROWS for a in row]
    B = A[12, :12]
    ours = {"A": A[:12, :12], "B": B, "C": np.array(m._C_ALL[:12]), "A_EXTRA": A[13:],
            "C_EXTRA": np.array(m._C_ALL[13:]), "E5": np.array(m._E5_ROW, dtype=float),
            "E3": np.append(B, 0.0) - np.array(m._E3_LESS_B, dtype=float),
            "D": np.array(m._D_ROWS, dtype=float)}
    assert m._STAGES == DOP853.n_stages
    for name, arr in ours.items():
        ref = getattr(DOP853, name)
        assert arr.shape == ref.shape and np.array_equal(arr, ref), name
    assert m._B == m._sparse(DOP853.B)
    assert m._E5 == m._sparse(DOP853.E5) and m._E3 == m._sparse(DOP853.E3)
    assert m._D.shape == DOP853.D.shape and np.array_equal(m._D, DOP853.D)
    main = [(c, m._sparse(row[:i + 1]))
            for i, (c, row) in enumerate(zip(DOP853.C[1:], DOP853.A[1:]))]
    extra = [(c, m._sparse(row)) for c, row in zip(DOP853.C_EXTRA, DOP853.A_EXTRA)]
    assert m._MAIN == main and m._EXTRA == extra


def test_dense_output_is_scipys_bit_for_bit(oracle_shots):
    rng = np.random.default_rng(8)
    for name, traj in oracle_shots.items():
        t, y, dense = traj.t, traj.y, traj.dense
        assert (name == "cone b=0.7 inward") == (t[-1] < t[0]), name
        dense(t[0])                     # builds the coefficient array
        F = dense._F
        assert F.shape == (len(t) - 1, 7, 2)
        ref = OdeSolution(t, [Dop853DenseOutput(t[i], t[i + 1], y[:, i], F[i])
                              for i in range(len(t) - 1)])
        nodes, mids = t, 0.5 * (t[:-1] + t[1:])
        rand = rng.uniform(min(t[0], t[-1]), max(t[0], t[-1]), 300)
        for q in (nodes, mids, rand, np.concatenate((rand, nodes[::-1], mids))):
            ours = dense(q)
            assert ours.shape == (2, len(q)) and np.array_equal(ours, ref(q)), name
        for q in (*nodes, *mids, *rand[:50], float(rand[0])):
            ours = dense(q)
            assert ours.shape == (2,) and np.array_equal(ours, ref(q)), name
    # a node where the two steps meeting there disagree in the last bit (y[0]
    # + (y[1] - y[0]) != y[1]) shows which step OdeSolution's tie rule picks
    y = np.array([[1.0, 1e-17, 0.3], [2.0, -3e-17, 0.7]])
    for t in (np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5, 0.0])):
        dense = integrate_module._DenseOutput(lambda t, y: (0.0, 0.0), t, y.T,
                                              np.zeros((2, 2, 13)))
        dense(t[0])
        ref = OdeSolution(t, [Dop853DenseOutput(t[i], t[i + 1], y[:, i], dense._F[i])
                              for i in range(2)])
        for q in (t, t[::-1], *t):
            assert np.array_equal(dense(q), ref(q))
