import math
import re
from array import array

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution
from scipy.integrate._ivp.rk import Dop853DenseOutput

from blowup import asymptotics, cli, odecore, integrate as integrate_module
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


@pytest.mark.parametrize("p, rho_mid", [(7, 0.4015), (7, 0.4926), (9, 0.4015), (15, 0.4844)])
def test_cone_shot_of_the_constant_solution_reaches_rho_mid(p, rho_mid, tol):
    # from u(1) = b0 the first step spans the whole interval and, rounded,
    # lands an ulp short of rho_mid: the sliver step left still reaches it
    params = derive_constants(p)
    traj = lightcone_trajectory(params.b0, rho_mid, params, tol)
    assert traj.termination == TERM_REACHED_END and traj.t[-1] == rho_mid


def test_cone_crossing_rejected(p7, tol):
    with pytest.raises(ValueError):
        integrate(ProfileState(0.5, 1.0, 0.0), 1.5, p7, tol)
    with pytest.raises(ValueError):
        integrate(ProfileState(1.2, 0.5, 0.0), 0.8, p7, tol)


def test_center_trajectory_charts_agree(p7, tol):
    # the same profile through the plain launch and the limit-solution start;
    # the start x_s = rtol^{1/6} c^3 passes U0's launch radius 1e-3 at c =
    # 0.1^{1/3} = 0.464, so c = 0.46 launches plainly and c = 0.47 starts from
    # U0 + mu U1 + mu^2 U2
    x0 = limit_launch(p7, tol.rtol, tol.atol)[0]
    assert x0 == 1e-3 and tol.rtol ** (1.0 / 6.0) * 0.1 == pytest.approx(x0)
    lo = center_trajectory(0.46, 0.6, p7, tol)
    hi = center_trajectory(0.47, 0.6, p7, tol)
    assert lo.termination == hi.termination == TERM_REACHED_END
    assert lo.c_scale == 1.0 and hi.c_scale == 0.47
    # U0 + mu U1 + mu^2 U2 on U0's grid up to x_s, then the rescaled run from x_s
    x_s = tol.rtol ** (1.0 / 6.0) * 0.47 ** 3.0
    assert hi.t[0] == x0 and x_s in hi.t
    # cross-check c = 0.47 against the plain launch, from just past its
    # launch radius (1e-3) out, and on U0's grid below rho_s = 1e-2
    rho0, u, du, _ = center_launch(0.47, p7, tol.rtol, tol.atol)
    plain = integrate(ProfileState(rho0, u, du), 0.6, p7, tol)
    rho = np.append(np.linspace(0.05, 0.6, 23), np.geomspace(x0 / 0.47 ** 3, 0.04, 9))
    u_a, du_a = hi.eval(rho)
    u_b, du_b = plain.eval(rho)
    assert np.max(np.abs(u_a - u_b) / np.abs(u_a)) < 1e-9
    assert np.max(np.abs(du_a - du_b) / (1.0 + np.abs(du_a))) < 1e-8


def test_large_c_start_does_not_depend_on_call_order(p7, tol, monkeypatch, capsys):
    # U0, U1 and U2 are integrated on first use and regrown to x_s^2 when a
    # shot's start x_s = rtol^{1/6} c^3 lies past their last full step; a shot
    # reads only steps that do not depend on the run's end.  c = 2.14e6
    # starts at x_s = 9.8e16, inside the last step of the first run (to 1e17,
    # last full step at 9.5e16), which is cut to that end, so it regrows the
    # run first; c = 1e16 regrows it past where U2 leaves the float range
    # (x = 2.8e86), where the run stops
    monkeypatch.setattr(integrate_module, "_LIMIT_RUNS", {})
    runs = []

    def kept_run():
        return integrate_module._LIMIT_RUNS[p7, tol][0]

    def shots():
        read = []
        for c in (1e3, 2.14e6):
            traj = center_trajectory(c, 0.5, p7, tol)
            run, _, k, _ = traj.dense._parts
            # the shot, and the steps of U0, U1 and U2 it reads with their interpolant
            read += [traj.t, traj.y, run._t[:k + 1], [c[:k + 1] for c in run._y],
                     _coefficients(run)[:k], _coefficients(traj.dense)]
            runs.append(kept_run())
        return read

    first = shots()
    assert runs[0].t[-1] == integrate_module.LIMIT_REACH
    x_s = tol.rtol ** (1.0 / 6.0) * 2.14e6 ** 3
    assert runs[0].t[-2] < x_s < integrate_module.LIMIT_REACH
    assert runs[1].t[-1] == pytest.approx(x_s ** 2)
    center_trajectory(1e16, 0.5, p7, tol)
    assert kept_run().termination == integrate_module._TERM_RANGE_END
    again = shots()
    assert cli.main(["limit"]) == 0
    capsys.readouterr()
    for a, b, c in zip(first, again, shots()):
        assert np.array_equal(a, b) and np.array_equal(a, c)
    # U0's components are integrate_limit's run at the kept tolerances to the
    # bit: U1 and U2 ride along without moving a step
    run = kept_run()
    x0, U, dU, _ = limit_launch(p7, tol.rtol, tol.atol)
    alone = integrate_module.integrate_limit(x0, U, dU, run.t[-1], p7,
                                             integrate_module._limit_tol(p7, tol))
    assert np.array_equal(alone.t, run.t) and np.array_equal(alone.y, run.y[:2])


@pytest.mark.parametrize("p, c", [(9, 1.9e19), (31, 1.43e10), (31, 3.08e10)],
                         ids=["9-1.9e+19", "31-1.43e+10", "31-3.08e+10"])
def test_shot_from_a_degenerate_limit_solution_stops_with_a_label(p, c, tol):
    # p = 9: within the limit run's reach the shot comes back with a
    # termination label, as the series launch did, and its interpolant builds.
    # p = 31: x_s = 1e-2 c^15 lies past where U2 leaves the float range
    # (x = 4.7e80), which ends the run; the shot is refused by name, never
    # started from inf or nan.  Within the reach no outer run (odd p 7-31,
    # 180 c up to the reach, rho_end 0.5, 0.9, 0.01) takes no step, builds a
    # non-finite interpolant or meets a 0/0 error norm
    params = derive_constants(p)
    if p == 31:
        with pytest.raises(ValueError, match=re.escape(f"center amplitude c={c:g} needs the "
                                                       "limit solution at x = ")):
            center_trajectory(c, 0.5, params, tol)
        return
    traj = center_trajectory(c, 0.5, params, tol)
    assert traj.termination in (TERM_REACHED_END, TERM_STEP_UNDERFLOW)
    assert np.isfinite(_coefficients(traj.dense)).all()


def test_shots_past_the_reach_of_the_limit_solution_are_named(p7, tol):
    # the limit run stops where U1 or U2 first leaves the float range, near
    # x = 2.8e86 at p = 7, with U0 positive on every node (as the true U0
    # is): its reach ends at its last full step, for the center shots and the
    # limit fits alike
    run = integrate_module._limit_run(1e45, p7, tol, "")
    assert run.termination == integrate_module._TERM_RANGE_END and min(run.y[0]) > 0.0
    reach = run.t[-2]
    assert np.isfinite(run.y).all() and reach == pytest.approx(2.8e86, rel=0.01)
    c_max = (reach / tol.rtol ** (1.0 / 6.0)) ** (1.0 / 3.0)
    assert center_trajectory(0.999 * c_max, 0.5, p7, tol).dense is not None
    past = f"past its last full step (left_float_range) at {reach:.3g}"
    with pytest.raises(ValueError, match=re.escape(f"center amplitude c={1.001 * c_max:g} "
                                                   "needs the limit solution at x = ")
                       + ".*" + re.escape(past)):
        center_trajectory(1.001 * c_max, 0.5, p7, tol)
    assert asymptotics.integrate_limit_equation(reach, p7, tol)[0][-1] == pytest.approx(reach)
    with pytest.raises(ValueError, match=re.escape(
            f"x_max {1.001 * reach:g} needs the limit solution at x = {1.001 * reach:.3g}, "
            + past)):
        asymptotics.integrate_limit_equation(1.001 * reach, p7, tol)


def _tight_shot(c, p7, x_end):
    """The x-chart series launch at U(0) = 1 and mu = c^{-(p-1)}, integrated
    at rtol 3e-14 and atol 1e-40 to x_end."""
    tight = Tolerances(rtol=3e-14, atol=1e-40)
    coeffs = odecore._center_coeffs(1.0, p7, SERIES_ORDER + 2, mu=c ** -(p7.p - 1))
    x0, U, dU, _ = _shrink_until_valid(coeffs, 1e-3, SERIES_ORDER, tight.rtol, tight.atol,
                                       1.0, 1.0)
    return integrate_rescaled(c, x0, U, dU, x_end, p7, tight)


def _scaled_gap(c, p7, x, U, dU, ref):
    """(U, U') at x against ref's last node, scaled like Newton's F: u, and
    u' over |u_singular'|."""
    return (abs(c * (U - ref.y[0][-1])),
            abs(c ** 4 * (dU - ref.y[1][-1])) / abs(du_singular(p7, x / c ** 3)))


@pytest.mark.parametrize("c", [13.87, 35.91, 1394.4])
def test_large_c_start_is_the_limit_solution_and_its_first_correction(c, p7, tol):
    # U0 + mu U1 off the kept limit run at x = rtol^{1/4} c^3 against the
    # x-chart series launch integrated there: within 1e-12, scaled like
    # Newton's F, where U0 alone is off by ~1e-7
    x = tol.rtol ** 0.25 * c ** 3
    run = integrate_module._limit_run(x, p7, tol, "")
    mu = c ** -(p7.p - 1)
    U0, dU0, U1, dU1 = run.dense(np.asarray(x))[:4]
    ref = _tight_shot(c, p7, x)
    assert max(_scaled_gap(c, p7, x, U0 + mu * U1, dU0 + mu * dU1, ref)) <= 1e-12
    assert max(_scaled_gap(c, p7, x, U0, dU0, ref)) > 1e-8


@pytest.mark.parametrize("c", [13.87, 35.91, 1394.4])
def test_large_c_start_adds_the_second_correction(c, p7, tol):
    # the outer run starts at x_s = rtol^{1/6} c^3 from U0 + mu U1 + mu^2 U2:
    # within 1e-12 of the x-chart series launch integrated there, scaled like
    # Newton's F, where U0 + mu U1 alone is off by 2e-11 to 8e-10
    x_s = tol.rtol ** (1.0 / 6.0) * c ** 3
    traj = center_trajectory(c, 0.5, p7, tol)
    run, mu, k, outer = traj.dense._parts
    assert outer._t[0] == pytest.approx(x_s, rel=1e-15)
    ref = _tight_shot(c, p7, x_s)
    assert max(_scaled_gap(c, p7, x_s, *(y[0] for y in outer._y), ref)) <= 1e-12
    U0, dU0, U1, dU1 = run(np.asarray(x_s))[:4]
    assert max(_scaled_gap(c, p7, x_s, U0 + mu * U1, dU0 + mu * dU1, ref)) > 1e-11
    # below x_s the shot reads U0 + mu U1 + mu^2 U2 on U0's steps: 1e-11
    # relative
    xq = x_s * np.geomspace(1e-3, 0.9, 6)
    assert np.max(np.abs(traj.dense(xq) / ref.dense(xq) - 1.0)) <= 1e-11


@pytest.mark.parametrize("c", [13.87, 35.91, 1394.4, 54434.2])
def test_large_c_image_matches_the_series_launch(c, p7, tol):
    # the reference: the even series of the rescaled chart at U(0) = 1 and
    # mu = c^{-(p-1)}, launched at its validated offset and integrated in x
    # at tight tolerances; the image at rho_mid = 0.5 agrees, scaled like
    # Newton's F
    stretch = c ** ((p7.p - 1) / 2.0)
    ref_U, ref_dU = (y[-1] for y in _tight_shot(c, p7, 0.5 * stretch).y)
    new = center_trajectory(c, 0.5, p7, tol).endpoint()
    assert new.rho == pytest.approx(0.5, rel=1e-15)
    assert abs(new.u - c * ref_U) <= 1e-12
    assert abs(new.du - stretch * c * ref_dU) / abs(du_singular(p7, 0.5)) <= 1e-12


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
    # under the minimum step; routing on c^{(p-1)/2} starts it from the limit
    # solution in the chart of c
    p27 = derive_constants(27)
    for c in (5.0, 10.0):
        traj = center_trajectory(c, 0.999, p27, tol)
        assert traj.termination == TERM_REACHED_END
        assert traj.c_scale == c


def test_shots_end_past_their_launch_radius(p7, tol):
    # rho_end inside the center launch radius, given in rho for both charts
    # (the series launch where rho_s c^3 lies inside U0's launch, as for c =
    # 0.5 here, and above it rho_s, where U0 + mu U1 + mu^2 U2 hands over to
    # the rescaled run: rtol^{1/4} for rho_end <= 2 rtol^{1/4}), and rho_end
    # on the cone launch radius are rejected by name
    rho_s = tol.rtol ** 0.25
    for c, rho0 in ((0.5, center_launch(0.5, p7, tol.rtol, tol.atol)[0]), (2.0, rho_s),
                    (1e4, rho_s)):
        for rho_end in (rho0 * (1.0 - 1e-12), 0.5 * rho0):
            with pytest.raises(ValueError, match=f"center launch radius {rho0:g}$"):
                center_trajectory(c, rho_end, p7, tol)
        assert center_trajectory(c, 1.1 * rho0, p7, tol).termination == TERM_REACHED_END
    rho0 = lightcone_launch(0.7, p7, tol.rtol, tol.atol, side=-1)[0]
    with pytest.raises(ValueError, match="cone launch radius"):
        lightcone_trajectory(0.7, rho0, p7, tol)
    for rho_end in (rho0 - 1e-3, 0.5 * (rho0 + 1.0)):
        assert lightcone_trajectory(0.7, rho_end, p7, tol).termination == TERM_REACHED_END


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
        rho0, u, du, _ = center_launch(2.0, p7, tol.rtol, tol.atol)
        return chart_rhs(p7, 1.0), rho0, (u, du), 0.5
    if name == "x-chart c=1e4":
        x0, U, dU, _ = center_launch_rescaled(1e4, p7, tol.rtol, tol.atol)
        return chart_rhs(p7, 1e4 ** -(p7.p - 1)), x0, (U, dU), 0.5 * 1e4 ** 3
    if name == "cone b=0.7":
        rho0, u, du, _ = lightcone_launch(0.7, p7, tol.rtol, tol.atol, side=-1)
        return chart_rhs(p7, 1.0), rho0, (u, du), 0.5
    if name == "limit":
        x0, U, dU, _ = limit_launch(p7, tol.rtol, tol.atol)
        return chart_rhs(p7, 0.0), x0, (U, dU), 1e6
    if name == "limit and its first corrections U1, U2":
        x0, U, dU, _ = limit_launch(p7, tol.rtol, tol.atol)
        return (integrate_module._limit_rhs(p7), x0,
                (U, dU, *odecore._limit_correction(x0, p7)), 1e6)
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
    t, y = np.array(t), np.array(y)
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
    # each step read builds its 3 interpolant stages: once all are read, the
    # same RHS calls as scipy, and later evaluations reuse them
    dense(0.5 * (t[:-1] + t[1:]))
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


# The loop stepper the generated kernel replaced, kept as its reference: each
# stage sum adds its row's nonzero terms left to right from 0.0.

def _combine(row, K):
    sums = []
    for k in K:
        d = 0.0
        for a, j in row:
            d += a * k[j]
        sums.append(d)
    return sums


def _add_stages(rows, rhs, t, y, h, K):
    for c, row in rows:
        f = rhs(t + c * h, tuple(v + d * h for v, d in zip(y, _combine(row, K))))
        for k, fm in zip(K, f):
            k.append(fm)


def _loop_step_stages(rhs, t, y, h, t_new, f):
    m = integrate_module
    K = [[fm] for fm in f]
    _add_stages(m._MAIN, rhs, t, y, h, K)
    y_new = tuple(v + h * b for v, b in zip(y, _combine(m._B, K)))
    f_new = rhs(t_new, y_new)
    for k, fm in zip(K, f_new):
        k.append(fm)
    # the step size is controlled on the first two components
    return (y_new, f_new, K, *_combine(m._E5, K[:2]), *_combine(m._E3, K[:2]))


def _plain_sum(row, k):
    """sum_j row[j] k[j] over every stage, zeros included, left to right from 0.0."""
    d = 0.0
    for a, kj in zip(row, k):
        d += a * kj
    return d


def _loop_coeffs(rhs, t, y, yn, h, K):
    """A step's dense coefficients, F0..F6 of each component in turn, from its 13
    kept stages and 3 interpolant stages, each of D's rows a plain sum over the 16."""
    K = [list(K[j:j + 13]) for j in range(0, len(K), 13)]
    try:
        _add_stages(integrate_module._EXTRA, rhs, t, y, h, K)
    except OverflowError:
        K = [k[:13] + [math.inf] * 3 for k in K]
    return tuple(F for k, a, b in zip(K, y, yn)
                 for F in (b - a, h * k[0] - (b - a), 2.0 * (b - a) - h * (k[12] + k[0]),
                           *(h * _plain_sum(row, k) for row in integrate_module._D_ROWS)))


def _coefficients(dense):
    """Every step's coefficients, as dense reads them."""
    return [dense.coefficients(i) for i in range(len(dense._t) - 1)]


def _loop_step(rhs, t, y, f, h_abs, t_end, direction, rtol, atol):
    """One accepted step from (t, y) as scipy's _step controls it, sizes tried
    with _loop_step_stages until one passes: (t, y, f, next h_abs, K), or the
    termination label of a run that cannot step."""
    m = integrate_module
    min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
    h_abs = max(h_abs, min_step)
    rejected = False
    while h_abs >= min_step:
        t_new = t + h_abs * direction
        if direction * (t_new - t_end) > 0:
            t_new = t_end
        h = t_new - t
        h_abs = abs(h)
        try:
            y_new, f_new, K, e5_0, e5_1, e3_0, e3_1 = _loop_step_stages(rhs, t, y, h, t_new, f)
        except m._RangeEnd:
            return m._TERM_RANGE_END
        except OverflowError:
            h_abs *= m._MIN_FACTOR
            rejected = True
            continue
        s0 = atol + max(abs(y[0]), abs(y_new[0])) * rtol
        s1 = atol + max(abs(y[1]), abs(y_new[1])) * rtol
        err5 = (e5_0 / s0) ** 2 + (e5_1 / s1) ** 2
        err3 = (e3_0 / s0) ** 2 + (e3_1 / s1) ** 2
        norm = math.sqrt((err5 + 0.01 * err3) * 2.0)
        err = h_abs * err5 / norm if norm else 0.0
        if err < 1.0:
            factor = min(m._MAX_FACTOR, m._SAFETY * err ** m._EXPONENT) if err else m._MAX_FACTOR
            return t_new, y_new, f_new, h_abs * (min(1.0, factor) if rejected else factor), K
        h_abs *= max(m._MIN_FACTOR, m._SAFETY * err ** m._EXPONENT)
        rejected = True
    return TERM_STEP_UNDERFLOW


def _loop_drive(rhs, t, y, f, h_abs, t_end, direction, rtol, atol, blow_cap, stages,
                h_min, max_steps):
    """drive_ode's step loop, one _loop_step call per step, in the generated
    loop's contract: (grid, states in one flat list, termination)."""
    ts, ys = [t], [*y]
    while direction * (t - t_end) < 0:
        if len(ts) > max_steps:
            return ts, ys, TERM_STEP_LIMIT
        step = _loop_step(rhs, t, y, f, h_abs, t_end, direction, rtol, atol)
        if isinstance(step, str):
            return ts, ys, step
        t, y, f, h_abs, K = step
        if stages is not None:
            for k in K:
                stages.extend(k)
        ts.append(t)
        ys += y
        if blow_cap is not None and abs(y[0]) > blow_cap:
            return ts, ys, TERM_BLEW_UP
        if h_abs < h_min and direction * (t - t_end) < 0:
            return ts, ys, TERM_STEP_UNDERFLOW
    return ts, ys, TERM_REACHED_END


def _with_loop_stepper(monkeypatch, run):
    """run() with the loop stepper, rhs called per stage, in place of the
    generated loop and dense coefficients."""
    with monkeypatch.context() as mp:
        mp.setattr(integrate_module, "_kernel", lambda n, chart: (_loop_drive, _loop_coeffs))
        return run()


@pytest.mark.parametrize("name", ["center c=2", "x-chart c=1e4", "cone b=0.7",
                                  "limit", "cone linearization",
                                  "limit and its first corrections U1, U2"])
def test_generated_kernel_is_the_loop_stepper_bit_for_bit(name, p7, tol, monkeypatch):
    rhs, t0, y0, t_end = _oracle_case(name, p7, tol)
    for store_dense in (True, False):
        def run():
            return drive_ode(rhs, t0, y0, t_end, tol, store_dense=store_dense)
        t_ref, y_ref, dense_ref, term_ref = _with_loop_stepper(monkeypatch, run)
        t, y, dense, term = run()
        assert term == term_ref == TERM_REACHED_END
        assert np.array_equal(t, t_ref) and np.array_equal(y, y_ref)
        if not store_dense:
            assert dense is None and dense_ref is None
            continue
        # the kept stages, then the interpolant, whose 3 extra stages each
        # side builds on first use with its own stepper
        assert dense._stages == dense_ref._stages
        tq = np.concatenate((t, np.linspace(min(t0, t_end), max(t0, t_end), 202)[1:-1]))
        ref = _with_loop_stepper(monkeypatch, lambda: dense_ref(tq))
        assert (dense(tq) == ref).all()


def test_generated_kernel_takes_the_overflow_retry_as_the_loop_did(p7, monkeypatch):
    # at u0 = 1e6, u**p overflows in a trial stage of the first step, which
    # the loop rejects by the smallest factor, to below the minimum step size
    tol = Tolerances(rtol=1e-10, atol=1e-12)
    calls = []

    def logged_chart_rhs(params, mu):
        inner = chart_rhs(params, mu)

        def rhs(t, y):
            calls.append((t, *y))
            try:
                return inner(t, y)
            except OverflowError:
                calls.append("overflow")
                raise
        return rhs

    monkeypatch.setattr(integrate_module, "chart_rhs", logged_chart_rhs)

    def run():
        return integrate(ProfileState(0.5, 1e6, 0.0), 0.9, p7, tol)
    ref = _with_loop_stepper(monkeypatch, run)
    ref_calls = calls[:]
    calls.clear()
    traj = run()
    # past the start slope and the initial-step probe: inside a step trial
    assert ref_calls.index("overflow") > 2 and calls == ref_calls
    assert traj.termination == ref.termination == TERM_STEP_UNDERFLOW
    assert np.array_equal(traj.t, ref.t) and np.array_equal(traj.y, ref.y)


def _call_form(rhs):
    """rhs without its chart attribute, so drive_ode calls it per stage."""
    return lambda t, y: rhs(t, y)


@pytest.mark.parametrize("name", ["center c=2", "x-chart c=1e4", "cone b=0.7", "limit"])
def test_chart_equation_in_the_stages_is_the_call_form_bit_for_bit(name, p7, tol):
    rhs, t0, y0, t_end = _oracle_case(name, p7, tol)
    assert hasattr(rhs, "chart")
    for store_dense in (True, False):
        t, y, dense, term = drive_ode(rhs, t0, y0, t_end, tol, store_dense=store_dense)
        t_c, y_c, dense_c, term_c = drive_ode(_call_form(rhs), t0, y0, t_end, tol,
                                              store_dense=store_dense)
        assert term == term_c == TERM_REACHED_END
        assert np.array_equal(t, t_c) and np.array_equal(y, y_c)
        if not store_dense:
            assert dense is None and dense_c is None
            continue
        assert dense._stages == dense_c._stages
        # the interpolant's 3 extra stages, computed in place and called
        tq = np.concatenate((t, np.linspace(min(t0, t_end), max(t0, t_end), 202)[1:-1]))
        assert (dense(tq) == dense_c(tq)).all()
        assert np.array_equal(_coefficients(dense), _coefficients(dense_c))


def test_chart_equation_in_the_stages_takes_the_overflow_retry_as_the_call_form(p7,
                                                                                monkeypatch):
    # at u0 = 1e6, u**p overflows in a trial stage of the first step, rejected
    # by the smallest factor down to below the minimum step size
    tol = Tolerances(rtol=1e-10, atol=1e-12)
    start = ProfileState(0.5, 1e6, 0.0)
    ours = integrate(start, 0.9, p7, tol)
    overflows = []

    def called(params, mu):
        rhs = chart_rhs(params, mu)

        def call(t, y):
            try:
                return rhs(t, y)
            except OverflowError:
                overflows.append(t)
                raise
        return call

    monkeypatch.setattr(integrate_module, "chart_rhs", called)
    ref = integrate(start, 0.9, p7, tol)
    assert overflows and overflows[0] > start.rho
    assert ours.termination == ref.termination == TERM_STEP_UNDERFLOW
    assert np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y)
    assert ours.dense is None and ref.dense is None


@pytest.mark.parametrize("p, u0", [(7, 2.54e42), (15, 6.06e19), (31, 5.34e9)])
def test_overflowing_start_slope_stops_with_a_label(p, u0, tol):
    # the scaled slope f/s overflows, so scipy's initial step is h = 0 (its
    # trial step 0.01 d0/d1 is 0, and the slope difference over it 0/0); no
    # step of 10 ulp passes either
    traj = integrate(ProfileState(0.5, u0, 0.0), 0.9, derive_constants(p), tol)
    assert traj.termination == TERM_STEP_UNDERFLOW
    assert traj.dense is None and traj.t == [0.5]


def test_step_budget_stops_with_step_limit(p7, tol, monkeypatch):
    monkeypatch.setattr(integrate_module, "MAX_STEPS", 5)
    rhs, t0, y0, t_end = _oracle_case("center c=2", p7, tol)
    t, y, dense, term = drive_ode(rhs, t0, y0, t_end, tol)
    assert term == TERM_STEP_LIMIT
    assert len(t) == 6 and np.shape(y) == (2, 6)
    assert dense(t[-1]) == pytest.approx([c[-1] for c in y], rel=1e-15)


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
    assert m._D == [m._sparse(row) for row in DOP853.D]
    main = [(c, m._sparse(row[:i + 1]))
            for i, (c, row) in enumerate(zip(DOP853.C[1:], DOP853.A[1:]))]
    extra = [(c, m._sparse(row)) for c, row in zip(DOP853.C_EXTRA, DOP853.A_EXTRA)]
    assert m._MAIN == main and m._EXTRA == extra


def _runs(dense):
    """The two-component drive_ode run behind a trajectory's dense output:
    for a large-c centre shot, its outer run."""
    if isinstance(dense, integrate_module._Joined):
        return [dense._parts[3]]
    return [dense]


def _scipy_F(dense, i):
    """Step i's coefficients in the (7, n) layout of scipy's Dop853DenseOutput."""
    return np.array(dense.coefficients(i)).reshape(-1, 7).T


def test_dense_output_is_scipys_bit_for_bit(oracle_shots):
    rng = np.random.default_rng(8)
    for name, dense in ((name, d) for name, traj in oracle_shots.items()
                        for d in _runs(traj.dense)):
        t, y = np.array(dense._t), np.array(dense._y)
        assert (name == "cone b=0.7 inward") == (t[-1] < t[0]), name
        ref = OdeSolution(t, [Dop853DenseOutput(t[i], t[i + 1], y[:, i], _scipy_F(dense, i))
                              for i in range(len(t) - 1)])
        nodes, mids = t, 0.5 * (t[:-1] + t[1:])
        rand = rng.uniform(min(t[0], t[-1]), max(t[0], t[-1]), 300)
        for q in (nodes, mids, rand, np.concatenate((rand, nodes[::-1], mids))):
            ours = dense(q)
            assert ours.shape == (2, len(q)) and np.array_equal(ours, ref(q)), name
        # scalars take the Python-float path, a 0-d array the array path;
        # both span ends and an interior node as plain floats among them
        ends = (float(t[0]), float(t[-1]), float(t[len(t) // 2]))
        for q in (*nodes, *mids, *rand[:50], float(rand[0]), *ends, np.asarray(t[1])):
            ours = dense(q)
            assert np.shape(ours) == (2,) and np.array_equal(ours, ref(q)), name
    # a large-c centre shot: U0 + mu U1 + mu^2 U2 on the limit run's first k
    # steps, the last cut where the outer run starts, then the outer run; each
    # point is its own part's value, the head summed as scipy sums those
    # combined steps
    joined = oracle_shots["x-chart c=1e4"].dense
    run, mu, k, tail = joined._parts
    join = tail._t[0]
    assert run._t[k - 1] < join <= run._t[k]
    t, y, ry = np.array(run._t[:k + 1]), np.array(joined._y)[:, :k], np.array(run._y)[:, :k]
    assert np.array_equal(y, ry[:2] + mu * ry[2:4] + mu * mu * ry[4:])
    head = OdeSolution(t, [Dop853DenseOutput(t[i], t[i + 1], y[:, i], _scipy_F(joined, i))
                           for i in range(k)])
    q = np.concatenate((np.geomspace(t[0], tail._t[-1], 200), [join]))
    lo = q <= join
    assert np.array_equal(joined(q)[:, lo], head(q[lo]))
    assert np.array_equal(joined(q)[:, ~lo], tail(q[~lo]))
    for x in (join, math.nextafter(join, math.inf), float(q[50]), float(q[150])):
        assert np.array_equal(joined(x), head(x) if x <= join else tail(x))
    # the limit run (U0, U0', U1, U1', U2, U2') itself, on the array path and
    # on the float path the center shots read it by
    t, y = np.array(run._t), np.array(run._y)
    assert len(run.coefficients(0)) == 6 * 7
    ref = OdeSolution(t, [Dop853DenseOutput(t[i], t[i + 1], y[:, i], _scipy_F(run, i))
                          for i in range(len(t) - 1)])
    q = np.concatenate((t, np.geomspace(t[0], t[-1], 300)))
    assert np.array_equal(run(q), ref(q))
    for x in q[::7].tolist():
        assert len(run(x)) == 6 and np.array_equal(run(x), ref(x))
    # a node where the two steps meeting there disagree in the last bit (y[0]
    # + (y[1] - y[0]) != y[1]) shows which step OdeSolution's tie rule picks
    y = np.array([[1.0, 1e-17, 0.3], [2.0, -3e-17, 0.7]])
    for t in (np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5, 0.0])):
        dense = integrate_module._DenseOutput(lambda t, y: (0.0, 0.0), t.tolist(),
                                              tuple(y.tolist()), array("d", [0.0] * 52))
        ref = OdeSolution(t, [Dop853DenseOutput(t[i], t[i + 1], y[:, i], _scipy_F(dense, i))
                              for i in range(2)])
        for q in (t, t[::-1], *t):
            assert np.array_equal(dense(q), ref(q))


def test_dense_coefficients_are_one_build_on_floats(oracle_shots):
    # the float path and the array path read the same per-step coefficients,
    # built once per step on floats with each of D's rows a plain left-to-right
    # sum over the 16 stages, so they do not depend on the host's BLAS kernel:
    # for the limit run, and for the two runs a large-c centre shot joins
    joined = oracle_shots["x-chart c=1e4"].dense
    run, mu, k, tail = joined._parts

    def fresh(d):
        return integrate_module._DenseOutput(d._rhs, d._t, d._y, d._stages)

    def mids(t):
        return [0.5 * (a + b) for a, b in zip(t, t[1:])]

    pairs = []
    for make in (lambda: fresh(run), lambda: integrate_module._Joined(fresh(run), mu, k,
                                                                      fresh(tail))):
        on_array, on_floats = make(), make()
        q = mids(on_array._t)
        values = on_array(np.array(q))
        assert np.array_equal(values, np.array([on_floats(x) for x in q]).T)
        pairs += zip(getattr(on_array, "_parts", (on_array,))[::3],
                     getattr(on_floats, "_parts", (on_floats,))[::3])
    assert len(pairs) == 3
    for a, b in pairs:
        assert a._F.keys() == b._F.keys() == set(range(len(a._t) - 1 if a is not pairs[1][0]
                                                       else k))
        n, w = len(a._y), 13 * len(a._y)
        for i, F in a._F.items():
            ref = _loop_coeffs(a._rhs, a._t[i], [c[i] for c in a._y], [c[i + 1] for c in a._y],
                               a._t[i + 1] - a._t[i], a._stages[i * w:(i + 1) * w])
            assert len(F) == 7 * n
            assert np.array(F).tobytes() == np.array(b._F[i]).tobytes() == np.array(ref).tobytes()
