import math
import re
import tracemalloc
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
    Trajectory,
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
    # the same profile through the plain launch and the series in rho^2; the
    # start x_s = rtol^{1/(2K+2)} c^3 passes the kept run's launch x0 = 0.05 at
    # c = 0.615, so c = 0.60 reads the series at rho_s and continues in the
    # plain chart, and c = 0.72 starts on the kept run's last node below x_s,
    # whose nodes below that are the shot's, and continues in its own chart
    x0 = odecore.mu_series_launch(p7, tol.rtol, tol.atol)[0]
    rho_s = tol.rtol ** (1.0 / (2 * odecore.CENTER_K + 2))
    assert x0 == 0.05 and rho_s * 0.60 ** 3.0 < x0 < rho_s * 0.72 ** 3.0
    lo = center_trajectory(0.60, 0.6, p7, tol)
    hi = center_trajectory(0.72, 0.6, p7, tol)
    assert lo.termination == hi.termination == TERM_REACHED_END
    assert lo.c_scale == 1.0 and hi.c_scale == 0.72
    k, run = hi._k, hi._run.t
    assert lo.t[0] == rho_s and hi.t[0] == x0 and k > 0 and hi.t[:k + 1] == run[:k + 1]
    assert run[k] <= rho_s * 0.72 ** 3.0 < run[k + 1]
    # cross-check both against the plain launch, from rho_s out, and c = 0.72
    # on the kept run's nodes below it
    for traj, c, rho in ((lo, 0.60, np.linspace(rho_s, 0.6, 23)),
                         (hi, 0.72, np.append(np.linspace(rho_s, 0.6, 23),
                                              np.geomspace(x0 / 0.72 ** 3, rho_s, 9)))):
        rho0, u, du, _ = center_launch(c, p7, tol.rtol, tol.atol)
        plain = integrate(ProfileState(rho0, u, du), 0.6, p7, tol)
        u_a, du_a = traj.eval(rho)
        u_b, du_b = plain.eval(rho)
        assert np.max(np.abs(u_a - u_b) / np.abs(u_a)) < 1e-9
        assert np.max(np.abs(du_a - du_b) / (1.0 + np.abs(du_a))) < 1e-8


def _parts(traj):
    """(kept run, mu, k, outer run), the dense outputs behind a center shot."""
    return traj._run.dense, traj._mu, traj._k, traj._outer.dense


def test_large_c_start_does_not_depend_on_call_order(p7, tol, monkeypatch, capsys):
    # the kept run of V0..V_K is integrated on first use and regrown to x_s^2
    # when a shot's start x_s = rtol^{1/(2K+2)} c^3 lies past its last full
    # step; a shot reads only nodes and steps that do not depend on the run's
    # end.  c = 7.7e5 has x_s = 9.8e16, inside the last step of the first run
    # (to 1e17, last full step at 9.5e16), which is cut to that end, so it
    # regrows the run first; c = 1e16 regrows it to x_s^2 = 4.6e94
    monkeypatch.setattr(integrate_module, "_LIMIT_RUNS", {})
    runs = []
    rho_s = tol.rtol ** (1.0 / (2 * odecore.CENTER_K + 2))

    def kept_run():
        return integrate_module._LIMIT_RUNS[p7, integrate_module._limit_tol(p7, tol),
                                            odecore.CENTER_K][0]

    def shots():
        read = []
        for c in (1e3, 7.7e5):
            traj = center_trajectory(c, 0.5, p7, tol)
            run, _, k, _ = _parts(traj)
            # the shot, and the nodes of V0..V_K it reads: its start node and
            # the step from there, and the head below it
            read += [traj.t, traj.y, run._t[:k + 2], [c[:k + 1] for c in run._y],
                     _coefficients(_parts(traj)[3])]
            runs.append(kept_run())
        return read

    first = shots()
    assert runs[0].t[-1] == integrate_module.LIMIT_REACH
    x_s = rho_s * 7.7e5 ** 3
    assert runs[0].t[-2] < x_s < integrate_module.LIMIT_REACH
    assert runs[1].t[-1] == pytest.approx(x_s ** 2)
    center_trajectory(1e16, 0.5, p7, tol)
    assert kept_run().t[-1] == pytest.approx((rho_s * 1e48) ** 2)
    again = shots()
    assert cli.main(["limit"]) == 0
    capsys.readouterr()
    for a, b, c in zip(first, again, shots()):
        assert np.array_equal(a, b) and np.array_equal(a, c)
    # V0 is integrate_limit's run at the kept tolerances from the same launch
    # to the bit: V1..V_K ride along without moving a step
    run = kept_run()
    x0, V = odecore.mu_series_launch(p7, tol.rtol, tol.atol)
    alone = integrate_module.integrate_limit(x0, V[0], V[1], run.t[-1], p7,
                                             integrate_module._limit_tol(p7, tol))
    assert alone.t == run.t and list(alone.y) == [list(v) for v in run.y[:2]]


def test_loose_rtols_read_one_kept_run(p7, monkeypatch):
    # the kept run steps at rtol no looser than the default and is kept by the
    # tolerances it steps at, so requests that differ only in a loose rtol
    # read the run the first one built
    monkeypatch.setattr(integrate_module, "_LIMIT_RUNS", {})
    run = integrate_module._limit_run(1e3, p7, Tolerances(rtol=1e-7), "")
    assert integrate_module._limit_run(1e3, p7, Tolerances(rtol=1e-8), "") is run
    assert len(integrate_module._LIMIT_RUNS) == 1


def test_limit_fits_read_the_center_shots_V0_to_the_bit(p7, tol, monkeypatch):
    # the K = 0 run the limit fits read launches where the K = 6 run does and
    # steps on V0 alone, so its U0 is the center shots' V0 to the bit
    monkeypatch.setattr(integrate_module, "_LIMIT_RUNS", {})
    alone = integrate_module._limit_run(1e16, p7, tol, "", K=0)
    run = integrate_module._limit_run(1e16, p7, tol, "")
    assert len(alone.y) == 2 and len(run.y) == 2 * odecore.CENTER_K + 2
    assert alone.t == run.t and alone.y == run.y[:2]
    q = np.geomspace(run.t[0], 1e16, 50)
    assert np.array_equal(alone.dense(q), run.dense(q)[:2])


@pytest.mark.parametrize("p, c", [(9, 1.9e19), (31, 1.43e10), (31, 3.08e10)],
                         ids=["9-1.9e+19", "31-1.43e+10", "31-3.08e+10"])
def test_shot_from_a_degenerate_limit_solution_stops_with_a_label(p, c, tol):
    # p = 9: within the kept run's reach (x_s = rtol^{1/(2K+2)} c^4 = 2.8e76)
    # the shot comes back with a termination label, as the series launch did,
    # and its head and interpolant build finite.  p = 31: x_s = 4.6e151 and 4.6e156
    # lie past the run's end at LIMIT_FAR; the shot is refused by name, never
    # started from inf or nan
    params = derive_constants(p)
    if p == 31:
        with pytest.raises(ValueError, match=re.escape(f"center amplitude c={c:g} needs the "
                                                       "limit solution at x = ")):
            center_trajectory(c, 0.5, params, tol)
        return
    traj = center_trajectory(c, 0.5, params, tol)
    assert traj.termination in (TERM_REACHED_END, TERM_STEP_UNDERFLOW)
    assert np.isfinite(_coefficients(_parts(traj)[3])).all()
    assert np.isfinite(traj.y).all()


def test_shots_past_the_reach_of_the_limit_solution_are_named(p7, tol):
    # the kept run ends at LIMIT_FAR = 1e100, short of where U0^p leaves the
    # normal floats (x ~ 1e132 at p = 7), without leaving the floats itself
    # (max |V_k| <= 0.074 for k >= 1) and with U0 positive on every node: its
    # reach ends at its last full step, for the center shots and the limit
    # fits alike
    run = integrate_module._limit_run(1e60, p7, tol, "")
    assert run.termination == TERM_REACHED_END and run.t[-1] == integrate_module.LIMIT_FAR
    assert np.isfinite(run.y).all() and min(run.y[0]) > 0.0
    assert np.max(np.abs(run.y[2::2])) <= 0.074
    reach = run.t[-2]
    c_max = (reach / tol.rtol ** (1.0 / (2 * odecore.CENTER_K + 2))) ** (1.0 / 3.0)
    assert center_trajectory(0.999 * c_max, 0.5, p7, tol).termination == TERM_REACHED_END
    past = f"past its last full step (reached_end) at {reach:.3g}"
    with pytest.raises(ValueError, match=re.escape(f"center amplitude c={1.001 * c_max:g} "
                                                   "needs the limit solution at x = ")
                       + ".*" + re.escape(past)):
        center_trajectory(1.001 * c_max, 0.5, p7, tol)
    assert asymptotics.integrate_limit_equation(reach, p7, tol)[0][-1] == pytest.approx(reach)
    with pytest.raises(ValueError, match=re.escape(
            f"x_max {1.001 * reach:g} needs the limit solution at x = {1.001 * reach:.3g}, "
            + past)):
        asymptotics.integrate_limit_equation(1.001 * reach, p7, tol)


def _tight_shot(c, params, x_end, tight=Tolerances(rtol=3e-14, atol=1e-40)):
    """The x-chart series launch at U(0) = 1 and mu = c^{-(p-1)}, integrated
    at tight tolerances to x_end."""
    x0, U, dU, _ = odecore._center_launch(1.0, c ** -(params.p - 1), 1e-3, params,
                                          tight.rtol, tight.atol)
    return integrate_rescaled(c, x0, U, dU, x_end, params, tight)


def _scaled_gap(c, params, x, U, dU, ref):
    """(U, U') at x against ref's last node, scaled like Newton's F: u, and
    u' over |u_singular'|."""
    stretch = c ** ((params.p - 1) / 2.0)
    return (abs(c * (U - ref.y[0][-1])),
            abs(stretch * c * (dU - ref.y[1][-1])) / abs(du_singular(params, x / stretch)))


@pytest.mark.parametrize("c", [13.87, 35.91, 1394.4])
def test_large_c_start_is_the_limit_solution_and_its_first_correction(c, p7, tol):
    # V0 + rho^2 V1 off the kept run at x = rtol^{1/4} c^3 (rho = 1e-3),
    # that is U0 + mu U1, against the x-chart series launch integrated there:
    # within 1e-12, scaled like Newton's F, where U0 alone is off by ~1e-7
    x = tol.rtol ** 0.25 * c ** 3
    run = integrate_module._limit_run(x, p7, tol, "")
    mu = c ** -(p7.p - 1)
    U0, dU0, V1, dV1 = run.dense(np.asarray(x))[:4]
    U1, dU1 = x * x * V1, x * x * dV1 + 2.0 * x * V1
    ref = _tight_shot(c, p7, x)
    assert max(_scaled_gap(c, p7, x, U0 + mu * U1, dU0 + mu * dU1, ref)) <= 1e-12
    assert max(_scaled_gap(c, p7, x, U0, dU0, ref)) > 1e-8


@pytest.mark.parametrize("p, c", [(p, c) for p in (7, 9, 15, 31)
                                  for c in (0.3, "b0", 2.0544, 13.87, 35.91, 1394.4, 54434.2)])
def test_center_start_is_the_series_in_rho_squared(c, p, tol):
    # every center shot starts from sum_{k<=K} rho^{2k} V_k, K = CENTER_K: at
    # the last kept-run node x_k <= x_s = rho_s c^{(p-1)/2}, rho_s =
    # rtol^{1/(2K+2)}, on that node's own values in the chart of c, or, with
    # x_s below the kept run's launch at x0 = 0.05, at rho_s off the series in
    # the plain chart.  Against the x-chart series launch integrated there at
    # rtol 1e-13, atol 1e-30 (for c = b0, the exact constant solution), scaled
    # like Newton's F, the start is within 1e-12 (measured: 8.3e-13 at most;
    # the kept run's interpolant read at x_s was up to 9.0e-12 off)
    params = derive_constants(p)
    c = params.b0 if c == "b0" else c
    rho_s = tol.rtol ** (1.0 / (2 * odecore.CENTER_K + 2))
    stretch = c ** ((p - 1) / 2.0)
    x_s = rho_s * stretch
    traj = center_trajectory(c, 0.5, params, tol)
    if x_s <= 0.05:
        assert traj.c_scale == 1.0 and traj.t[0] == rho_s
        x, start = x_s, (traj.y[0][0] / c, traj.y[1][0] / (c * stretch))
    else:
        run, k, outer = traj._run, traj._k, _parts(traj)[3]
        x = outer._t[0]
        assert traj.c_scale == c and traj.t[0] == 0.05 and traj.t[k] == x == run.t[k]
        assert x <= x_s < run.t[k + 1]
        start = outer._y[0][0], outer._y[1][0]
    if c == params.b0:
        ref = Trajectory(params, c, [x], ([1.0], [0.0]), None, TERM_REACHED_END)
    else:
        ref = _tight_shot(c, params, x, Tolerances(rtol=1e-13, atol=1e-30))
    assert max(_scaled_gap(c, params, x, *start, ref)) <= 1e-12
    # below the start the shot reads the sum pointwise on the kept run's steps:
    # 1e-11 relative to the reference's own interpolant
    if ref.dense is not None and x > 0.05:
        xq = x * np.geomspace(0.05 / x, 0.9, 6)
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
    # rho_end inside the center launch radius, given in rho: rho_s, where the
    # series in rho^2 hands over to the rescaled run (read off the series for
    # c = 0.5, off the kept run above), rtol^{1/4} for rho_end <= 2 rtol^{1/4};
    # and rho_end on the cone launch radius, are rejected by name
    rho_s = tol.rtol ** 0.25
    for c, rho0 in ((0.5, rho_s), (2.0, rho_s), (1e4, rho_s)):
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


KEPT_RUN = f"kept run V0..V{odecore.CENTER_K}"


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
    if name == KEPT_RUN:
        x0, V = odecore.mu_series_launch(p7, tol.rtol, tol.atol)
        return odecore.series_rhs(p7, odecore.CENTER_K), x0, V, 1e6
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
    # each step read rebuilds its 13 stages from its first node and adds its 3
    # interpolant stages: once all are read, scipy's RHS calls and 13 more per
    # step, and later evaluations reuse them
    dense(0.5 * (t[:-1] + t[1:]))
    assert len(calls) == ref_calls + 13 * steps
    dense(tq)
    assert len(calls) == ref_calls + 13 * steps
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


def _loop_stages(rhs, t, t_new, y):
    """A step's 13 stages from its first node as the loop stepper computes
    them, component by component."""
    f = rhs(t, tuple(y))
    return [k for K in _loop_step_stages(rhs, t, tuple(y), t_new - t, t_new, f)[2] for k in K]


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


_LOOP_STAGES = array("d")   # the 13 stages of each step of _loop_drive's last run


def _loop_drive(rhs, t, y, f, h_abs, t_end, direction, rtol, atol, blow_cap, h_min, max_steps):
    """drive_ode's step loop, one _loop_step call per step, in the generated
    loop's contract: (grid, states in one flat list, termination).  It records
    each accepted step's stages, component by component, in _LOOP_STAGES."""
    del _LOOP_STAGES[:]
    ts, ys = [t], [*y]
    while direction * (t - t_end) < 0:
        if len(ts) > max_steps:
            return ts, ys, TERM_STEP_LIMIT
        step = _loop_step(rhs, t, y, f, h_abs, t_end, direction, rtol, atol)
        if isinstance(step, str):
            return ts, ys, step
        t, y, f, h_abs, K = step
        for k in K:
            _LOOP_STAGES.extend(k)
        ts.append(t)
        ys += y
        if blow_cap is not None and abs(y[0]) > blow_cap:
            return ts, ys, TERM_BLEW_UP
        if h_abs < h_min and direction * (t - t_end) < 0:
            return ts, ys, TERM_STEP_UNDERFLOW
    return ts, ys, TERM_REACHED_END


def _rebuilt_stages(rhs, t, y) -> array:
    """Every step's 13 stages as the generated _stages rebuilds them from the
    step's first node, component by component, steps in turn."""
    stages = integrate_module._kernel(len(y), hasattr(rhs, "chart"), "_stages")
    return array("d", [k for i in range(len(t) - 1)
                       for k in stages(rhs, t[i], t[i + 1], [c[i] for c in y])])


def _with_loop_stepper(monkeypatch, run):
    """run() with the loop stepper, rhs called per stage, in place of the
    generated loop, stages and dense coefficients."""
    with monkeypatch.context() as mp:
        mp.setattr(integrate_module, "_kernel", lambda n, chart, name="_loop": {
            "_loop": _loop_drive, "_stages": _loop_stages, "_coeffs": _loop_coeffs}[name])
        return run()


@pytest.mark.parametrize("name", ["center c=2", "x-chart c=1e4", "cone b=0.7",
                                  "limit", "cone linearization", KEPT_RUN])
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
        # the stages rebuilt from each step's first node are those the loop
        # stepper took the step with; then the interpolant, whose stages each
        # side rebuilds on first use with its own stepper
        assert _rebuilt_stages(rhs, t, y) == _LOOP_STAGES
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
        assert _rebuilt_stages(rhs, t, y) == _rebuilt_stages(_call_form(rhs), t, y)
        # the interpolant's stages, computed in place and called
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


@pytest.mark.parametrize("y0", [(1.0,), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0)])
def test_drive_ode_needs_two_components(y0, tol):
    # pairs (u, u'): two components, or the 2K + 2 of a kept run
    with pytest.raises(ValueError, match="integrates pairs"):
        drive_ode(lambda t, y: y, 0.5, y0, 0.6, tol)


def test_rebuilt_stages_are_the_loops_bit_for_bit(p7, tol, monkeypatch):
    # no run keeps its stages: dense output rebuilds a step's 13 from its first
    # node with the loop's own stage lines, in place or called, and they are
    # the stages the loop stepper took the step with, so the interpolant is
    # the one its stages give
    for name in (KEPT_RUN, "center c=2"):
        rhs, t0, y0, t_end = _oracle_case(name, p7, tol)
        for r in (rhs, _call_form(rhs)):
            t, y, dense, _ = drive_ode(r, t0, y0, t_end, tol)
            t_ref, y_ref, _, _ = _with_loop_stepper(
                monkeypatch, lambda: drive_ode(r, t0, y0, t_end, tol))
            assert t == t_ref and y == y_ref
            n, w = len(y), 13 * len(y)
            rebuilt = _rebuilt_stages(r, t, y)
            for i in range(len(t) - 1):
                assert rebuilt[i * w:(i + 1) * w].tobytes() == \
                    _LOOP_STAGES[i * w:(i + 1) * w].tobytes(), (name, i)


@pytest.mark.parametrize("name", ["_loop", "_stages", "_coeffs"])
def test_kept_run_kernels_compile_within_a_bounded_peak(name):
    # each kernel is compiled on its own to bound the compiler's memory: for
    # the kept run's 2K + 2 = 18 components the peaks read 2.08, 2.04 and
    # 2.00 MB (Python 3.11; 1.74, 1.71 and 1.65 MB at K = 6), while for 14
    # components _stages and _coeffs merged into one source read 3.12 MB and
    # raised the benchmark's `family` peak RSS by 5.5%; K = 9's _coeffs reads
    # 2.63 MB
    tracemalloc.start()
    try:
        integrate_module._kernel.__wrapped__(2 * odecore.CENTER_K + 2, False, name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4e6, f"{name}: {peak / 1e6:.2f} MB"


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
    """The drive_ode run behind a trajectory's dense output: for a large-c
    centre shot, its outer run."""
    if isinstance(dense, integrate_module._CenterShot):
        return [dense._outer.dense]
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
    # the kept run (V0, V0', ..., V_K, V_K') itself, on the array path and on
    # the float path a center shot's head reads it by
    shot = oracle_shots["x-chart c=1e4"]
    run, mu, k, tail = _parts(shot)
    t, y = np.array(run._t), np.array(run._y)
    n = 2 * odecore.CENTER_K + 2
    assert len(run.coefficients(0)) == n * 7
    ref = OdeSolution(t, [Dop853DenseOutput(t[i], t[i + 1], y[:, i], _scipy_F(run, i))
                          for i in range(len(t) - 1)])
    q = np.concatenate((t, np.geomspace(t[0], t[-1], 300)))
    assert np.array_equal(run(q), ref(q))
    for x in q[::7].tolist():
        assert len(run(x)) == n and np.array_equal(run(x), ref(x))
    # a large-c centre shot: below the outer run's start, the kept run's node
    # k, sum_k (mu x^2)^k V_k of the kept run's nodes and, pointwise, of its
    # interpolant; then the outer run
    join = tail._t[0]
    assert join == run._t[k]
    point = integrate_module._sum_kernel(odecore.CENTER_K)[0]
    assert np.array_equal(np.array(shot.y)[:, :k], point(mu, t[:k], *y[:, :k]))
    q = np.concatenate((np.geomspace(t[0], tail._t[-1], 200), [join]))
    lo = q < join
    assert np.array_equal(shot(q)[:, lo], point(mu, q[lo], *ref(q[lo])))
    assert np.array_equal(shot(q)[:, ~lo], tail(q[~lo]))
    for x in (join, math.nextafter(join, -math.inf), float(q[50]), float(q[150])):
        assert np.array_equal(shot(x), point(mu, x, *ref(x)) if x < join else tail(x))
    # a node where the two steps meeting there disagree in the last bit (y[0]
    # + (y[1] - y[0]) != y[1]) shows which step OdeSolution's tie rule picks
    y = np.array([[1.0, 1e-17, 0.3], [2.0, -3e-17, 0.7]])
    for t in (np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5, 0.0])):
        dense = integrate_module._DenseOutput(lambda t, y: (0.0, 0.0), t.tolist(),
                                              tuple(y.tolist()))
        ref = OdeSolution(t, [Dop853DenseOutput(t[i], t[i + 1], y[:, i], _scipy_F(dense, i))
                              for i in range(2)])
        for q in (t, t[::-1], *t):
            assert np.array_equal(dense(q), ref(q))


def test_dense_coefficients_are_one_build_on_floats(oracle_shots):
    # the float path and the array path read the same per-step coefficients,
    # built once per step on floats with each of D's rows a plain left-to-right
    # sum over the 16 stages, so they do not depend on the host's BLAS kernel:
    # for the steps of the kept run a large-c centre shot reads and for its
    # outer run
    run, _, k, outer = _parts(oracle_shots["x-chart c=1e4"])
    for d, steps in ((run, k), (outer, len(outer._t) - 1)):
        on_array, on_floats = (integrate_module._DenseOutput(d._rhs, d._t, d._y)
                               for _ in range(2))
        q = [0.5 * (a + b) for a, b in zip(d._t[:steps], d._t[1:steps + 1])]
        assert np.array_equal(on_array(np.array(q)), np.array([on_floats(x) for x in q]).T)
        assert on_array._F.keys() == on_floats._F.keys() == set(range(steps))
        n = len(d._y)
        for i, F in on_array._F.items():
            t, t_new, y, yn = d._t[i], d._t[i + 1], [c[i] for c in d._y], [c[i + 1] for c in d._y]
            ref = _loop_coeffs(d._rhs, t, y, yn, t_new - t, _loop_stages(d._rhs, t, t_new, y))
            assert len(F) == 7 * n
            assert F.tobytes() == on_floats._F[i].tobytes() == np.array(ref).tobytes()