import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from blowup.integrate import Tolerances, center_trajectory, drive_ode, lightcone_trajectory
from blowup.model import derive_constants
from blowup.odecore import chart_rhs
from blowup import odecore
from blowup import asymptotics as asym, cli, integrate as integrate_module


@pytest.fixture(scope="module")
def limit_samples(p7):
    return asym.integrate_limit_equation(asym.DEFAULT_X_MAX, p7)


@pytest.fixture(scope="module")
def ringdown(limit_samples, p7):
    return asym.fit_limit_asymptotics(limit_samples, p7)


@pytest.fixture(scope="module")
def conefit(p7):
    return asym.solve_linearized_lightcone(1e-6, p7)


def test_limit_solution_settles(limit_samples, p7):
    # amplitude envelope at x = 1e16 is ~ A0 b_inf x^{-1/6} ~ 3e-4
    xs, Us, _ = limit_samples
    assert abs(xs[-1] ** p7.alpha * Us[-1] - p7.b_inf) < 1e-3
    assert xs[0] == pytest.approx(odecore.mu_series_launch(p7)[0], rel=1e-15)
    assert np.all(Us > 0)


def test_limit_equation_residual_by_differencing(limit_samples, p7):
    xs, Us, dUs = limit_samples
    ddU = np.gradient(dUs, xs)
    # U'' minus the limit equation's right-hand side, -(2/x)U' - U^p
    res = ddU - chart_rhs(p7, 0.0)(xs, (Us, dUs))[1]
    mid = slice(len(xs) // 10, -(len(xs) // 10))
    scale = np.abs(Us) ** p7.p + np.abs(dUs / xs)
    assert np.max(np.abs(res[mid]) / (scale[mid] + 1e-300)) < 5e-3


def test_ringdown_fit_recovers_spiral_eigenvalue(ringdown, p7):
    # damped oscillation exp(-tau/6) sin(omega tau + delta) with
    # omega = sqrt(188)/12 for p = 7
    assert p7.omega == pytest.approx(math.sqrt(188.0) / 12.0, rel=1e-15)
    assert ringdown.frequency == pytest.approx(p7.omega, abs=1e-3)
    assert ringdown.decay == pytest.approx(1.0 / 6.0, abs=5e-3)
    assert ringdown.residual < 1e-3
    assert ringdown.n_periods > 4.0
    assert ringdown.amplitude == pytest.approx(0.1986, abs=2e-3)


def test_ringdown_fit_stable_under_window_choice(limit_samples, ringdown, p7,
                                                monkeypatch):
    monkeypatch.setattr(asym, "TRANSIENT_PERIODS", 2.5)
    alt = asym.fit_limit_asymptotics(limit_samples, p7)
    assert abs(alt.amplitude - ringdown.amplitude) < 5e-4
    assert abs(alt.phase - ringdown.phase) < 5e-3


def test_lyapunov_descends_to_fixed_point_level(limit_samples, p7):
    tau, h = asym.limit_lyapunov(limit_samples, p7)
    assert np.all(np.diff(h) <= 1e-11)
    b = p7.b_inf
    h_eq = b ** (p7.p + 1) / (p7.p + 1) - (p7.p - 3.0) / (p7.p - 1.0) ** 2 * b * b
    assert h[0] > h_eq
    assert h[-1] == pytest.approx(h_eq, abs=1e-6)


def _fixed_point_eigenvalues_numeric(params):
    """The same pair from a central-difference Jacobian of the autonomous form."""
    p = params.p
    kdamp = (p - 5.0) / (p - 1.0)
    klin = 2.0 * (p - 3.0) / (p - 1.0) ** 2

    def rhs(y):
        ub, v = y
        return np.array([v, -kdamp * v - ub**p + klin * ub])

    y0 = np.array([params.b_inf, 0.0])
    eps = 1e-7
    J = np.empty((2, 2))
    for j in range(2):
        dy = np.zeros(2)
        dy[j] = eps * max(1.0, abs(y0[j]))
        J[:, j] = (rhs(y0 + dy) - rhs(y0 - dy)) / (2.0 * dy[j])
    ev = np.linalg.eigvals(J)
    ev = sorted(ev, key=lambda z: -z.imag)
    return complex(ev[0]), complex(ev[1])


def test_fixed_point_eigenvalues_closed_vs_numeric(p7):
    # closed form: decay -(p-5)/(2(p-1)) and the ringdown frequency omega
    decay = -(p7.p - 5.0) / (2.0 * (p7.p - 1.0))
    lam_p, lam_m = complex(decay, p7.omega), complex(decay, -p7.omega)
    assert lam_p.real == pytest.approx(-1.0 / 6.0, rel=1e-15)
    assert lam_p.imag == pytest.approx(p7.omega, rel=1e-15)
    assert lam_m == lam_p.conjugate()
    num_p, num_m = _fixed_point_eigenvalues_numeric(p7)
    assert abs(num_p - lam_p) < 1e-8
    assert abs(num_m - lam_m) < 1e-8


def test_cone_fit_short_window(p7):
    fit = asym.solve_linearized_lightcone(1e-4, p7)
    assert fit.residual < 1e-3
    assert fit.frequency == pytest.approx(p7.omega, abs=1e-3)
    assert fit.n_periods > 1.3


def test_cone_fit_long_window(conefit, p7):
    assert conefit.frequency == pytest.approx(p7.omega, abs=1e-4)
    assert conefit.decay == pytest.approx(1.0 / 6.0, abs=1e-4)
    assert conefit.amplitude == pytest.approx(1.4011, abs=5e-3)
    assert conefit.n_periods > 2.0


def test_linearization_matches_finite_difference(p7, tol):
    # the variational solution along the cone branch equals
    # b_inf * d(w)/d(b) at b = b_inf; check against a centered difference
    beta = asym._linearized_cone_coeffs(p7, 12)
    s0 = -1e-3
    w0 = float(np.polynomial.polynomial.polyval(s0, beta))
    dw0 = float(np.polynomial.polynomial.polyval(
        s0, np.polynomial.polynomial.polyder(beta)))
    _, _, dense, term = drive_ode(asym._linearized_cone_rhs(p7), 1.0 + s0,
                                  (w0, dw0), 0.25, tol, blow_cap=None)
    assert term == "reached_end"
    d = 1e-6
    hi = lightcone_trajectory(p7.b_inf * (1 + d), 0.25, p7, tol)
    lo = lightcone_trajectory(p7.b_inf * (1 - d), 0.25, p7, tol)
    for rho in (0.3, 0.5, 0.8):
        wl = float(dense(np.array([rho]))[0][0])
        fd = float(hi.w_of_t(rho)[0] - lo.w_of_t(rho)[0]) / (2.0 * d)
        assert fd == pytest.approx(wl, rel=1e-6)


def test_matched_amplitudes_alternate_and_converge(family, ringdown, conefit, p7):
    # the amplitude relation A0 c^{(5-p)/4} = +-A1 (b - b_inf)/b_inf on the
    # computed rows: the signed ratio alternates and its modulus tends to 1
    rows = list(family.rows)
    assert len(rows) >= 5
    p = p7.p
    vals = [ringdown.amplitude * r.c ** ((5.0 - p) / 4.0)
            / (conefit.amplitude * (r.b - p7.b_inf) / p7.b_inf) for r in rows]
    assert all(a * b < 0 for a, b in zip(vals[:-1], vals[1:]))
    m = [abs(v) for v in vals]
    assert abs(m[11] - 1.0) < 2e-3      # row n = 12
    for i in range(6, len(m) - 2):      # same-parity convergence to 1
        assert abs(m[i + 2] - 1.0) < abs(m[i] - 1.0)
    # the phase spacing ((p-1)/2) omega ln(c_{n+1}/c_n) / pi tends to 1
    ps = {a.n: 0.5 * (p - 1.0) * p7.omega * math.log(b.c / a.c) / math.pi
          for a, b in zip(rows[:-1], rows[1:])}
    assert abs(ps[11] - 1.0) < 2e-3
    assert abs(ps[12] - 1.0) < 2e-3
    assert abs(ps[12] - 1.0) < abs(ps[8] - 1.0)


def test_family_quotients_converge_to_predictions(family, p7):
    cs = [r.c for r in family.rows]
    bs = [r.b for r in family.rows]
    dc = [cs[i + 1] / cs[i] for i in range(len(cs) - 1)]
    db = [(bs[i + 1] - p7.b_inf) / (p7.b_inf - bs[i]) for i in range(len(bs) - 1)]
    ec = [abs(v - p7.ratio_c) for v in dc]
    eb = [abs(v - p7.ratio_b) for v in db]
    assert ec[11] < 1.3e-3
    assert eb[11] < 2e-3
    for i in range(3, len(ec) - 1):
        assert ec[i + 1] < ec[i]
        assert eb[i + 1] < eb[i]


def _lm_ringdown(t, y_raw, A0, delta0, omega0, decay0):
    """The ringdown fit as scipy's LM on all seven parameters of
    A e sin(omega t + delta) + e^2 (B sin(2 omega t + phB) + C), e = e^{-decay t},
    residuals divided by e; the time origin is the window start."""
    t0 = float(t[0])
    ts = t - t0
    de0 = (delta0 + omega0 * t0 + math.pi) % (2.0 * math.pi) - math.pi

    def resid(q):
        A, dec, om, de, B, phB, C = q
        env = np.exp(-dec * ts)
        model = A * env * np.sin(om * ts + de) \
            + env * env * (B * np.sin(2.0 * om * ts + phB) + C)
        return (model - y_raw) / env

    sol = least_squares(resid, x0=[A0 * math.exp(-decay0 * t0), decay0, omega0, de0,
                                   0.0, 0.0, 0.0],
                        method="lm", xtol=1e-15, ftol=1e-15)
    assert sol.success
    return sol.x[2], sol.x[1]


def _lm_damped(t, y_raw, A0, delta0, omega0, decay0):
    """The cone fit as scipy's LM on all four parameters of
    A e^{-decay t} sin(omega t + delta); the time origin is the window start."""
    t0 = float(t[0])
    ts = t - t0
    de0 = (delta0 + omega0 * t0 + math.pi) % (2.0 * math.pi) - math.pi

    def resid(q):
        A, dec, om, de = q
        return A * np.exp(-dec * ts) * np.sin(om * ts + de) - y_raw

    sol = least_squares(resid, x0=[A0 * math.exp(-decay0 * t0), decay0, omega0, de0],
                        method="lm", xtol=1e-14, ftol=1e-14)
    assert sol.success
    return sol.x[2], sol.x[1]


@pytest.mark.parametrize("p", [7, 31])
def test_varpro_fits_match_scipy_least_squares(p, monkeypatch):
    # both free fits are variable projections; the reference is scipy's LM on
    # the full parameter vector, started from the linear projection's
    # amplitude and phase and the predicted (omega, decay)
    P = derive_constants(p)
    lam = (p - 5.0) / (2.0 * (p - 1.0))
    bases = {}
    varpro = asym._varpro

    def spy(basis, omega0, decay0):
        bases[basis.__name__] = basis
        return varpro(basis, omega0, decay0)

    monkeypatch.setattr(asym, "_varpro", spy)
    xs, Us, dUs = asym.integrate_limit_equation(asym.DEFAULT_X_MAX, P)
    ring = asym.fit_limit_asymptotics((xs, Us, dUs), P)
    cone = asym.solve_linearized_lightcone(1e-6, P)

    # the ringdown window, selected from the samples as the fit selects it
    tau = np.log(xs)
    sel = (tau >= ring.window[0]) & (tau <= ring.window[1])
    w = (xs**P.alpha * Us)[sel] / P.b_inf - 1.0
    ref = _lm_ringdown(tau[sel], w, ring.amplitude, ring.phase, P.omega, lam)
    # the cone grid, and the samples of w_L on it that the fit received
    lo, hi = cone.window
    sigma = np.linspace(lo, hi, max(64, int(cone.n_periods * asym.SAMPLES_PER_PERIOD)))
    _, wl = bases["cone"](P.omega, lam)
    assert len(wl) == len(sigma)
    ref += _lm_damped(sigma, wl, cone.amplitude, cone.phase, P.omega, lam)

    got = (ring.frequency, ring.decay, cone.frequency, cone.decay)
    for g, r in zip(got, ref):
        assert g == pytest.approx(r, rel=1e-10, abs=0.0)


def test_fit_that_does_not_converge_is_a_compute_error(p7, monkeypatch, capsys):
    samples = asym.integrate_limit_equation(asym.DEFAULT_X_MAX, p7)
    monkeypatch.setattr(asym, "VARPRO_MAX_ITER", 1)
    with pytest.raises(RuntimeError, match="ringdown fit"):
        asym.fit_limit_asymptotics(samples, p7)
    with pytest.raises(RuntimeError, match="cone fit"):
        asym.solve_linearized_lightcone(1e-4, p7)
    assert cli.main(["limit"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("blowup: the ringdown fit did not converge "
                   "(Gauss-Newton iteration cap 1)\n")


def test_limit_samples_do_not_depend_on_what_ran_before(p7, tol, monkeypatch):
    # the samples are read off the kept K = 0 run, whose U0 is the center
    # shots' V0 to the bit, on its full steps only: built to LIMIT_REACH
    # (whose last full step covers DEFAULT_X_MAX, so it does not regrow), by a
    # limit request before or after center shots, and after a request to
    # x_max = 1e40 regrows it to 1e80, they are the same to the bit
    runs, kept = {}, integrate_module._limit_tol(p7, tol)   # the tolerances the runs step at
    monkeypatch.setattr(integrate_module, "_LIMIT_RUNS", runs)
    first = asym.integrate_limit_equation(asym.DEFAULT_X_MAX, p7, tol)
    run = runs[p7, kept, 0][0]
    assert run.t[-1] == integrate_module.LIMIT_REACH and run.t[-2] > asym.DEFAULT_X_MAX
    runs.clear()
    center_trajectory(1e3, 0.5, p7, tol)
    assert list(runs) == [(p7, kept, odecore.CENTER_K)]
    again = asym.integrate_limit_equation(asym.DEFAULT_X_MAX, p7, tol)
    assert runs[p7, kept, 0][0].t[-1] == integrate_module.LIMIT_REACH
    assert runs[p7, kept, 0][0].y == runs[p7, kept, odecore.CENTER_K][0].y[:2]
    asym.integrate_limit_equation(1e40, p7, tol)
    assert runs[p7, kept, 0][0].t[-1] == pytest.approx(1e80)
    regrown = asym.integrate_limit_equation(asym.DEFAULT_X_MAX, p7, tol)
    assert len(first) == 3
    for a, b, c in zip(first, again, regrown):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_window_guards(p7):
    with pytest.raises(ValueError):
        asym.integrate_limit_equation(0.5, p7)
    short = asym.integrate_limit_equation(1e6, p7)
    with pytest.raises(asym.InsufficientSpanError):
        asym.fit_limit_asymptotics(short, p7)
    with pytest.raises(ValueError):
        asym.solve_linearized_lightcone(0.6, p7)
    with pytest.raises(asym.InsufficientSpanError):
        asym.solve_linearized_lightcone(0.1, p7)
