import math

import numpy as np
import pytest

from blowup.model import ProfileState, derive_constants, du_singular, u_singular
from blowup import odecore
from blowup.odecore import (
    SeriesRangeError,
    SingularPointError,
    center_launch,
    center_launch_rescaled,
    equation_residual,
    lightcone_launch,
    limit_launch,
    rhs_interior,
    series_at_center,
    series_at_lightcone,
)
from reference_values import ORACLES


def test_rhs_interior_values(p7):
    # constant solution is an equilibrium of the radial part
    assert rhs_interior(ProfileState(0.5, p7.b0, 0.0), p7) == pytest.approx(0.0, abs=1e-15)
    # hand-evaluated point: (4/9 - 1)/(3/4) = -20/27
    assert rhs_interior(ProfileState(0.5, 1.0, 0.0), p7) == pytest.approx(-20.0 / 27.0, rel=1e-14)


def test_rhs_interior_rejects_singular_points(p7):
    with pytest.raises(SingularPointError):
        rhs_interior(ProfileState(0.0, 1.0, 0.0), p7)
    with pytest.raises(SingularPointError):
        rhs_interior(ProfileState(1.0, 1.0, 0.0), p7)


def test_residual_vanishes_on_exact_solutions(p7):
    al = p7.alpha
    for rho in (0.15, 0.5, 0.85, 1.3):
        u = u_singular(p7, rho)
        du = du_singular(p7, rho)
        ddu = al * (al + 1.0) * p7.b_inf * rho ** (-al - 2.0)
        assert equation_residual(rho, u, du, ddu, p7) == pytest.approx(0.0, abs=1e-12)
        assert equation_residual(rho, p7.b0, 0.0, 0.0, p7) == pytest.approx(0.0, abs=1e-15)


def test_center_series_even_and_coefficient_oracle(p7):
    c1 = 2.054390385
    a = odecore._center_coeffs(c1, p7, 8, mu=1.0)
    assert np.all(a[1::2] == 0.0)
    assert a[0] == c1
    assert a[2] == pytest.approx((p7.aa1 * c1 - c1**p7.p) / 6.0, rel=1e-14)
    assert a[2] == pytest.approx(ORACLES["a2_c1"], rel=1e-10)


def test_center_series_solves_equation(p7):
    # the truncated series must satisfy the equation to truncation order
    c = 1.7
    rho = 5e-4
    st = series_at_center(c, rho, p7, order=8)
    h = 1e-5
    dm = series_at_center(c, rho - h, p7, order=8).du
    dp = series_at_center(c, rho + h, p7, order=8).du
    ddu_fd = (dp - dm) / (2.0 * h)
    assert ddu_fd == pytest.approx(rhs_interior(st, p7), rel=1e-6)


def test_center_launch_validates_offset(p7):
    start = center_launch(2.0, p7, rtol=1e-12, atol=1e-14)
    assert 0 < start.rho0 <= 1e-3
    assert start.trunc_error_est <= 1e-12 * 2.0 + 1e-14
    # large amplitude shrinks the cap with the series convergence radius
    big = center_launch(1e4, p7)
    assert big.rho0 <= 0.02 * 1e4 ** (-3.0)


def test_lightcone_slope_closed_form(p7):
    p = p7.p
    for b in (0.3, p7.b_inf, p7.b0, 1.1):
        beta = odecore._lightcone_coeffs(b, p7, 3)
        b1 = (p - 1) * b**p / 4.0 - (p + 1) * b / (2.0 * (p - 1))
        assert beta[1] == pytest.approx(b1, rel=1e-13, abs=1e-15)
    # constant solution: flat; singular amplitude: the scale-invariant slope
    assert odecore._lightcone_coeffs(p7.b0, p7, 2)[1] == pytest.approx(0.0, abs=1e-14)
    assert odecore._lightcone_coeffs(p7.b_inf, p7, 2)[1] == pytest.approx(
        -p7.alpha * p7.b_inf, rel=1e-13)


def test_lightcone_second_coefficient_oracle(p7):
    beta = odecore._lightcone_coeffs(p7.b_inf, p7, 3)
    assert beta[2] == pytest.approx(0.17294927027244679, rel=1e-12)


def test_lightcone_series_matches_singular_solution(p7):
    # at b = b_inf the analytic branch IS the singular solution
    for rho in (0.97, 0.995, 1.005, 1.03):
        st = series_at_lightcone(p7.b_inf, rho, p7, order=10)
        assert st.u == pytest.approx(u_singular(p7, rho), rel=1e-9)
        assert st.du == pytest.approx(du_singular(p7, rho), rel=1e-7)


def test_lightcone_launch_both_sides(p7):
    inner = lightcone_launch(0.7, p7, side=-1)
    outer = lightcone_launch(0.7, p7, side=+1)
    assert inner.rho0 < 1.0 < outer.rho0
    assert inner.trunc_error_est <= 1e-12 * 0.7 + 1e-14
    with pytest.raises(ValueError):
        lightcone_launch(0.7, p7, side=0)


def test_series_range_guard(p7):
    with pytest.raises(SeriesRangeError):
        # far outside the convergence radius of the large-amplitude series
        series_at_center(50.0, 0.5, p7)


def test_rescaled_chart_consistency(p7):
    # u(rho) = c U(rho c^{(p-1)/2}) maps the two center series onto each other
    c = 3.0
    k = c ** ((p7.p - 1) / 2.0)
    plain = odecore._center_coeffs(c, p7, 10, mu=1.0)
    scaled = odecore._center_coeffs(1.0, p7, 10, mu=c ** (-(p7.p - 1)))
    for rho in (1e-4, 3e-4):
        u_p, du_p, _ = odecore._series_eval(plain, rho, 8)
        u_s, du_s, _ = odecore._series_eval(scaled, rho * k, 8)
        assert c * u_s == pytest.approx(u_p, rel=1e-12)
        assert c ** ((p7.p + 1) / 2.0) * du_s == pytest.approx(du_p, rel=1e-10)


def test_limit_launch_curvature(p7):
    # U'' (0) = -U(0)^p / 3 = -1/3 at unit amplitude
    x0, U, dU, est = limit_launch(p7)
    assert U == pytest.approx(1.0, abs=1e-6)
    assert dU / x0 == pytest.approx(-1.0 / 3.0, rel=1e-5)
    assert est <= 1e-12 + 1e-14


# -- symbolic derivations ------------------------------------------------------


def _symbolic_setup(p_val: int):
    import sympy as sp

    rho = sp.symbols("rho", positive=True)
    u = sp.Function("u", real=True)(rho)
    p = sp.Integer(p_val)
    al = sp.Rational(2, p_val - 1)
    aa1 = al * (al + 1)
    ddu = ((aa1 * u - u**p - (2 / rho - (2 + 2 * al) * rho) * sp.diff(u, rho))
           / (1 - rho**2))
    return sp, rho, u, p, al, aa1, ddu


def test_energy_derivative_symbolic():
    sp, rho, u, p, al, aa1, ddu = _symbolic_setup(7)
    H = (1 - rho**2) * sp.diff(u, rho) ** 2 / 2 + u ** (p + 1) / (p + 1) - aa1 * u**2 / 2
    dH = sp.diff(H, rho).subs(sp.diff(u, rho, 2), ddu)
    expected = -sp.diff(u, rho) ** 2 * (2 / rho - sp.Rational(7 + 3, 7 - 1) * rho)
    assert sp.simplify(dH - expected) == 0


def test_virial_conserved_at_critical_exponent_symbolic():
    sp, rho, u, p, al, aa1, ddu = _symbolic_setup(5)
    q2 = sp.Rational(3 * (5 - 5), 4 * (5 - 1)) - sp.Rational(2, (5 - 1) ** 2)
    Q = ((1 - rho**2) * rho**3 * sp.diff(u, rho) ** 2 / 2
         + rho**2 * (1 - rho**2) * u * sp.diff(u, rho) / 2
         + q2 * rho**3 * u**2 + rho**3 * u ** (p + 1) / (p + 1))
    dQ = sp.diff(Q, rho).subs(sp.diff(u, rho, 2), ddu)
    assert sp.simplify(dQ) == 0


def test_virial_decreasing_above_critical_symbolic():
    sp, rho, u, p, al, aa1, ddu = _symbolic_setup(7)
    q2 = sp.Rational(3 * (5 - 7), 4 * (7 - 1)) - sp.Rational(2, (7 - 1) ** 2)
    Q = ((1 - rho**2) * rho**3 * sp.diff(u, rho) ** 2 / 2
         + rho**2 * (1 - rho**2) * u * sp.diff(u, rho) / 2
         + q2 * rho**3 * u**2 + rho**3 * u ** (p + 1) / (p + 1))
    dQ = sp.simplify(sp.diff(Q, rho).subs(sp.diff(u, rho, 2), ddu))
    # the derivative collapses to -(p-5)/(2(p+1)) rho^2 [ u^{p+1} + extra u^2 term ]
    du_s, u_s, r_s = sp.symbols("du_s u_s r_s", real=True)
    expr = sp.lambdify((r_s, u_s, du_s),
                       dQ.subs({sp.diff(u, rho): du_s, u: u_s, rho: r_s}), "numpy")
    rng = np.random.default_rng(11)
    for _ in range(200):
        r = rng.uniform(0.01, 0.99)
        uu = rng.uniform(-3.0, 3.0)
        dd = rng.uniform(-10.0, 10.0)
        assert expr(r, uu, dd) <= 1e-12


def test_deviation_energy_derivative_symbolic():
    sp, rho, u, p, al, aa1, ddu = _symbolic_setup(7)
    binf = sp.symbols("binf", positive=True)
    binf_val = sp.Rational(2 * (7 - 3), (7 - 1) ** 2) ** sp.Rational(1, 7 - 1)
    v = rho**al * u / binf
    rv = sp.diff(v, rho) * rho
    a1m = al * (1 - al)
    Hv = (1 - rho**2) * rv**2 / 2 + a1m * (v ** (p + 1) / (p + 1) - v**2 / 2)
    kap = sp.Rational(2 * (7 - 3), 7 - 1)
    expected = -(kap - 1) * rho * sp.diff(v, rho) ** 2
    diff = sp.diff(Hv, rho).subs(sp.diff(u, rho, 2), ddu) - expected
    assert sp.simplify(diff.subs(binf, binf_val)) == 0


def test_deviation_equation_symbolic():
    # substituting u = binf rho^{-alpha}(1 + w) must produce
    # rho^2(1-rho^2) w'' + (kappa rho - 2 rho^3) w' + alpha(1-alpha)((1+w)^p - (1+w)) = 0
    sp = pytest.importorskip("sympy")
    rho = sp.symbols("rho", positive=True)
    w = sp.Function("w", real=True)(rho)
    p_val = 7
    p = sp.Integer(p_val)
    al = sp.Rational(2, p_val - 1)
    aa1 = al * (al + 1)
    binf = sp.Rational(2 * (p_val - 3), (p_val - 1) ** 2) ** sp.Rational(1, p_val - 1)
    u = binf * rho ** (-al) * (1 + w)
    lhs = ((1 - rho**2) * sp.diff(u, rho, 2)
           + (2 / rho - (2 + 2 * al) * rho) * sp.diff(u, rho)
           - aa1 * u + u**p)
    kap = 2 * sp.Rational(p_val - 3, p_val - 1)
    target = (rho**2 * (1 - rho**2) * sp.diff(w, rho, 2)
              + (kap * rho - 2 * rho**3) * sp.diff(w, rho)
              + al * (1 - al) * ((1 + w) ** p - (1 + w)))
    scale = binf * rho ** (-al) / rho**2
    assert sp.simplify(sp.expand(lhs - scale * target)) == 0


def test_linearized_cone_recurrence_solves_equation(p7):
    # the series of the cone-regular linearization must satisfy
    # rho^2(1-rho^2) wl'' + (kappa rho - 2 rho^3) wl' + kappa wl = 0
    from blowup.asymptotics import _linearized_cone_coeffs

    kap = 2.0 * (p7.p - 3.0) / (p7.p - 1.0)
    beta = _linearized_cone_coeffs(p7, 14)
    assert beta[0] == 1.0
    assert beta[1] == pytest.approx((p7.p - 3.0) / 2.0, rel=1e-14)
    poly = np.polynomial.Polynomial(beta)
    dpoly = poly.deriv()
    ddpoly = dpoly.deriv()
    for s in (-0.02, -0.005, 0.01):
        rho = 1.0 + s
        resid = (rho**2 * (1 - rho**2) * ddpoly(s)
                 + (kap * rho - 2 * rho**3) * dpoly(s) + kap * poly(s))
        assert abs(resid) < 1e-12
