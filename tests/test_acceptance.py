"""End-to-end acceptance gate for the solver.

Each test covers one numbered claim about the computed family and prints a
single summary line on success; tolerances are pinned and should be treated
as a contract, not tuned.
"""

import math
import time

import numpy as np
import pytest

from blowup.model import (ProfileState, _derive_unchecked, derive_constants,
                          du_singular, u_singular)
from blowup.integrate import (TERM_REACHED_END, Tolerances, center_trajectory,
                              integrate)
from blowup import asymptotics as asym
from blowup import diagnostics as diag
from blowup import shoot
from reference_values import (B_INF_TABLE, FAMILY_TABLE, ORACLES,
                              RATIO_B_TABLE, RATIO_C_TABLE)


def test_criterion_01_limit_constants(p7):
    assert abs(p7.b_inf - B_INF_TABLE) < 1e-8
    assert abs(p7.ratio_c - RATIO_C_TABLE) < 5e-4
    assert abs(p7.ratio_b - RATIO_B_TABLE) < 5e-4
    print(f"[criterion 01] PASS: b_inf={p7.b_inf:.9f} (table {B_INF_TABLE}), "
          f"ratios {p7.ratio_c:.4f}/{p7.ratio_b:.4f}")


def test_criterion_02_first_six_members(p7, tol):
    t0 = time.perf_counter()
    fam = shoot.spectrum(6, p7, tol)
    dt = time.perf_counter() - t0
    assert dt < 300.0
    worst_c = worst_b = 0.0
    for row in fam.rows:
        c_ref, b_ref, _, _ = FAMILY_TABLE[row.n]
        worst_c = max(worst_c, abs(row.c - c_ref) / c_ref)
        worst_b = max(worst_b, abs(row.b - b_ref))
    assert worst_c < 1e-5
    assert worst_b < 1e-6
    print(f"[criterion 02] PASS: n=1..6 in {dt:.1f}s, "
          f"max rel c err {worst_c:.2e}, max abs b err {worst_b:.2e}")


def test_criterion_03_deep_members_and_quotients(family, p7):
    worst = 0.0
    for row in family.rows[6:12]:
        c_ref, b_ref, _, _ = FAMILY_TABLE[row.n]
        worst = max(worst, abs(row.c - c_ref) / c_ref, abs(row.b - b_ref) / b_ref)
    assert worst < 1e-4
    worst_q = 0.0
    rows = family.rows
    for i in range(10):
        dc = rows[i + 1].c / rows[i].c
        db = (rows[i + 1].b - p7.b_inf) / (p7.b_inf - rows[i].b)
        _, _, dc_ref, db_ref = FAMILY_TABLE[i + 1]
        worst_q = max(worst_q, abs(dc - dc_ref), abs(db - db_ref))
    assert worst_q < 1e-3
    print(f"[criterion 03] PASS: n=7..12 max rel err {worst:.2e}, "
          f"quotient columns n<=10 max abs err {worst_q:.2e}")


def test_criterion_04_nodal_structure(family, p7, tol):
    for row in family.rows[:12]:
        zs = diag.w_zero_locations(row.trajectory, p7)
        assert len(zs) == row.n + 1
        assert diag.phase_zero_count(row.trajectory, p7) == row.n + 1
    res0 = shoot.constant_solution_result(p7, tol)
    zs0 = diag.w_zero_locations(res0.trajectory, p7)
    assert len(zs0) == 1
    assert abs(zs0[0] - 1.0 / math.sqrt(2.0)) < 1e-9
    print(f"[criterion 04] PASS: zeros n+1 for n=1..12 (both counters), "
          f"constant-solution zero at {zs0[0]:.12f}")


def test_criterion_05_monotone_functionals(family, p7):
    worst_drift = 0.0
    for row in family.rows[:8]:
        rep = diag.monotonicity_report(row.trajectory, p7)
        assert rep.passed, row.n
        worst_drift = max(worst_drift,
                          max(c.max_rise_scaled for c in rep.checks.values()))
        rho, u, du = row.trajectory.profile_samples()
        q = diag.eval_virial(rho, u, du, p7)
        assert np.all(q <= 1e-12)
        r0, u0 = float(rho[0]), float(u[0])
        q2 = 3.0 * (5 - p7.p) / (4.0 * (p7.p - 1)) - 2.0 / (p7.p - 1) ** 2
        ddu0 = (p7.aa1 * u0 - u0 ** p7.p) / 3.0
        scale = r0**3 * (abs(q2) * u0**2 + u0 ** (p7.p + 1) / (p7.p + 1)
                         + abs(u0 * ddu0))
        assert abs(float(q[0])) <= 100.0 * scale + 1e-10
    P5 = _derive_unchecked(5)
    tol5 = Tolerances()
    rng = np.random.default_rng(20260816)
    worst5 = 0.0
    for c in 0.3 + 2.2 * rng.random(10):
        traj = center_trajectory(float(c), 0.999, P5, tol5)
        rho, u, du = traj.profile_samples()
        q = diag.eval_virial(rho, u, du, P5)
        worst5 = max(worst5, float(np.max(np.abs(q - q[0]))
                                   / (1.0 + abs(float(q[0])))))
    assert worst5 < 1e-9
    print(f"[criterion 05] PASS: H/Q/Hv monotone (worst scaled rise "
          f"{worst_drift:.1e}), Q<=0 with clean origin limit, "
          f"critical-exponent conservation drift {worst5:.1e}")


def _closed_form_error(p7, tol):
    rho0, rho1 = 0.1, 0.9
    start = ProfileState(rho0, u_singular(p7, rho0), du_singular(p7, rho0))
    traj = integrate(start, rho1, p7, tol)
    assert traj.termination == TERM_REACHED_END
    grid = np.linspace(rho0, rho1, 33)
    u, _ = traj.eval(grid)
    ref = p7.b_inf * grid ** (-p7.alpha)
    return float(np.max(np.abs(u - ref) / ref))


def test_criterion_06_closed_form_reproduction(p7, tol):
    err = _closed_form_error(p7, tol)
    assert err < 1e-8
    errs = [_closed_form_error(p7, Tolerances(rtol=rt, atol=rt * 1e-2))
            for rt in (1e-6, 1e-8, 1e-10)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] > 1e2
    print(f"[criterion 06] PASS: singular solution reproduced to {err:.1e}; "
          f"order study {errs[0]:.1e} -> {errs[1]:.1e} -> {errs[2]:.1e}")


def test_criterion_07_limit_ringdown(p7):
    samples = asym.integrate_limit_equation(asym.DEFAULT_X_MAX, p7)
    fit = asym.fit_limit_asymptotics(samples, p7)
    om_ref = math.sqrt(188.0) / 12.0
    assert abs(fit.frequency - om_ref) < 1e-3
    assert abs(fit.decay - 1.0 / 6.0) < 5e-3
    _, h = asym.limit_lyapunov(samples, p7)
    assert np.all(np.diff(h) <= 1e-11)
    print(f"[criterion 07] PASS: ringdown omega={fit.frequency:.6f} "
          f"(target {om_ref:.6f}), decay={fit.decay:.6f} (target 0.166667), "
          f"descent function non-increasing")


def test_criterion_08_phase_spacing_arithmetic(p7):
    c13 = FAMILY_TABLE[13][0]
    c14 = FAMILY_TABLE[14][0]
    val = 0.5 * (p7.p - 1.0) * p7.omega * math.log(c14 / c13) / math.pi
    assert val == pytest.approx(ORACLES["phase_spacing_13"], rel=1e-12)
    assert abs(val - 1.0) < 2e-3
    print(f"[criterion 08] PASS: normalized phase spacing at n=13 is "
          f"{val:.7f} (|err| {abs(val-1):.1e} < 2e-3)")


def test_criterion_09_outward_extension(u1, p7, tol):
    rep = diag.extend_beyond_lightcone(u1.b, p7, rho_max=100.0, tol=tol)
    assert rep.passed
    assert rep.monotone and rep.positive and rep.below_b0
    assert 0.0 < rep.u_final < rep.max_u < p7.b0
    assert rep.min_decay_margin > 0.0
    print(f"[criterion 09] PASS: first member extends to rho=100 inside "
          f"(0, b0), monotone, decay margin >= {rep.min_decay_margin:.4f}")


def test_criterion_10_structural_claims(family, p7, tol):
    for row in family.rows:
        assert row.b < p7.b0
        assert (row.b - p7.b_inf) * (-1.0) ** row.n > 0.0
    for c in (5.0, 10.0, 50.0):
        rep = diag.first_crossing_report(c, p7, tol)
        assert rep.passed
    d7 = diag.discriminant_report(derive_constants(7))
    assert abs(d7.closed_form - (-11.97805)) < 1e-5 or \
        abs(d7.closed_form - ORACLES["discriminant_p7"]) < 1e-12
    assert abs(d7.closed_form - ORACLES["discriminant_p7"]) < 1e-10
    for p in (7, 9, 11):
        rep = diag.discriminant_report(derive_constants(p))
        assert rep.all_negative and rep.decreasing
        assert rep.closed_form < 0.0
    print(f"[criterion 10] PASS: b_n < b0 with alternation around b_inf, "
          f"first-crossing bounds hold at c=5/10/50, discriminant "
          f"{d7.closed_form:.6f} < 0 for p=7,9,11")
