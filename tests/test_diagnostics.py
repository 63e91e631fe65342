import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

from blowup.model import ProfileState, _derive_unchecked, du_singular, u_singular
from blowup.integrate import TERM_REACHED_END, Tolerances, center_trajectory, lightcone_trajectory
from blowup import diagnostics as diag
from blowup import shoot
from reference_values import ORACLES


def test_energy_of_constant_solution(p7):
    H = diag.eval_energy(0.37, p7.b0, 0.0, p7)
    assert float(H) == pytest.approx(ORACLES["H_const"], rel=1e-13)
    # the same number is the global floor of the potential part, so every
    # profile obeys H(rho) >= H_const pointwise
    assert float(diag.eval_energy(0.0, p7.b0, 0.0, p7)) == pytest.approx(
        ORACLES["H_const"], rel=1e-13)


def test_energy_lower_bound_pointwise(family, p7):
    for row in family.rows[:6]:
        rho, u, du = row.trajectory.profile_samples()
        H = diag.eval_energy(rho, u, du, p7)
        assert np.all(H >= ORACLES["H_const"] - 1e-12)


def test_virial_of_constant_solution_at_cone(p7):
    Q1 = diag.eval_virial(1.0, p7.b0, 0.0, p7)
    assert float(Q1) == pytest.approx(ORACLES["Q1_const"], rel=1e-13)


def test_deviation_energy_floor_and_minimizer(p7):
    # exact equality on the singular solution, on both sides of the cone
    for rho in (0.3, 0.8, 1.0, 1.7):
        val = diag.eval_deviation_energy(
            rho, u_singular(p7, rho), du_singular(p7, rho), p7)
        assert float(val) == pytest.approx(ORACLES["Hv_min"], rel=1e-12)
    with pytest.raises(ValueError):
        diag.eval_deviation_energy(0.0, 1.0, 0.0, p7)


def test_deviation_energy_floor_on_profiles(family, p7):
    floor = ORACLES["Hv_min"]
    for row in family.rows[:6]:
        rho, u, du = row.trajectory.profile_samples()
        keep = rho > 0
        vals = diag.eval_deviation_energy(rho[keep], u[keep], du[keep], p7)
        assert np.all(vals >= floor - 1e-12)


def test_monotonicity_on_family(family):
    for row in family.rows[:8]:
        rep = diag.monotonicity_report(row.trajectory)
        assert rep.passed, (row.n, {k: v.max_rise_scaled for k, v in rep.checks.items()})
        assert set(rep.checks) == {"energy", "virial", "deviation_energy"}


def test_monotonicity_on_constant_solution(p7, tol):
    res = shoot.constant_solution_result(p7, tol)
    rep = diag.monotonicity_report(res.trajectory)
    assert rep.passed
    # H is exactly constant there; Q strictly decreases
    assert rep.checks["energy"].max_drift_scaled < 1e-12
    assert rep.checks["virial"].final < rep.checks["virial"].initial


def test_virial_nonpositive_and_center_limit(family, p7):
    for row in family.rows[:8]:
        rho, u, du = row.trajectory.profile_samples()
        q = diag.eval_virial(rho, u, du, p7)
        assert np.all(q <= 1e-12)
        # every term carries rho^2 or rho^3: the first sample must sit at
        # its natural cubic size rather than at some stray finite value
        r0, u0 = float(rho[0]), float(u[0])
        q2 = 3.0 * (5 - p7.p) / (4.0 * (p7.p - 1)) - 2.0 / (p7.p - 1) ** 2
        ddu0 = (p7.aa1 * u0 - u0 ** p7.p) / 3.0
        scale = r0**3 * (abs(q2) * u0**2 + u0 ** (p7.p + 1) / (p7.p + 1)
                         + abs(u0 * ddu0))
        assert abs(float(q[0])) <= 100.0 * scale + 1e-10


def test_critical_exponent_conserves_virial():
    P5 = _derive_unchecked(5)
    tol = Tolerances()
    rng = np.random.default_rng(20260816)
    for c in 0.3 + 2.2 * rng.random(10):
        traj = center_trajectory(float(c), 0.999, P5, tol)
        assert traj.termination == TERM_REACHED_END
        rho, u, du = traj.profile_samples()
        q = diag.eval_virial(rho, u, du, P5)
        drift = np.max(np.abs(q - q[0])) / (1.0 + abs(float(q[0])))
        assert drift < 1e-9


def test_phase_count_agrees_with_sign_count(family):
    for row in family.rows:
        zs = diag.w_zero_locations(row.trajectory)
        assert len(zs) == diag.phase_zero_count(row.trajectory) == row.n + 1


def _recursive_phase_walk(traj):
    """The phase walk as it ran before it walked floats, kept as its
    reference: (rho, w, rw, theta) per node, each step through advance."""
    pts, theta = [], None

    def push(rho, w, rw, th):
        R = math.hypot(w, rw)
        if R < diag.R_DEGENERATE:
            raise diag.DegenerateTrajectoryError(
                f"phase radius {R:.2e} at rho={rho:.6g}; the deviation "
                "trajectory is indistinguishable from the singular solution")
        pts.append((rho, w, rw, th))

    for piece in traj.pieces:
        t, w, rw, k = diag._piece_chain(piece)

        def advance(t_a, th_a, t_b, w_b, rw_b, depth=0):
            d = diag._principal(math.atan2(rw_b, w_b) - th_a)
            if abs(d) <= diag.PHASE_MAX_STEP:
                push(t_b * k, w_b, rw_b, th_a + d)
                return th_a + d
            if depth >= 48:
                raise diag.DegenerateTrajectoryError(
                    f"phase refinement stalled near rho={t_b * k:.6g}")
            t_m = 0.5 * (t_a + t_b)
            w_m, rw_m = piece.w_of_t(t_m)
            th_m = advance(t_a, th_a, t_m, float(w_m), float(rw_m), depth + 1)
            return advance(t_m, th_m, t_b, w_b, rw_b, depth + 1)

        start = math.atan2(rw[0], w[0])
        if theta is None:
            theta = start
            push(t[0] * k, float(w[0]), float(rw[0]), theta)
        else:
            theta = theta + diag._principal(start - theta)
        for i in range(len(t) - 1):
            theta = advance(t[i], theta, t[i + 1], float(w[i + 1]), float(rw[i + 1]))
    return pts


def _level_crossings(pts):
    levels = [math.floor((q[3] - 0.5 * math.pi) / math.pi) for q in pts]
    return sum(abs(b - a) for a, b in zip(levels[:-1], levels[1:]))


def test_phase_walk_on_floats_is_the_recursive_walk_bit_for_bit(family, p7, monkeypatch):
    def same(traj, n):
        ref = _recursive_phase_walk(traj)
        ours = diag.phase_trajectory(traj)
        assert all(np.array_equal(a, b) for a, b in zip(ours, np.array(ref).T))
        assert diag.phase_zero_count(traj) == _level_crossings(ref) == n + 1
        return len(ref)

    for row in family.rows:
        same(row.trajectory, row.n)
    # a narrow phase step sends most nodes through the refinement
    monkeypatch.setattr(diag, "PHASE_MAX_STEP", 0.02)
    for row in family.rows[:3]:
        nodes = sum(len(piece.t) for piece in row.trajectory.pieces)
        assert same(row.trajectory, row.n) > 1.5 * nodes
    # a degenerate deviation stops both walks with the same message
    traj = lightcone_trajectory(p7.b_inf, 0.5, p7, Tolerances())
    with pytest.raises(diag.DegenerateTrajectoryError) as ref:
        _recursive_phase_walk(traj)
    with pytest.raises(diag.DegenerateTrajectoryError, match=re.escape(str(ref.value))):
        diag.phase_trajectory(traj)


def test_phase_anchor_and_cone_value_constant_solution(p7, tol):
    res = shoot.constant_solution_result(p7, tol)
    rho, _, _, theta = diag.phase_trajectory(res.trajectory)
    # u is identically b0, so the anchor is exact arithmetic: the deviation
    # sits at (x - 1, alpha x) with x = (b0/b_inf) rho^alpha, second quadrant,
    # at the kept run's launch rho = 0.05 b0^{-3} = 0.075 (2.85; it tends to
    # pi as the launch radius shrinks)
    assert rho[0] == pytest.approx(0.05 / p7.b0 ** 3, rel=1e-15)
    x = (p7.b0 / p7.b_inf) * rho[0] ** p7.alpha
    assert theta[0] == pytest.approx(math.atan2(p7.alpha * x, x - 1.0), rel=1e-9)
    assert math.pi / 2.0 < theta[0] < math.pi
    # at the cone: w = b0/b_inf - 1, rw = alpha b0/b_inf, pure arithmetic
    ratio = p7.b0 / p7.b_inf
    theta1 = math.atan2(p7.alpha * ratio, ratio - 1.0)
    assert theta1 == pytest.approx(ORACLES["theta1_const"], rel=1e-12)
    assert diag.phase_at(res.trajectory, rho[-1]) == pytest.approx(
        theta1, abs=5e-3)


def test_phase_drops_by_pi_per_family_index(family):
    # each successive profile makes one extra half-turn by any fixed radius
    # inside; the drop approaches exactly pi as the window fills in
    thetas = [diag.phase_at(row.trajectory, 0.1) for row in family.rows]
    drops = [a - b for a, b in zip(thetas[:-1], thetas[1:])]
    for k, d in enumerate(drops, start=1):
        if k >= 6:
            assert d == pytest.approx(math.pi, abs=0.2), f"drop at n={k}"
    assert abs(drops[-1] - math.pi) < abs(drops[5] - math.pi)


def test_degenerate_deviation_raises(p7, tol):
    # launching the cone branch exactly at the singular amplitude gives
    # w = rw = 0 identically: no phase is defined there
    traj = lightcone_trajectory(p7.b_inf, 0.5, p7, tol)
    with pytest.raises(diag.DegenerateTrajectoryError):
        diag.phase_trajectory(traj)


def test_first_crossing_bounds(p7, tol):
    oracle = {5.0: ORACLES["crossing_bound_c5"],
              10.0: ORACLES["crossing_bound_c10"],
              50.0: ORACLES["crossing_bound_c50"]}
    for c, bound in oracle.items():
        rep = diag.first_crossing_report(c, p7, tol)
        assert rep.crossing_bound == pytest.approx(bound, rel=1e-10)
        assert rep.passed
        assert rep.rho_first <= rep.crossing_bound * (1.0 + 1e-6)
        assert 0.0 < rep.rw_first < p7.alpha
        assert rep.min_w_after > rep.floor == -2.0 * p7.alpha


def test_first_crossing_requires_large_amplitude(p7, tol):
    with pytest.raises(ValueError):
        diag.first_crossing_report(0.9, p7, tol)


def test_discriminant_reports():
    from blowup.model import derive_constants

    rep7 = diag.discriminant_report(derive_constants(7))
    assert rep7.closed_form == pytest.approx(ORACLES["discriminant_p7"], abs=1e-12)
    assert rep7.value_at_v_star == pytest.approx(rep7.closed_form, abs=1e-10)
    assert rep7.all_negative and rep7.decreasing

    rep9 = diag.discriminant_report(derive_constants(9))
    assert rep9.closed_form == pytest.approx(ORACLES["discriminant_p9"], abs=1e-10)
    assert rep9.all_negative and rep9.decreasing

    rep11 = diag.discriminant_report(derive_constants(11))
    assert rep11.closed_form == pytest.approx(ORACLES["discriminant_p11"], rel=1e-9)
    assert rep11.all_negative and rep11.decreasing


def test_discriminant_endpoint_value(p7):
    # at v = 1 the k-sum telescopes to (p-1): (p-5)^2 - 8(p-3)(p-1) < 0
    val = diag.crossing_discriminant(1.0, p7)
    assert float(val) == pytest.approx((7 - 5) ** 2 - 8 * (7 - 3) * (7 - 1), rel=1e-13)


def test_extension_of_first_profile(u1, p7, tol):
    rep = diag.extend_beyond_lightcone(u1.b, p7, rho_max=100.0, tol=tol)
    assert rep.passed
    assert rep.monotone and rep.positive and rep.below_b0
    assert rep.min_decay_margin > 0.0
    assert rep.decay_margin_at_cone == pytest.approx(ORACLES["decay_margin_b1"], rel=1e-7)
    assert 0.0 < rep.u_final < u1.b
    assert rep.trajectory.rho_span()[1] == pytest.approx(100.0)


def test_extension_rejects_bad_amplitudes(p7, tol):
    with pytest.raises(ValueError):
        diag.extend_beyond_lightcone(p7.b0 + 0.01, p7, 50.0, tol)
    with pytest.raises(ValueError):
        diag.extend_beyond_lightcone(0.5, p7, 0.9, tol)


def _singular_mode_amplitude(traj, params, points=8):
    """Extrapolated size of the singular mode at the cone.

    In the compactified chart sigma = (1-rho)^alpha the derivative variable
    theta = sigma u' tends to 0 for regular solutions and to a finite value
    when the singular component is present; a linear fit in sigma over the
    `points` samples closest to the cone estimates that limit.
    """
    rho, u, du = traj.pieces[-1].profile_samples()
    mask = rho < 1.0
    rho, du = rho[mask], du[mask]
    assert len(rho) >= points and rho.max() >= 0.98, "too few samples near the cone"
    order = np.argsort(rho)[-points:]
    sig = (1.0 - rho[order]) ** params.alpha
    th = sig * du[order]
    coef, *_ = np.linalg.lstsq(np.column_stack([np.ones_like(sig), sig]),
                               th, rcond=None)
    return abs(float(coef[0]))


def test_singular_mode_amplitude_separates_roots(u1, p7, tol):
    # smooth members cross the cone with no singular component; generic
    # center data does not
    # the intercept estimator carries a floor from the regular Taylor tail
    # over the fit window, so the root reads small-but-nonzero
    amp_root = _singular_mode_amplitude(u1.trajectory, p7)
    traj = center_trajectory(3.0, 0.9995, p7, tol)
    amp_generic = _singular_mode_amplitude(traj, p7)
    assert abs(amp_root) < 1e-2
    assert abs(amp_generic) > 3e-2
    assert abs(amp_generic) > 10.0 * abs(amp_root)


def test_brentq_is_scipys_bit_for_bit(oracle_shots):
    # every bracketed zero of w - level on the step grid, at the tolerances
    # of w_zero_locations; levels at deciles of w add brackets to the zeros
    # of w itself
    for name, traj in oracle_shots.items():
        t, w = (np.array(v) for v in traj.w_samples()[:2])
        roots = 0
        for level in (0.0, *np.quantile(w, np.linspace(0.05, 0.95, 10))):
            def f(tq):
                return float(traj.w_of_t(tq)[0]) - level

            for i in np.flatnonzero(np.sign(w[:-1] - level) * np.sign(w[1:] - level) < 0):
                ours = diag._brentq(f, t[i], t[i + 1])
                ref = brentq(f, t[i], t[i + 1], xtol=diag.W_ZERO_XTOL, rtol=diag.W_ZERO_RTOL)
                assert ours == ref, name
                roots += 1
        assert roots >= 8, name


def test_brentq_edges_and_smooth_functions(monkeypatch):
    def line(x):
        return x - 1.0

    assert diag._brentq(line, 1.0, 2.0) == 1.0
    assert diag._brentq(line, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        diag._brentq(line, 2.0, 3.0)
    # interpolation, extrapolation and bisection branches at loose and tight
    # tolerances, against scipy
    cases = [(lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
             (lambda x: math.cos(x) - x, 0.0, 1.0),
             (lambda x: math.exp(x) - 10.0, -5.0, 5.0),
             (lambda x: math.atan(1e3 * (x - 0.3)), -1.0, 1.0),
             (lambda x: (x - 0.7) ** 5, 0.0, 1.0)]
    for f, a, b in cases:
        for xtol, rtol in ((1e-15, 8.9e-16), (1e-6, 1e-6), (2e-12, 8.9e-16)):
            monkeypatch.setattr(diag, "W_ZERO_XTOL", xtol)
            monkeypatch.setattr(diag, "W_ZERO_RTOL", rtol)
            try:
                ref = brentq(f, a, b, xtol=xtol, rtol=rtol)
            except RuntimeError:        # (x - 0.7)^5 at the tight tolerances
                with pytest.raises(RuntimeError):
                    diag._brentq(f, a, b)
                continue
            assert diag._brentq(f, a, b) == ref
