import math

import numpy as np
import pytest

from blowup import integrate as integrate_module
from blowup.integrate import Tolerances
from blowup.model import derive_constants
from blowup import shoot
from blowup.shoot import (
    MISMATCH_ACCEPT,
    center_image,
    constant_solution_result,
    find_solution,
    lightcone_image,
    mismatch,
    sample_curves,
    w_zero_locations,
)
from reference_values import FAMILY_TABLE, ORACLES


def test_mismatch_at_tabulated_first_root(p7, tol):
    # the truncated reference values already sit on the matching curve
    c1, b1, _, _ = FAMILY_TABLE[1]
    F = mismatch(c1, b1, 0.5, p7, tol)
    assert np.hypot(*F) < 1e-5


def test_constant_solution_through_pipeline(p7, tol):
    res = constant_solution_result(p7, tol)
    assert res.n == 0
    assert res.zeros == 1
    assert res.mismatch < 1e-12
    zs = w_zero_locations(res.trajectory, p7)
    assert len(zs) == 1
    assert zs[0] == pytest.approx(2.0 ** -0.5, abs=1e-9)


def test_family_matches_reference_table(family):
    for row in family.rows:
        c_ref, b_ref, _, _ = FAMILY_TABLE[row.n]
        rel = 1e-5 if row.n <= 6 else 1e-4
        assert row.c == pytest.approx(c_ref, rel=rel), f"c at n={row.n}"
        if row.n <= 6:
            assert row.b == pytest.approx(b_ref, abs=1e-6), f"b at n={row.n}"
        else:
            assert row.b == pytest.approx(b_ref, rel=1e-4), f"b at n={row.n}"
        assert row.mismatch <= MISMATCH_ACCEPT


def test_nodal_counts(family):
    for row in family.rows:
        assert row.zeros == row.n + 1


def test_quotients_against_oracles(family):
    assert family.delta_c(10) == pytest.approx(ORACLES["delta_c_10"], rel=1e-4)
    assert family.delta_b(10) == pytest.approx(ORACLES["delta_b_10"], rel=1e-3)
    assert family.delta_c(12) == pytest.approx(ORACLES["delta_c_12"], rel=1e-4)


def test_quotients_against_printed_columns(family, p7):
    # four-digit printed quotients are trustworthy through n = 10
    for n in range(1, 11):
        _, _, dc_ref, db_ref = FAMILY_TABLE[n]
        assert family.delta_c(n) == pytest.approx(dc_ref, abs=1e-3)
        assert family.delta_b(n) == pytest.approx(db_ref, abs=1e-3)


def test_matching_radius_independence(p7, tol, u1):
    # the root (c, b) is a property of the equation, not of the matching point
    for rho_mid in (0.3, 0.6):
        row = find_solution(1, p7, tol, rho_mid=rho_mid)
        assert row.c == pytest.approx(u1.c, rel=1e-9)
        assert row.b == pytest.approx(u1.b, rel=1e-9)


def test_second_row_matching_radius_independence(p7, tol, family):
    row = find_solution(2, p7, tol, rho_mid=0.35)
    assert row.c == pytest.approx(family.rows[1].c, rel=1e-9)
    assert row.b == pytest.approx(family.rows[1].b, rel=1e-9)


def test_center_curve_spirals_into_limit_point(p7, tol):
    # images of growing c wind around the singular-solution point with
    # radius ~ c^{-(p-5)/4}; stepping c by ratio_c^2 advances the spiral by
    # exactly two turns, so the phase modulation cancels and the distance
    # contracts by the clean factor ratio_c^{-(p-5)/2} = 1/ratio_c
    target = np.array([ORACLES["u_inf_01"], ORACLES["du_inf_01"]])
    step = p7.ratio_c ** 2
    dists = []
    for c in (1e2, 1e2 * step, 1e2 * step**2):
        img = center_image(c, 0.1, p7, tol)
        dists.append(np.hypot(img.u - target[0], (img.du - target[1]) / abs(target[1])))
    assert dists[0] > dists[1] > dists[2]
    for a, b in zip(dists[:-1], dists[1:]):
        assert b / a == pytest.approx(1.0 / p7.ratio_c, rel=0.2)
    assert dists[-1] < 0.01


def test_cone_curve_passes_through_limit_point(p7, tol):
    img = lightcone_image(p7.b_inf, 0.1, p7, tol)
    assert img.u == pytest.approx(ORACLES["u_inf_01"], rel=1e-9)
    assert img.du == pytest.approx(ORACLES["du_inf_01"], rel=1e-9)


def test_sample_curves_includes_limit_amplitude(p7):
    tol = Tolerances(rtol=1e-10, atol=1e-12)
    c_imgs, b_imgs = sample_curves(p7, tol, 0.1, 1.0, 10.0, 5, 0.1, 0.85, 6)
    assert [im.side for im in c_imgs] == ["center"] * 5
    assert any(im.param == p7.b_inf for im in b_imgs)
    assert len(b_imgs) == 7   # the limit amplitude is spliced into the grid


def test_merged_trajectory_is_continuous(u1, p7):
    traj = u1.trajectory
    rho = np.linspace(*traj.rho_span(), 200)
    u, du = traj.eval(rho)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(du))
    # values straddling the matching radius agree to the refinement tolerance
    eps = 1e-9
    u_lo, du_lo = traj.eval(traj.rho_mid - eps)
    u_hi, du_hi = traj.eval(traj.rho_mid + eps)
    assert float(u_lo) == pytest.approx(float(u_hi), rel=1e-8)
    assert float(du_lo) == pytest.approx(float(du_hi), rel=1e-7)


def test_find_solution_rejects_index_zero(p7, tol):
    with pytest.raises(ValueError):
        find_solution(0, p7, tol)


def test_chained_solution_matches_direct(p7, tol, family):
    # one chain loop serves both, so they agree to the bit
    direct = find_solution(3, p7, tol)
    assert direct.c == family.rows[2].c
    assert direct.b == family.rows[2].b


def test_spectrum_chains_every_row_after_the_first_for_p17(tol):
    # a scan of the first spiral turns for p = 17 brackets rows 1 and 3 but
    # not row 2; the chain from the constant solution reaches every row
    spec = shoot.spectrum(3, derive_constants(17), tol)
    assert [r.n for r in spec.rows] == [1, 2, 3]
    assert all(r.zeros == r.n + 1 for r in spec.rows)


@pytest.mark.parametrize("p", [19, 21])
def test_spectrum_for_large_p(p, tol):
    # c_1 sits just above b0 -> 1 here, below any fixed scan window; the
    # chain from the constant solution still reaches it
    params = derive_constants(p)
    spec = shoot.spectrum(3, params, tol)
    assert [r.n for r in spec.rows] == [1, 2, 3]
    assert all(r.zeros == r.n + 1 for r in spec.rows)
    assert all(r.b < params.b0 for r in spec.rows)
    above = [r.b > params.b_inf for r in spec.rows]
    assert above[0] != above[1] != above[2]


@pytest.mark.parametrize("n_max, p, rtol", [(3, 7, 1e-8), (4, 17, 1e-10)])
def test_loose_tolerance_refines_to_the_acceptance_bound(n_max, p, rtol):
    # 20 rtol lies above MISMATCH_ACCEPT here; Newton must still iterate
    # down to a mismatch that the row accepts
    spec = shoot.spectrum(n_max, derive_constants(p),
                          Tolerances(rtol=rtol, atol=rtol * 1e-2))
    assert [r.n for r in spec.rows] == list(range(1, n_max + 1))
    assert all(r.zeros == r.n + 1 for r in spec.rows)
    assert all(r.mismatch <= MISMATCH_ACCEPT for r in spec.rows)


def _quotient_seed(rows, params):
    """The seed of the row above `rows` = [(c_0, b_0), ..., (c_n, b_n)],
    written out from the rule: the quotient deviations e_k from (ratio_c,
    ratio_b) are extrapolated with q = -ratio_b as 0, q e_0, then
    q (1 + q) e_{n-1} - q^3 e_{n-2}."""
    q, bi = -params.ratio_b, params.b_inf
    e = [(c1 / c0 - params.ratio_c, (b1 - bi) / (bi - b0) - params.ratio_b)
         for (c0, b0), (c1, b1) in zip(rows, rows[1:])]
    if not e:
        e_c = e_b = 0.0
    elif len(e) == 1:
        e_c, e_b = q * e[0][0], q * e[0][1]
    else:
        (ec_2, eb_2), (ec_1, eb_1) = e[-2:]
        e_c = q * (1 + q) * ec_1 - q ** 3 * ec_2
        e_b = q * (1 + q) * eb_1 - q ** 3 * eb_2
    c, b = rows[-1]
    return c * (params.ratio_c + e_c), bi - (params.ratio_b + e_b) * (b - bi)


def test_rejected_chain_seed_reports_its_reason(p7, tol, family, monkeypatch):
    # rows 1, 2 and 3 are each seeded by the quotient rule applied to the
    # real rows below, from the constant solution (c, b) = (b0, b0) up; a
    # stalled solve raises its SearchError and Newton trace unchanged
    trace = [(1.0, 0.5), (2.0, 0.25)]
    refine = shoot._newton_refine
    chain = [(p7.b0, p7.b0)] + [(r.c, r.b) for r in family.rows[:2]]
    for n in (1, 2, 3):
        calls = []

        def stall_at_row_n(c0, b0, shots):
            calls.append((c0, b0))
            if len(calls) == n:
                raise shoot.SearchError("forced stall", trace)
            return refine(c0, b0, shots)

        monkeypatch.setattr(shoot, "_newton_refine", stall_at_row_n)
        with pytest.raises(shoot.SearchError) as info:
            find_solution(n, p7, tol)
        assert len(calls) == n
        for k, (c_seed, b_seed) in enumerate(calls):
            want_c, want_b = _quotient_seed(chain[:k + 1], p7)
            assert c_seed == pytest.approx(want_c, rel=1e-13)
            assert b_seed == pytest.approx(want_b, rel=1e-13)
        assert str(info.value) == "forced stall"
        assert info.value.trace is trace


def test_quotient_seed_needs_few_centre_shots(p7, tol, monkeypatch):
    # from n = 7 the seed lies within 1e-4 of the root in c, close enough
    # that one Newton step (3 centre shots: value, ln c difference, trial)
    # lands every row from n = 8
    seeds, centre = [], []
    refine, shot = shoot._newton_refine, shoot._shot

    def recorded(c0, b0, shots):
        seeds.append(c0)
        centre.append(0)
        return refine(c0, b0, shots)

    def counted(side, *args):
        centre[-1] += side == "center"
        return shot(side, *args)

    monkeypatch.setattr(shoot, "_newton_refine", recorded)
    monkeypatch.setattr(shoot, "_shot", counted)
    rows = shoot.spectrum(12, p7, tol).rows
    assert [r.n for r in rows] == list(range(1, 13))
    for row, c_seed, k in zip(rows, seeds, centre):
        if row.n >= 7:
            assert abs(c_seed / row.c - 1.0) <= 1e-4, f"c seed at n={row.n}"
        if row.n >= 8:
            assert k <= 3, f"centre shots at n={row.n}"


def test_root_with_wrong_zero_count_is_rejected(p7, tol, monkeypatch):
    # row 1 wants n + 1 = 2 zeros; the stub counts n + 2
    monkeypatch.setattr(shoot, "nodal_index", lambda traj, params: 3)
    with pytest.raises(shoot.SearchError, match="has 3 zeros, wanted 2"):
        find_solution(1, p7, tol)


def test_each_shot_is_integrated_once(p7, tol, monkeypatch):
    # every row assembles its accepted pair from the shots Newton already
    # integrated, so the rows integrate exactly the distinct shots read
    integrations = []
    drive = integrate_module.drive_ode

    def counted(*args, **kwargs):
        integrations.append(1)
        return drive(*args, **kwargs)

    shots = set()
    read = shoot._ImageCache.__call__

    def recorded(cache, side, param):
        shots.add((cache, side, param))
        return read(cache, side, param)

    monkeypatch.setattr(integrate_module, "drive_ode", counted)
    monkeypatch.setattr(shoot._ImageCache, "__call__", recorded)
    assert find_solution(3, p7, tol).zeros == 4
    assert len(integrations) == len(shots) > 0
    integrations.clear()
    assert constant_solution_result(p7, tol).zeros == 1
    assert len(integrations) == 2
