import math

import numpy as np
import pytest

from blowup import cli, diagnostics as diag, integrate as integrate_module, odecore
from blowup.diagnostics import w_zero_locations
from blowup.integrate import Tolerances, center_trajectory, lightcone_trajectory
from blowup.model import derive_constants, du_singular
from blowup import shoot
from blowup.shoot import (
    MISMATCH_ACCEPT,
    constant_solution_result,
    find_solution,
    sample_curves,
)
from reference_values import FAMILY_TABLE, ORACLES

# measured: the kept cone curve lies within 2.9e-11 of direct cone shots
# (p = 15, rho_mid 0.9) at odd p 7...31 and rho_mid 0.1, 0.3, 0.5 and 0.9, and
# within 5.2e-13 at p = 7, rho_mid 0.5; at p >= 11 the direct shots' own
# scatter at rtol 1e-12, not the interpolant, sets that distance
CURVE_BOUND = 1e-10


def test_mismatch_at_tabulated_first_root(p7, tol):
    # the truncated reference values already sit on the matching curve
    c1, b1, _, _ = FAMILY_TABLE[1]
    ic = center_trajectory(c1, 0.5, p7, tol).endpoint()
    il = lightcone_trajectory(b1, 0.5, p7, tol).endpoint()
    F = (ic.u - il.u, (ic.du - il.du) / abs(du_singular(p7, 0.5)))
    assert np.hypot(*F) < 1e-5
    # the real-shot gap a row is accepted on carries the same scaling, and
    # the gap Newton drives to zero reads the kept cone curve in its place
    shots = shoot._ImageCache(p7, 0.5, tol)
    F_real = shots.gap(c1, b1)
    assert np.hypot(*F_real) < 1e-5
    assert F_real == pytest.approx(F, rel=1e-12, abs=1e-15)
    assert math.dist(shots.F(c1, b1), F_real) <= CURVE_BOUND


def _direct(shots, b):
    """C1 at b from a direct cone shot, scaled as the curve is."""
    st = lightcone_trajectory(b, shots.rho_mid, shots.params, shots.cone_tol).endpoint()
    return st.u, st.du / shots.dscale


@pytest.mark.parametrize("p", range(7, 32, 2))
def test_cone_curve_lies_on_direct_shots(p, tol):
    params = derive_constants(p)
    rng = np.random.default_rng(p)
    for rho_mid in (0.1, 0.3, 0.5, 0.9):
        shots = shoot._ImageCache(params, rho_mid, tol)
        assert shots.curve is not None
        for b in rng.uniform(*shots.span, 30).tolist():
            assert math.dist(shots.cone(b), _direct(shots, b)) <= CURVE_BOUND, (rho_mid, b)


@pytest.mark.parametrize("p", [7, 9, 15, 31])
@pytest.mark.parametrize("rho_mid", [0.1, 0.5, 0.9])
def test_cone_curve_slope_is_a_central_difference_of_direct_shots(p, rho_mid, tol):
    # Richardson's extrapolation of central differences at h and h/2, h a
    # thousandth of the span, agrees with the curve's slope to <= 3e-10
    # relative (measured); the 1e-9 forward difference Newton took before
    # the curve carried the shots' scatter, ~1e-3 relative
    shots = shoot._ImageCache(derive_constants(p), rho_mid, tol)
    lo, hi = shots.span
    h = 1e-3 * (hi - lo)
    for b in np.random.default_rng(p).uniform(lo + h, hi - h, 5).tolist():
        d1, d2 = ([(x - y) / (2 * s) for x, y in zip(_direct(shots, b + s), _direct(shots, b - s))]
                  for s in (h, h / 2))
        slope = shots.cone(b, 1)
        assert math.dist(slope, [(4 * y - x) / 3 for x, y in zip(d1, d2)]) <= (
            1e-8 * math.hypot(*slope)), b


def _counted_cone_shots(monkeypatch) -> list:
    """The b of every cone shot shoot integrates from now on."""
    bs, real = [], shoot.lightcone_trajectory

    def counted(b, *args):
        bs.append(b)
        return real(b, *args)

    monkeypatch.setattr(shoot, "lightcone_trajectory", counted)
    return bs


def test_doubling_the_curve_degree_reuses_every_node(p7, tol, monkeypatch):
    # at rho_mid 0.1 the last coefficients are ~1e-7 at M = 16 and ~4e-13 at
    # M = 32; the Lobatto nodes of 16 are every other node of 32, so M = 32
    # integrates only its 16 new ones
    monkeypatch.setattr(shoot, "_CONE_CURVES", {})
    bs = _counted_cone_shots(monkeypatch)
    curve = shoot._ImageCache(p7, 0.1, tol).curve
    assert [len(a) for a in curve] == [33, 33, 32, 32]
    assert len(bs) == len(set(bs)) == 17 + 16
    assert shoot._ImageCache(p7, 0.1, tol).curve is curve   # kept
    assert len(bs) == 33


def test_a_tail_that_never_converges_reads_direct_shots(p7, tol, u1, monkeypatch):
    # no tail is below 0 cone rtols: past M = 128 the curve is None, and C1
    # and its slope come from direct shots at b and b + 1e-9, the same row
    monkeypatch.setattr(shoot, "_CONE_CURVES", {})
    monkeypatch.setattr(shoot, "CURVE_TAIL", 0.0)
    shots = shoot._ImageCache(p7, 0.5, tol)
    assert shots.curve is None
    assert shots.cone(0.7) == _direct(shots, 0.7)
    assert shots.cone(0.7, 1) == tuple((x - y) / 1e-9 for x, y in
                                       zip(_direct(shots, 0.7 + 1e-9), _direct(shots, 0.7)))
    bs = _counted_cone_shots(monkeypatch)
    row = find_solution(1, p7, tol)
    assert len(bs) > 2
    assert row.c == pytest.approx(u1.c, rel=1e-9)
    assert row.b == pytest.approx(u1.b, rel=1e-9)
    assert row.mismatch <= MISMATCH_ACCEPT


def test_a_warm_chain_integrates_one_cone_shot_per_row(p7, tol, monkeypatch):
    # the kept curve serves every Newton iterate and its b-column; each row
    # integrates only its accepted cone shot
    shoot.spectrum(12, p7, tol)
    bs = _counted_cone_shots(monkeypatch)
    rows = shoot.spectrum(12, p7, tol).rows
    assert bs == [r.b for r in rows]


def test_a_root_of_a_wrong_curve_is_refused_by_its_real_shots(p7, tol, monkeypatch):
    # Newton converges on a curve shifted by 1e-6 in u; the real shots of
    # that root miss by as much, so the row is refused, not returned
    real = shoot._ImageCache.cone

    def shifted(self, b, d=0):
        u, du = real(self, b, d)
        return u + (1e-6 if d == 0 else 0.0), du

    monkeypatch.setattr(shoot._ImageCache, "cone", shifted)
    with pytest.raises(shoot.SearchError, match="has shot mismatch 1.0"):
        find_solution(1, p7, tol)


def test_constant_solution_through_pipeline(p7, tol):
    res = constant_solution_result(p7, tol)
    assert res.n == 0
    assert res.zeros == 1
    assert res.mismatch < 1e-12
    zs = w_zero_locations(res.trajectory)
    assert len(zs) == 1
    assert zs[0] == pytest.approx(2.0 ** -0.5, abs=1e-9)


def test_zero_at_the_junction_counts_once(p7, tol):
    # w of u = b0 vanishes at rho = 2^{-1/2}; matched there, the centre shot
    # ends on the zero and the cone shot starts on it, and the sign count
    # reads the cone's nodes only past rho_mid
    res = constant_solution_result(p7, tol, rho_mid=2.0 ** -0.5)
    assert res.zeros == shoot.nodal_index(res.trajectory) == 1


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


@pytest.mark.parametrize("rho_mid", [0.0011, 0.005])
def test_matching_radius_near_the_center_solves(rho_mid, p7, tol, u1):
    # the centre shot starts from the series in rho^2 at rho_s = rtol^{1/(2K+2)}
    # = 0.215, moved in to rho_mid/2 but not below rtol^{1/4} = 1e-3: a
    # rho_mid just past 1e-3, or between there and 0.43, still gives row 1
    row = find_solution(1, p7, tol, rho_mid=rho_mid)
    assert row.zeros == 2
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
        img = center_trajectory(c, 0.1, p7, tol).endpoint()
        dists.append(np.hypot(img.u - target[0], (img.du - target[1]) / abs(target[1])))
    assert dists[0] > dists[1] > dists[2]
    for a, b in zip(dists[:-1], dists[1:]):
        assert b / a == pytest.approx(1.0 / p7.ratio_c, rel=0.2)
    assert dists[-1] < 0.01


def test_cone_curve_passes_through_limit_point(p7, tol):
    img = lightcone_trajectory(p7.b_inf, 0.1, p7, tol).endpoint()
    assert img.u == pytest.approx(ORACLES["u_inf_01"], rel=1e-9)
    assert img.du == pytest.approx(ORACLES["du_inf_01"], rel=1e-9)


def test_sample_curves_includes_limit_amplitude(p7):
    tol = Tolerances(rtol=1e-10, atol=1e-12)
    rows = sample_curves(p7, tol, 0.1, 1.0, 10.0, 5, 0.1, 0.85, 6)
    c_rows = [r for r in rows if r[0] == "center"]
    b_rows = [r for r in rows if r[0] == "lightcone"]
    assert rows == c_rows + b_rows   # C0 first, then C1
    assert len(c_rows) == 5
    assert any(param == p7.b_inf for _, param, _, _ in b_rows)
    assert len(b_rows) == 7   # the limit amplitude is spliced into the grid


def test_singular_jacobian_is_a_search_error(p7, tol, monkeypatch):
    # a cone curve whose b-derivative is 0 leaves J's second column exactly 0,
    # so its determinant is 0: the 2x2 solve refuses it, with the Newton trace
    real = shoot._ImageCache.cone
    monkeypatch.setattr(shoot._ImageCache, "cone",
                        lambda self, b, d=0: (0.0, 0.0) if d else real(self, b))
    with pytest.raises(shoot.SearchError, match="^singular mismatch Jacobian$") as info:
        shoot._newton_refine(2.0, 0.69, shoot._ImageCache(p7, 0.5, tol))
    assert [c for c, _ in info.value.trace] == [2.0]


def test_curve_grids_are_numpys_linspace():
    # the curves' grids on floats: start + i step, the last point set to stop,
    # as numpy's linspace computes them, bit for bit
    rng = np.random.default_rng(21)
    for start, stop in [(1.0, 1e4), (0.02, 0.87), *rng.uniform(-10.0, 10.0, (100, 2))]:
        for num in (2, 3, 7, 120, 1001):
            assert shoot._linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


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


@pytest.mark.parametrize("rho_mid", [0.4269, 0.4476, 0.47])
def test_glued_samples_hold_one_value_per_radius(p7, tol, rho_mid):
    # at these rho_mid a row's centre piece ends, back from the chart of c,
    # 5.6e-17 below rho_mid; cutting the cone's nodes at rho_mid itself keeps
    # the cone's node there from sitting beside it.  Steps at rtol 1e-12 are
    # wider than 1e-4 rho, so a gap under 1e-9 rho is one radius read twice
    for row in shoot.iter_rows(6, p7, tol, rho_mid):
        rho = row.trajectory.profile_samples()[0]
        assert (np.diff(rho) > 1e-9 * rho[1:]).all(), row.n


def test_merged_trajectory_reads_its_centre_exponent(u1):
    traj = u1.trajectory
    assert traj.params is traj.center.params is traj.lightcone.params


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


# `spectrum --n-max 12 --rho-mid 0.5`'s (c_n, b_n, zeros) cells as printed
# with a finite-difference ln c column at every Newton iteration
SPECTRUM_CELLS = [
    ("2.054390357", "0.6886985754", "2"), ("5.756037119", "0.8204934085", "3"),
    ("13.86655591", "0.7469083627", "4"), ("35.9134337", "0.7960550939", "5"),
    ("88.26660888", "0.7662634207", "6"), ("223.5507457", "0.7855482002", "7"),
    ("554.9215103", "0.7735466595", "8"), ("1394.439368", "0.7812095856", "9"),
    ("3476.40149", "0.7763939729", "10"), ("8709.678394", "0.7794511857", "11"),
    ("21752.39981", "0.7775226466", "12"), ("54434.1812", "0.7787441437", "13")]


def test_newton_takes_one_finite_difference_shot_per_row(monkeypatch, capsys):
    # each row's Newton solve differences C0 in ln c once, at its seed, and
    # then reads dF/d ln c off the secant to each trial (C0 = F + C1, no
    # shot): the rows take 51 centre shots (62 with a difference at every
    # iteration: 9, 9, 7, 7, 5, 5, 5, 3, 3, 3, 3, 3) and print the cells
    # they printed then
    solves = []
    read = shoot._ImageCache.F

    def recorded(cache, c, b):
        if not solves or solves[-1][0] is not cache:
            solves.append((cache, []))
        solves[-1][1].append(c)
        return read(cache, c, b)

    monkeypatch.setattr(shoot._ImageCache, "F", recorded)
    assert cli.main(["spectrum", "--n-max", "12", "--rho-mid", "0.5"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:13]]
    assert [(r[1], r[2], r[6]) for r in rows] == SPECTRUM_CELLS
    assert [len(set(cs)) for _, cs in solves] == [7, 6, 5, 5, 5, 4, 4, 3, 3, 3, 3, 3]
    for _, cs in solves:
        differences = [c for i, c in enumerate(cs) if any(
            c == math.exp(math.log(a) + 1e-7 * max(1.0, (a / 100.0) ** 0.5)) for a in cs[:i])]
        assert len(cs) == len(set(cs)) and differences == [cs[1]]


def test_large_c_centre_shots_take_a_flat_step_budget(p7, tol, monkeypatch):
    # a centre shot that starts from the limit solution and its
    # corrections integrates only from x_s = rtol^{1/(2K+2)} c^3 to rho_mid c^3,
    # so its steps stop growing with ln c (a series launch at x = 1e-3 takes
    # 423 steps to rho_mid at n = 12)
    outer = {}
    rescaled = integrate_module.integrate_rescaled

    def counted(c, *args):
        traj = rescaled(c, *args)
        outer[c] = len(traj.t) - 1
        return traj

    monkeypatch.setattr(integrate_module, "integrate_rescaled", counted)
    rows = shoot.spectrum(25, p7, tol).rows
    assert [r.n for r in rows] == list(range(1, 26))
    assert outer[rows[11].c] <= 75
    assert max(outer.values()) <= 110


@pytest.mark.parametrize("p", range(7, 32, 2))
def test_loose_tolerance_rows_from_the_limit_solution(p, tol):
    # at rtol 1e-8 centre shots start from the series in rho^2 through V_K at
    # rho_s = min(rtol^{1/(2K+2)}, rho_mid/2) = 0.25; rows n <= 6 keep their
    # zero counts and c_n
    params = derive_constants(p)
    loose = shoot.spectrum(6, params, Tolerances(rtol=1e-8, atol=1e-10)).rows
    tight = shoot.spectrum(6, params, tol).rows
    assert [r.zeros for r in loose] == [n + 2 for n in range(6)]
    for lo, hi in zip(loose, tight):
        assert lo.c == pytest.approx(hi.c, rel=5e-7), f"c at n={lo.n}"


@pytest.mark.parametrize("p", [7, 9])
@pytest.mark.parametrize("rtol", [1e-6, 1e-7])
def test_loosest_tolerances_keep_the_kept_run_at_the_default_rtol(p, rtol, tol):
    # stepped on V0 alone at rtol 1e-7, the stiff -2k(2k+1)/x^2 modes of the
    # last V_k grow (at K = 6, V6 off by 16 at x = 2.16) and row 1 stalls or
    # drifts; the kept run is never looser than the default rtol, so every row
    # lies within 10 rtol of the default rows
    params = derive_constants(p)
    loose = shoot.spectrum(4, params, Tolerances(rtol)).rows
    tight = shoot.spectrum(4, params, tol).rows
    assert [r.n for r in loose] == [1, 2, 3, 4]
    for lo, hi in zip(loose, tight):
        assert lo.c == pytest.approx(hi.c, rel=10 * rtol), f"c at n={lo.n}"
        assert lo.b == pytest.approx(hi.b, rel=10 * rtol), f"b at n={lo.n}"


def test_newton_trials_combine_no_head(p7, tol, monkeypatch):
    # a centre shot's nodes below x_s, sum (mu x^2)^k V_k on the kept run's
    # nodes, are combined only where the nodal count reads them: Newton's
    # trials read only the endpoint, and each row combines the head nodes of
    # its accepted shot from its cut on, never the whole head; the kept run and
    # its table are warmed first, so a warm chain is what is counted
    center_trajectory(1e3, 0.5, p7, tol).nodal_start()
    point, nodes = integrate_module._sum_kernel(odecore.CENTER_K)
    combined, shots = [], []

    def counted(mu, t, y):
        combined.append((mu, len(t)))
        return nodes(mu, t, y)

    def recorded(c, *args):
        shots.append(c)
        return center(c, *args)

    center = shoot.center_trajectory
    monkeypatch.setattr(integrate_module, "_sum_kernel", lambda K: (point, counted))
    monkeypatch.setattr(shoot, "center_trajectory", recorded)
    rows = list(shoot.iter_rows(3, p7, tol))
    assert len(shots) > 3 * len(rows)
    heads = [r.trajectory.center for r in rows]
    assert all("y" not in h.__dict__ and 0 < h.nodal_start()[0] < h._k for h in heads)
    assert combined == [(r.c ** -(p7.p - 1), h._k - h.nodal_start()[0])
                        for r, h in zip(rows, heads)]


def test_shooting_reads_no_kept_run_interpolant(p7, tol, monkeypatch):
    # every outer run starts on a node of the kept run, from that node's own
    # values, so a family built on a fresh kept run compiles no 2K + 2
    # component _stages or _coeffs and builds no kept-run step coefficients
    monkeypatch.setattr(integrate_module, "_LIMIT_RUNS", {})
    monkeypatch.setattr(integrate_module, "_HEAD_TABLES", {})
    kernel, rescaled = integrate_module._kernel, integrate_module.integrate_rescaled
    kernels, starts = [], []

    def built(n, chart, name="_loop"):
        kernels.append((n, name))
        return kernel(n, chart, name)

    def started(c, x_start, *args, **kwargs):
        starts.append(x_start)
        return rescaled(c, x_start, *args, **kwargs)

    monkeypatch.setattr(integrate_module, "_kernel", built)
    monkeypatch.setattr(integrate_module, "integrate_rescaled", started)
    rows = shoot.spectrum(12, p7, tol).rows
    assert [r.n for r in rows] == list(range(1, 13))
    n = 2 * odecore.CENTER_K + 2
    assert (n, "_loop") in kernels and (n, "_stages") not in kernels
    assert (n, "_coeffs") not in kernels
    (run, _, _), = integrate_module._LIMIT_RUNS.values()
    assert run.dense._F == {}
    nodes = set(run.t)
    assert len(starts) > 12 and all(x in nodes for x in starts)


def test_root_with_wrong_zero_count_is_rejected(p7, tol, monkeypatch):
    # row 1 wants n + 1 = 2 zeros; the stub counts n + 2
    monkeypatch.setattr(shoot, "nodal_index", lambda traj: 3)
    with pytest.raises(shoot.SearchError, match="has 3 zeros, wanted 2"):
        find_solution(1, p7, tol)


def test_each_shot_is_integrated_once(p7, tol, monkeypatch):
    # every row assembles its accepted centre shot from the shots Newton
    # already integrated and integrates its one cone shot, so the rows
    # integrate exactly the distinct centre shots read plus one cone shot
    # each; the limit solution large-c shots start from and the kept cone
    # curve are built on first use, so both are warmed first and the count
    # does not depend on the test order
    center_trajectory(1e3, 0.5, p7, tol)
    assert shoot._ImageCache(p7, 0.5, tol).curve is not None
    integrations = []
    drive = integrate_module.drive_ode

    def counted(*args, **kwargs):
        integrations.append(1)
        return drive(*args, **kwargs)

    centre = set()
    read = shoot._ImageCache.F

    def recorded(cache, c, b):
        centre.add((cache, c))
        return read(cache, c, b)

    monkeypatch.setattr(integrate_module, "drive_ode", counted)
    monkeypatch.setattr(shoot._ImageCache, "F", recorded)
    assert find_solution(3, p7, tol).zeros == 4
    assert len(integrations) == len(centre) + 3 > 3
    integrations.clear()
    assert constant_solution_result(p7, tol).zeros == 1
    assert len(integrations) == 2


# -- nodal counts off the kept run's head table ----------------------------


def _full_walk_count(traj):
    """nodal_index as it ran before the kept run's head table, kept as its
    reference: sign changes and phase winding on every node of both pieces."""
    (_, wc, _, _), (t, wl, _, k) = chains = [diag._piece_chain(piece) for piece in traj.pieces]
    past = [w for ti, w in zip(t, wl) if ti * k > traj.rho_mid]
    s = [w > 0.0 for w in (*wc, *past) if w]
    n_sign = sum(a != b for a, b in zip(s, s[1:]))
    assert n_sign == diag.phase_zero_count(traj, chains)
    return n_sign


# rows each family reaches at rho_mid 0.5 (and p = 7 at 0.3 and 0.4269) before
# a row is refused, the same with the table as with the full walk
FAMILY_DEPTH = {7: 57, 9: 39, 11: 33, 13: 30, 15: 28, 17: 27, 19: 26, 21: 25, 23: 25,
                25: 24, 27: 24, 29: 23, 31: 23}


@pytest.mark.parametrize("p, rho_mid", [(7, 0.3), (7, 0.4269), *((p, 0.5) for p in FAMILY_DEPTH)])
def test_nodal_counts_off_the_head_table_are_the_full_walks(p, rho_mid, tol, monkeypatch):
    # below each row's cut its zeros are read off the kept run's table of V0:
    # every row, as deep as the family goes, counts what a walk of every node
    # counts, and each walks at most 15% of its head (measured: 5.2% of the
    # head nodes at p = 7, 11% at p = 31).  The deep rows regrow the kept
    # run, so they run on kept runs of their own
    monkeypatch.setattr(integrate_module, "_LIMIT_RUNS", {})
    monkeypatch.setattr(integrate_module, "_HEAD_TABLES", {})
    params = derive_constants(p)
    rows = walked = heads = 0
    with pytest.raises((shoot.ShootingError, diag.DegenerateTrajectoryError)):
        for row in shoot.iter_rows(80, params, tol, rho_mid):
            center = row.trajectory.center
            cut = center.nodal_start()[0]
            assert 0 < cut < center._k
            assert (shoot.nodal_index(row.trajectory) == _full_walk_count(row.trajectory)
                    == row.n + 1)
            rows, walked, heads = rows + 1, walked + center._k - cut, heads + center._k
    assert rows == FAMILY_DEPTH[p]
    assert walked < 0.15 * heads


def test_the_head_table_is_the_phase_walk_of_v0_and_bounds_every_head(family):
    # the table holds the walk of V0's deviation on the kept run's nodes, to the
    # bit; on every head node below x a row's (w, rho w') lies within E(x) =
    # sum_k (mu x^2)^k M_k(x) of V0's; and each row's cut is the last head node
    # where E <= m/2, m - E >= R_DEGENERATE and |w0| > E
    center = family.rows[0].trajectory.center
    run = center._run
    center.nodal_start()   # the table of this run, whatever ran before
    table = integrate_module._HEAD_TABLES[center._key][1]
    assert integrate_module._HEAD_TABLES[center._key][0] is run
    n = len(table.m)
    t, w0, rw0 = (v[:n] for v in run.w_samples())
    pts, at_nodes = diag.phase_trajectory(run, [(t, w0, rw0, 1.0)]), set(t)
    nodes = [j for j, rho in enumerate(pts[0]) if rho in at_nodes]
    assert [pts[3][j] for j in nodes] == list(table.theta) and list(table.w) == w0
    levels = [math.floor((th - 0.5 * math.pi) / math.pi) for th in pts[3]]
    crossings = [sum(abs(b - a) for a, b in zip(levels[:j], levels[1:j + 1])) for j in nodes]
    signs = [v > 0.0 for v in w0]
    assert list(table.zeros) == crossings == [
        sum(a != b for a, b in zip(signs[:j], signs[1:j + 1])) for j in range(n)]
    assert list(table.m) == [min(map(math.hypot, w0[:j + 1], rw0[:j + 1])) for j in range(n)]
    for row in family.rows:
        head = row.trajectory.center
        mu, k, cut = head._mu, head._k, head.nodal_start()[0]
        _, w, rw = head.w_samples()
        E = [sum((mu * x * x) ** (i + 1) * M[j] for i, M in enumerate(table.M))
             for j, x in enumerate(t[:k])]
        for j in range(min(k, n)):
            assert math.hypot(w[j] - w0[j], rw[j] - rw0[j]) <= E[j] * (1 + 1e-12) + 1e-15
        passes = [E[j] <= 0.5 * table.m[j] and table.m[j] - E[j] >= diag.R_DEGENERATE
                  and abs(w0[j]) > E[j] for j in range(min(k, n))]
        assert passes[cut] and not any(passes[cut + 1:])


def test_a_head_whose_bound_fails_at_its_first_node_walks_it_all(p7, tol, family, monkeypatch):
    # the constant solution's six head nodes take the table, and a plain-chart
    # shot (c = 0.5, below the kept run's launch) or one that starts on the
    # kept run's first node (the constant solution at p = 31) has no head to
    # take it for; with no room left for the k >= 1 terms every cut is the
    # first node, and every count walks the whole head and counts the same
    plain = shoot.MergedTrajectory(center_trajectory(0.5, 0.5, p7, tol),
                                   lightcone_trajectory(0.8, 0.5, p7, tol), 0.5)
    constant = constant_solution_result(p7, tol).trajectory
    trajs = [row.trajectory for row in family.rows] + [
        constant, plain, constant_solution_result(derive_constants(31), tol).trajectory]
    assert constant.center.nodal_start()[0] == 5 == constant.center._k - 1
    assert not isinstance(plain.center, integrate_module._CenterShot)
    assert trajs[-1].center._k == 0
    for traj in trajs[-2:]:
        assert traj.center.nodal_start() == (0, None, 0)
    counts = [_full_walk_count(traj) for traj in trajs]
    assert [shoot.nodal_index(traj) for traj in trajs] == counts
    monkeypatch.setattr(integrate_module, "HEAD_FRACTION", 0.0)
    for traj in trajs:
        assert traj.center.nodal_start() == (0, None, 0)
    assert [shoot.nodal_index(traj) for traj in trajs] == counts
    assert counts == [row.n + 1 for row in family.rows] + [1, 1, 1]
