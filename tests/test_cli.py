import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import blowup
from blowup import asymptotics, cli, diagnostics, integrate, odecore, shoot
from blowup.integrate import Tolerances
from blowup.model import derive_constants

SCHEMA = json.loads(
    (Path(blowup.__file__).parent / "schemas" / "cli_output.schema.json").read_text())


def run_cli(*args, expect: int = 0):
    proc = subprocess.run([sys.executable, "-m", "blowup", *args],
                          capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc.stdout


def rows_of(csv_text: str):
    lines = csv_text.strip().split("\n")
    return lines[0], [ln.split(",") for ln in lines[1:]]


def test_constants_csv_and_values():
    header, rows = rows_of(run_cli("constants"))
    assert header == "field,value"
    vals = dict(rows)
    assert float(vals["b_inf"]) == pytest.approx(0.778271716, abs=1e-9)
    assert float(vals["ratio_c"]) == pytest.approx(2.500515152, abs=1e-9)
    assert float(vals["b0"]) == pytest.approx(0.8735804647, abs=1e-9)


@pytest.mark.parametrize("p, atol, floor", [(7, "1e-300", 1.89e-270), (31, "1e-320", 1.48e-313)])
def test_atol_under_the_limit_run_floor_is_a_named_usage_error(p, atol, floor, capsys):
    # the limit run holds atol 2^{-1074/(p-1)}, 2^{-179} at p = 7: an atol whose
    # scaled value underflows to 0 is refused with the value given and p's
    # floor, where it used to be refused as "got 0.0"; an atol just above passes
    assert cli.main(["solve", "--p", str(p), "--n", "1", "--atol", atol]) == 2
    assert capsys.readouterr().err == (f"blowup: atol {atol} is under p = {p}'s floor "
                                       f"~{floor:.3g}, where the limit run's atol underflows\n")
    params = derive_constants(p)
    assert integrate._limit_tol(params, Tolerances(atol=1.01 * floor)).atol > 0.0


EXTEND_N_MESSAGE = ("--n must be at least 1 for extend "
                    "(u_0 = b0 has no decaying continuation)")


def test_invalid_exponent_is_usage_error(tmp_path):
    run_cli("constants", "--p", "4", expect=2)
    run_cli("solve", "--n", "1", "--rho-mid", "1.5", expect=2)
    run_cli("spectrum", "--n-max", "0", expect=2)
    run_cli("solve", "--n", "1", "--atol", "inf", expect=2)
    # rejected before any shot, so no numpy warning reaches stderr
    proc = subprocess.run([sys.executable, "-m", "blowup", "curves", "--c-hi", "inf"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "blowup: curve ranges must be finite, positive and increasing\n"
    # non-finite upper bounds are usage errors, not failed integrations
    for args, message in ((("limit", "--x-max", "nan"), "--x-max must be finite and exceed 1"),
                          (("limit", "--x-max", "inf"), "--x-max must be finite and exceed 1"),
                          (("extend", "--n", "1", "--rho-max", "inf"),
                           "--rho-max must be finite and exceed 1")):
        proc = subprocess.run([sys.executable, "-m", "blowup", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == f"blowup: {message}\n"
    # an unwritable --out is a one-line usage error: a missing directory is
    # rejected before any computation, a failed write when it happens; so is
    # a shooting curve of fewer than 2 samples
    for args, message in (
            (("spectrum", "--n-max", "1", "--out", str(tmp_path / "nodir" / "x.csv")),
             f"--out directory {tmp_path / 'nodir'} does not exist"),
            (("constants", "--out", str(tmp_path)),
             f"cannot write {tmp_path}: Is a directory"),
            (("curves", "--n-c", "0", "--n-b", "0"), "--n-c and --n-b must be at least 2"),
            (("curves", "--n-c", "-1"), "--n-c and --n-b must be at least 2"),
            (("curves", "--n-b", "1"), "--n-c and --n-b must be at least 2"),
            (("spectrum", "--n-max", "0"), "--n-max must be at least 1"),
            (("solve", "--n", "-1"), "--n must be at least 0"),
            (("profile", "--n", "-2"), "--n must be at least 0"),
            (("extend", "--n", "-1"), EXTEND_N_MESSAGE),
            # u_0 = b0 is a solution, but not one that decays past the cone
            (("extend", "--n", "0"), EXTEND_N_MESSAGE),
            # a matching radius on or inside a launch radius: not an empty
            # span, nor a center shot integrated back onto the wrong member
            (("solve", "--rho-mid", "0.001"),
             "rho_end 0.001 must exceed the center launch radius 0.001"),
            (("solve", "--rho-mid", "0.0005"),
             "rho_end 0.0005 must exceed the center launch radius 0.001"),
            (("solve", "--rho-mid", "0.999"), "rho_end 0.999 is the cone launch radius"),
            # amplitudes whose series launch leaves float range are named,
            # not a traceback, a misread span or a numpy warning
            (("curves", "--c-hi", "1e300", "--n-c", "2", "--n-b", "2"),
             "center amplitude c=1e+300 is beyond the float range of the rescaled chart"),
            (("curves", "--c-lo", "1e100", "--c-hi", "1e200", "--n-c", "2", "--n-b", "2"),
             "center amplitude c=1e+100 is beyond the float range of the rescaled chart"),
            # past the reach of the kept run large-c shots start from: it ends
            # at LIMIT_FAR = 1e100, short of where U0^p leaves the normal
            # floats, after its last full step at x = 9.93e99
            (("curves", "--c-lo", "2", "--c-hi", "1e34", "--n-c", "2", "--n-b", "2"),
             "center amplitude c=1e+34 needs the limit solution at x = 5e+100, past its "
             "last full step (reached_end) at 9.93e+99"),
            (("curves", "--c-lo", "2", "--c-hi", "6e33", "--n-c", "2", "--n-b", "2"),
             "center amplitude c=6e+33 needs the limit solution at x = 1.08e+100, past its "
             "last full step (reached_end) at 9.93e+99"),
            # the limit fit reads the same U0 under the same reach
            (("limit", "--x-max", "1e100"),
             "x_max 1e+100 needs the limit solution at x = 1e+100, past its last full step "
             "(reached_end) at 9.93e+99"),
            (("limit", "--x-max", "1e120"),
             "x_max 1e+120 needs the limit solution at x = 1e+120, past its last full step "
             "(reached_end) at 9.93e+99"),
            (("curves", "--b-lo", "1", "--b-hi", "1e3", "--n-c", "2", "--n-b", "2"),
             "cone amplitude b=1000 has no validated series launch offset off rho = 1"),
            (("curves", "--b-lo", "1", "--b-hi", "1e10", "--n-c", "2", "--n-b", "2"),
             "cone amplitude b=1e+10 has no validated series launch offset off rho = 1")):
        proc = subprocess.run([sys.executable, "-m", "blowup", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == f"blowup: {message}\n"
        assert proc.stdout == ""


def test_matching_radius_just_past_a_launch_radius_solves():
    # the center shot launches at rho = 1e-3 and the inward cone shot at 0.999
    for rho_mid in ("0.0011", "0.998", "0.9995"):
        header, rows = rows_of(run_cli("solve", "--rho-mid", rho_mid))
        assert rows[0][0] == "1" and rows[0][4] == "2"
        assert float(rows[0][1]) == pytest.approx(2.054390385, rel=1e-6)


def test_loose_tolerance_spectrum_succeeds():
    run_cli("spectrum", "--n-max", "3", "--rtol", "1e-8", "--atol", "1e-10")


def test_solve_row():
    header, rows = rows_of(run_cli("solve", "--n", "1"))
    assert header == "n,c_n,b_n,mismatch,zeros"
    n, c, b, mm, z = rows[0]
    assert (int(n), int(z)) == (1, 2)
    assert float(c) == pytest.approx(2.054390385, rel=1e-6)
    assert float(b) == pytest.approx(0.688698572, abs=1e-6)
    assert abs(float(mm)) < 1e-9


def test_spectrum_csv_shape_and_inf_row(family):
    out = run_cli("spectrum", "--n-max", "4")
    header, rows = rows_of(out)
    assert header == "n,c_n,b_n,delta_c,delta_b,mismatch,zeros"
    assert len(rows) == 5
    assert rows[-1][0] == "inf"
    assert float(rows[-1][2]) == pytest.approx(0.778271716, abs=1e-9)
    # delta columns are backfilled wherever the next row exists
    assert float(rows[0][3]) == pytest.approx(2.8018, abs=1e-3)
    assert rows[3][3] == ""
    # the library chain prints the same digits in every column
    for n, printed in enumerate(rows[:-1], start=1):
        r = family.rows[n - 1]
        deltas = (["%.10g" % family.delta_c(n), "%.10g" % family.delta_b(n)]
                  if n < 4 else ["", ""])
        assert printed == [str(r.n), "%.10g" % r.c, "%.10g" % r.b, *deltas,
                           "%.10g" % r.mismatch, str(r.zeros)]
    # byte-identical on a second run
    assert out == run_cli("spectrum", "--n-max", "4")


def test_profile_constant_solution_columns():
    header, rows = rows_of(run_cli("profile", "--n", "0", "--samples", "200"))
    assert header == "rho,u,du,w,Theta,H,Q"
    u = [float(r[1]) for r in rows]
    w = [float(r[3]) for r in rows]
    H = [float(r[5]) for r in rows]
    Q = [float(r[6]) for r in rows]
    assert all(v == pytest.approx(u[0], rel=1e-12) for v in u)
    assert all(v == pytest.approx(H[0], rel=1e-9) for v in H)
    assert all(v <= 1e-12 for v in Q)
    flips = [i for i in range(len(w) - 1) if w[i] * w[i + 1] < 0]
    assert len(flips) == 1
    rho_cross = float(rows[flips[0]][0])
    assert rho_cross == pytest.approx(1.0 / math.sqrt(2.0), abs=0.01)


def test_profile_theta_is_the_angle_of_the_printed_deviation(p7, capsys):
    # Theta is atan2(rho w', w) at each sample, not an interpolation between
    # phase points up to pi/2 apart; the 1e-9 bound covers the 10 printed digits
    for n in (1, 3):
        assert cli.main(["profile", "--n", str(n), "--samples", "200"]) == 0
        _, rows = rows_of(capsys.readouterr().out)
        rho, u, du, _, theta, _, _ = np.array(rows, dtype=float).T
        ra = rho ** p7.alpha / p7.b_inf
        w, rw = ra * u - 1.0, ra * (rho * du + p7.alpha * u)
        R = np.hypot(w, rw)
        assert np.max(np.abs(R * np.cos(theta) - w)) < 1e-9, f"n={n}"
        assert np.max(np.abs(R * np.sin(theta) - rw)) < 1e-9, f"n={n}"


def test_curves_contain_the_limit_point():
    out = run_cli("curves", "--n-c", "6", "--n-b", "5",
                  "--b-lo", "0.5", "--b-hi", "0.87", "--rho-mid", "0.1")
    header, rows = rows_of(out)
    assert header == "side,param,u_mid,du_mid"
    sides = {r[0] for r in rows}
    assert sides == {"center", "lightcone"}
    cone = [r for r in rows if r[0] == "lightcone"]
    hit = [r for r in cone if abs(float(r[1]) - 0.7782717162) < 1e-9]
    assert len(hit) == 1
    assert float(hit[0][2]) == pytest.approx(1.6767355837, rel=1e-8)
    assert float(hit[0][3]) == pytest.approx(-5.5891186124, rel=1e-8)
    assert out == run_cli("curves", "--n-c", "6", "--n-b", "5",
                          "--b-lo", "0.5", "--b-hi", "0.87", "--rho-mid", "0.1")


def test_limit_fit_fields_and_span_failure():
    header, rows = rows_of(run_cli("limit"))
    assert header == "field,value"
    vals = dict(rows)
    assert float(vals["frequency"]) == pytest.approx(float(vals["omega_predicted"]),
                                                     abs=1e-3)
    assert float(vals["decay"]) == pytest.approx(float(vals["decay_predicted"]),
                                                 abs=5e-3)
    assert float(vals["n_periods"]) > 4.0
    run_cli("limit", "--x-max", "1e12", expect=1)


def test_limit_below_the_fit_window_names_the_x_max_it_needs():
    # the sampled span ends before the fit window starts at tau = 2 periods:
    # the window is reported empty, not reversed, with the x_max that the
    # 4 periods need, exp(lo + 4 period)
    proc = subprocess.run([sys.executable, "-m", "blowup", "limit", "--x-max", "1.5"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == (
        "blowup: window [11.00, 11.00] in tau covers 0.00 oscillation periods; "
        "at least 4 are needed, which takes x_max >= 2.13e+14\n")


def test_limit_fit_whose_envelope_overflows_is_a_compute_error():
    # a Gauss-Newton iterate whose envelope exp(-decay t) overflows stops the
    # fit there, before LAPACK's "SVD did not converge" and its stderr lines.
    # With U0's tail resolved no x_max reaches that, so the fit starts from
    # decay -1000, whose envelope overflows at once
    code = ("import sys; from blowup import asymptotics as a, cli; real = a._varpro; "
            "a._varpro = lambda basis, omega0, decay0: real(basis, omega0, -1e3); "
            "sys.exit(cli.main(['limit']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("blowup: the ringdown fit did not converge (non-finite model")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def test_extend_passes_for_first_member():
    header, rows = rows_of(run_cli("extend", "--n", "1", "--rho-max", "50"))
    vals = dict(rows)
    assert vals["passed"] == "true"
    assert vals["monotone"] == "true"
    assert float(vals["u_final"]) < float(vals["b"]) < 0.8735804648


def test_check_suite_all_pass():
    header, rows = rows_of(run_cli("check"))
    assert header == "check,passed,detail"
    assert len(rows) >= 12
    bad = [r for r in rows if r[1] != "true"]
    assert not bad, bad


@pytest.mark.parametrize("args", [
    ("constants",),
    ("solve", "--n", "1"),
    ("spectrum", "--n-max", "3"),
    ("profile", "--n", "1", "--samples", "32"),
    ("curves", "--n-c", "4", "--n-b", "3", "--rho-mid", "0.1"),
    ("limit",),
    ("extend", "--n", "1", "--rho-max", "20"),
    ("check",),
])
def test_json_output_validates_against_schema(args):
    payload = json.loads(run_cli(*args, "--format", "json"))
    jsonschema.validate(payload, SCHEMA)
    assert payload["kind"] == args[0]


SCIPY_FREE_SCRIPT = """
import contextlib, io, json, sys
from blowup import cli
runs = [["constants"], ["solve", "--n", "2"], ["spectrum", "--n-max", "2"],
        ["profile", "--n", "1", "--samples", "16"], ["curves", "--n-c", "5", "--n-b", "5"],
        ["extend", "--n", "1"], ["check"], ["limit"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_every_command_runs_without_scipy():
    # numpy is the only runtime dependency: a scipy import anywhere in the
    # package, lazy or not, that one of the 8 commands reaches shows up here.
    # Run in a fresh interpreter because this one has scipy loaded.
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_SCRIPT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["scipy"] == []
    assert result["codes"] == [0] * 8


NUMPY_FREE_SCRIPT = """
import contextlib, io, json, sys
from blowup import cli
first = [["constants"], ["solve", "--n", "2"], ["spectrum", "--n-max", "2"],
         ["curves", "--n-c", "5", "--n-b", "5"]]
then = [["profile", "--n", "1", "--samples", "16"], ["check"], ["limit"], ["extend", "--n", "1"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in first]
    loaded = [m for m in ("numpy", "blowup.asymptotics", "blowup.diagnostics") if m in sys.modules]
    codes += [cli.main(argv) for argv in then]
print(json.dumps({"codes": codes, "loaded": loaded, "numpy": "numpy" in sys.modules}))
"""


def test_shooting_commands_run_without_numpy():
    # importing blowup.cli and running constants, solve, spectrum and curves
    # loads no numpy, yet keeps blowup.asymptotics and blowup.diagnostics
    # imported (perfbench's tracer reads them from sys.modules); the four
    # commands that need arrays load it themselves.  Run in a fresh
    # interpreter because this one has numpy loaded
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_SCRIPT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == ["blowup.asymptotics", "blowup.diagnostics"]
    assert result["numpy"] and result["codes"] == [0] * 8


FRESH_SPECTRUM_SCRIPT = """
import contextlib, io, json, sys
from blowup import cli, integrate
at_import = len(integrate._HEAD_TABLES)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["spectrum", "--n-max", "12"])
print(json.dumps({"code": code, "csv": out.getvalue(), "at_import": at_import,
                  "tables": len(integrate._HEAD_TABLES), "numpy": "numpy" in sys.modules}))
"""


def test_a_family_after_a_regrown_kept_run_prints_a_fresh_processs_csv(p7, tol, monkeypatch,
                                                                       capsys):
    # the kept run's head table is built on the first nodal count, none at
    # import and without numpy, and again when a deeper row regrows the run:
    # spectrum --n-max 12 before and after a spectrum to row 57 prints what a
    # fresh process prints, byte for byte
    monkeypatch.setattr(integrate, "_LIMIT_RUNS", {})
    monkeypatch.setattr(integrate, "_HEAD_TABLES", {})
    key = (p7, integrate._limit_tol(p7, tol), odecore.CENTER_K)
    assert cli.main(["spectrum", "--n-max", "12"]) == 0
    first = capsys.readouterr().out
    reach = integrate._LIMIT_RUNS[key][0].t[-1]
    assert integrate._HEAD_TABLES[key][0] is integrate._LIMIT_RUNS[key][0]
    assert cli.main(["spectrum", "--n-max", "57"]) == 0
    capsys.readouterr()
    run = integrate._LIMIT_RUNS[key][0]
    assert run.t[-1] > reach and integrate._HEAD_TABLES[key][0] is run
    assert cli.main(["spectrum", "--n-max", "12"]) == 0
    assert capsys.readouterr().out == first
    proc = subprocess.run([sys.executable, "-c", FRESH_SPECTRUM_SCRIPT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"code": 0, "csv": first, "at_import": 0, "tables": 1,
                                       "numpy": False}


def test_row_58_is_refused_at_its_degenerate_head_node(monkeypatch, capsys):
    # row 58's phase radius falls below R_DEGENERATE at a node of its head
    # (rho < rho_s = rtol^(1/(2K+2)) = 0.215), past the end of the kept run's
    # table, whose R0 falls below it there too; the cut's rules keep every
    # node whose radius could be under R_DEGENERATE above the cut, so the
    # walk reaches it and refuses the row.  The deep rows regrow the kept
    # run, so they run on kept runs of their own
    monkeypatch.setattr(integrate, "_LIMIT_RUNS", {})
    monkeypatch.setattr(integrate, "_HEAD_TABLES", {})
    assert cli.main(["spectrum", "--n-max", "58", "--rho-mid", "0.5"]) == 1
    out, err = capsys.readouterr()
    _, rows = rows_of(out)
    assert [r[0] for r in rows[-3:]] == ["57", "58", "inf"] and rows[-2][1] == "FAIL"
    assert "row 58 failed: phase radius 9.73e-13 at rho=0.0789826;" in err
    assert 0.0789826 < Tolerances().rtol ** (1.0 / (2 * odecore.CENTER_K + 2))


SET_UP_SCRIPT = """
import json
import blowup.cli
from blowup import integrate, odecore
from blowup.model import derive_constants
derive_constants(7)
print(json.dumps([f.cache_info().currsize for f in (
    integrate._kernel, integrate._sum_kernel, odecore._chart_closure, odecore.series_rhs,
    odecore._mu_series, odecore.mu_series_launch)]
                 + [len(integrate._LIMIT_RUNS), len(integrate._HEAD_TABLES)]))
"""


def test_set_up_generates_no_kernel_and_builds_no_kept_run():
    # importing blowup.cli and deriving p = 7's constants, perfbench's set-up,
    # generates no code and integrates nothing: the step loops, dense output,
    # series sums and launch, equations, kept runs and their head tables wait
    # for the first request
    proc = subprocess.run([sys.executable, "-c", SET_UP_SCRIPT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * 8


def test_output_file_writing(tmp_path):
    target = tmp_path / "fam.csv"
    run_cli("spectrum", "--n-max", "2", "--out", str(target))
    text = target.read_text()
    assert text.startswith("n,c_n,b_n")
    assert text.endswith("\n")


def _fail_on_call(real, k: int):
    """Wrap real so its k-th call raises a degenerate-trajectory error."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(1)
        if len(calls) == k:
            raise diagnostics.DegenerateTrajectoryError("forced degenerate phase")
        return real(*args, **kwargs)

    return wrapped


def test_spectrum_keeps_solved_rows_on_a_degenerate_row(monkeypatch, capsys):
    monkeypatch.setattr(shoot, "nodal_index", _fail_on_call(shoot.nodal_index, 2))
    assert cli.main(["spectrum", "--n-max", "2"]) == 1
    _, rows = rows_of(capsys.readouterr().out)
    assert [r[0] for r in rows] == ["1", "2", "inf"]
    assert float(rows[0][1]) == pytest.approx(2.054390385, rel=1e-6)
    assert rows[1][1] == "FAIL"


def test_degenerate_trajectory_is_a_computational_failure(monkeypatch):
    monkeypatch.setattr(diagnostics, "phase_trajectory",
                        _fail_on_call(diagnostics.phase_trajectory, 1))
    assert cli.main(["profile", "--n", "0"]) == 1


def test_check_reports_a_missing_constant_solution_zero(monkeypatch, capsys):
    real = diagnostics.w_zero_locations
    calls = []

    def first_call_empty(traj):
        # the first call is the constant solution's; later ones pass through
        calls.append(1)
        return np.array([]) if len(calls) == 1 else real(traj)

    monkeypatch.setattr(diagnostics, "w_zero_locations", first_call_empty)
    assert cli.main(["check"]) == 1
    out = capsys.readouterr().out
    assert ("\nconstant_solution_zero,false,0 zeros, expected one at 0.707106781187\n"
            in out)
    _, rows = rows_of(out)
    assert all(r[1] == "true" for r in rows if r[0] != "constant_solution_zero")


def test_check_at_a_loose_rtol_passes_the_critical_case(capsys):
    # the ten p = 5 shots step at rtol no looser than the default, as the kept
    # run does, so their first integral holds its fixed 1e-9 bound at any rtol
    # the CLI accepts (drift 3.3e-9 at rtol 1e-7 when they stepped at it)
    assert cli.main(["check", "--rtol", "1e-7"]) == 0
    _, rows = rows_of(capsys.readouterr().out)
    assert all(r[1] == "true" for r in rows)
    assert "critical_case_first_integral" in [r[0] for r in rows]


def test_check_runs_every_invariant_past_a_raising_report(monkeypatch, capsys):
    monkeypatch.setattr(diagnostics, "first_crossing_report",
                        _fail_on_call(diagnostics.first_crossing_report, 1))
    assert cli.main(["check"]) == 1
    _, rows = rows_of(capsys.readouterr().out)
    assert len(rows) == 14
    assert [r for r in rows if r[1] != "true"] == [
        ["first_crossing_bound", "false",
         "DegenerateTrajectoryError: forced degenerate phase"]]


def test_check_fails_only_the_row_whose_lstsq_does_not_converge(monkeypatch, capsys):
    # LAPACK's LinAlgError subclasses ValueError, the usage error of exit 2
    def no_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(asymptotics, "solve_linearized_lightcone", no_svd)
    assert cli.main(["check"]) == 1
    _, rows = rows_of(capsys.readouterr().out)
    assert len(rows) == 14
    assert [r for r in rows if r[1] != "true"] == [
        ["cone_linearization_fit", "false",
         "LinAlgError: SVD did not converge in Linear Least Squares"]]


def test_check_fails_the_invariants_that_read_a_failed_spectrum(monkeypatch, capsys):
    def no_family(*args, **kwargs):
        raise shoot.ShootingError("forced chain failure")

    monkeypatch.setattr(shoot, "spectrum", no_family)
    assert cli.main(["check"]) == 1
    _, rows = rows_of(capsys.readouterr().out)
    failed = {r[0]: r[2] for r in rows if r[1] != "true"}
    assert len(rows) == 14
    assert failed == dict.fromkeys(
        ["nodal_counts", "cone_value_below_constant", "cone_value_alternation",
         "monotone_functionals", "virial_nonpositive", "outward_extension",
         "quotient_convergence"], "ShootingError: forced chain failure")
