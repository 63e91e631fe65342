"""Benchmark of the blowup CLI: one workload, measured in one process.

    python3 perfbench/run.py --workload family|check --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Requests go through the public entry point
`blowup.cli.main(argv)` in process, back to back (a closed loop with one
client), for S seconds and at least MIN_PASSES requests: the loop stops
when the next request would end more than half a request past S.
Every request's CSV is checked by the workload's gate and must be
byte-identical to the first request's.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced requests and reports the per-layer metrics of the traced ones
(see tracing.py); their counts must repeat exactly, and their CSV must match
the untraced CSV.  The spans are written to .bench_trace/ at the end.
The last line of stdout is one JSON object with the result.
"""

import os

# One process on a 2-core host: no BLAS/OpenMP pool, no solver thread pool.
# Set before numpy is first imported, which reads them once.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BLOWUP_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = ROOT / "tests" / "reference_values.py"
TRACE_DIR = ROOT / ".bench_trace"
RUN_RTOL = 1e-12      # the CLI default, which every workload runs at
MIN_PASSES = 2        # requests per kind, so determinism is always checked
SETUP_RUNS = 3        # fresh interpreters timed for setup_s

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import blowup.cli; "
    "from blowup.model import derive_constants; derive_constants(7); "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


def setup_seconds() -> float:
    """Fresh interpreter to blowup.cli imported and derive_constants returned."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"setup interpreter failed (exit {proc.returncode})")
    return dt


def request(cli, argv):
    """(exit code, CSV, wall s, CPU s) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    w0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed request, not a failed run
            traceback.print_exc()
            code = 1
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if err.getvalue():
        sys.stderr.write(err.getvalue())
    return code, out.getvalue(), wall, cpu


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(name, unit, xs) -> None:
    q1, q2, q3 = quartiles(xs)
    print(f"  {name:30s} median {q2:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, "
          f"min {min(xs):.6g}, max {max(xs):.6g}, n={len(xs)})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("family", "check"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "blowup" / "cli.py").is_file() or not REFERENCE.is_file():
        print(f"perfbench: {ROOT} holds no blowup source tree "
              "(src/blowup, tests/reference_values.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import blowup.cli as cli
    from blowup.model import derive_constants
    import tracing
    import workloads

    spec = importlib.util.spec_from_file_location("reference_values", REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)

    params = derive_constants(7)
    argv = workloads.draw_argv(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"blowup {' '.join(argv)}")

    setups = ([setup_seconds() for _ in range(SETUP_RUNS)]
              if args.trace == 0 else [])

    plain, traced, tracers = [], [], []
    deadline = time.perf_counter() + args.seconds
    last = 0.0
    while (len(plain) < MIN_PASSES or (args.trace and len(traced) < MIN_PASSES)
           or time.perf_counter() + last / 2 < deadline):
        start = time.perf_counter()
        plain.append(request(cli, argv))
        if args.trace:
            tracer = tracing.Tracer(RUN_RTOL)
            with tracer.installed():
                traced.append(request(cli, argv))
            tracers.append(tracer)
        last = time.perf_counter() - start

    # determinism: every CSV equals the first, every traced request's counts
    # equal the first traced request's; a request that differs fails all items
    summaries = [t.summary() for t in tracers]
    same_csv = [r[1] == plain[0][1] for r in plain + traced]
    same_counts = [True] * len(plain) + [s[0] == summaries[0][0] for s in summaries]
    attempted = failed = 0
    for (code, csv, _, _), csv_ok, counts_ok in zip(plain + traced, same_csv, same_counts):
        verdicts = workloads.gate(args.workload, code, csv, params,
                                  reference.FAMILY_TABLE)
        if not (csv_ok and counts_ok):
            verdicts = [False] * len(verdicts)
        attempted += len(verdicts)
        failed += verdicts.count(False)
    print(f"  requests {len(same_csv)}, items {attempted}, failed {failed}, "
          f"fail_frac {failed / attempted:.6g}, CSV identical: {all(same_csv)}, "
          f"counts identical: {all(same_counts)}")

    metrics = {}
    if args.trace == 0:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        series = {"setup_s": ("s", setups),
                  "wall_s": ("s", [r[2] for r in plain]),
                  "cpu_s": ("s", [r[3] for r in plain]),
                  "peak_rss_mb": ("MB", [peak_mb])}
    else:
        counts = summaries[0][0]
        series = {k: (tracing.RATIO_UNITS.get(k, "count"), [v])
                  for k, v in counts.items()}
        for k in summaries[0][1]:
            series[k] = ("s", [s[k] for _, s, _ in summaries])
        rows = [d for _, _, row_s in summaries for d in row_s]
        series["shoot.row_s.p50"] = ("s", [statistics.median(rows) if rows else 0.0])
        series["shoot.row_s.p90"] = (
            "s", [statistics.quantiles(rows, n=10, method="inclusive")[-1]
                  if len(rows) > 1 else (rows or [0.0])[0]])
        overhead = (statistics.median(r[2] for r in traced)
                    / statistics.median(r[2] for r in plain) - 1.0)
        series["trace_overhead_frac"] = ("ratio", [overhead])
        TRACE_DIR.mkdir(exist_ok=True)
        dump = {"workload": args.workload, "seed": args.seed, "argv": argv,
                "requests": [{"request": i, "counts": s[0], "spans": t.spans}
                             for i, (t, s) in enumerate(zip(tracers, summaries))]}
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(dump))
        print(f"  spans written to {path.relative_to(ROOT)}")
    for name, (unit, xs) in series.items():
        report(name, unit, xs)
        metrics[name] = {"value": statistics.median(xs), "unit": unit}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
