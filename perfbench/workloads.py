"""Workload inputs drawn from a seed, and the correctness gates on their CSV.

The seed draws only the CLI arguments.  Every workload runs at p = 7 and
the CLI's default tolerances.  A gate returns one verdict per item (a row
or an invariant); a missing item counts as a failed one.
"""

from __future__ import annotations

import random

N_MAX = 12            # family rows
# the invariants `check` reports at the seed commit; later ones may be added
INVARIANTS = (
    "nodal_counts", "cone_value_below_constant", "cone_value_alternation",
    "monotone_functionals", "virial_nonpositive", "constant_solution_zero",
    "first_crossing_bound", "crossing_discriminant", "limit_ringdown_fit",
    "limit_lyapunov_monotone", "cone_linearization_fit", "outward_extension",
    "quotient_convergence", "critical_case_first_integral",
)


def draw_argv(workload: str, seed: int) -> list[str]:
    """CLI arguments of one request; the same seed gives the same list."""
    rho_mid = "%.4f" % random.Random(seed).uniform(0.4, 0.6)
    if workload == "family":
        return ["spectrum", "--p", "7", "--n-max", str(N_MAX), "--rho-mid", rho_mid]
    if workload == "check":
        return ["check", "--p", "7", "--rho-mid", rho_mid]
    raise ValueError(f"unknown workload {workload!r}")


def _family(csv: str, params, table) -> list[bool]:
    rows = {}
    for line in csv.splitlines()[1:]:
        f = line.split(",")
        if f[0] != "inf":
            rows[int(f[0])] = f
    verdicts = []
    prev_above = None
    for n in range(1, N_MAX + 1):
        f = rows.get(n)
        if f is None or f[1] == "FAIL":
            verdicts.append(False)
            continue
        c, b, zeros = float(f[1]), float(f[2]), int(f[6])
        c_ref, b_ref = table[n][:2]
        # the tolerances of acceptance criteria 02 (n <= 6) and 03 (n = 7..12)
        if n <= 6:
            close = abs(c - c_ref) / c_ref < 1e-5 and abs(b - b_ref) < 1e-6
        else:
            close = max(abs(c - c_ref) / c_ref, abs(b - b_ref) / b_ref) < 1e-4
        above = b > params.b_inf
        alternates = prev_above is None or above != prev_above
        prev_above = above
        verdicts.append(zeros == n + 1 and b < params.b0 and close and alternates)
    return verdicts


def _check(csv: str, params, table) -> list[bool]:
    passed = dict(line.split(",", 2)[:2] for line in csv.splitlines()[1:])
    return ([v == "true" for v in passed.values()]
            + [False for name in INVARIANTS if name not in passed])


GATES = {"family": _family, "check": _check}


def gate(workload: str, code: int, csv: str, params, table) -> list[bool]:
    """Per-item verdicts; a nonzero exit fails every item of the request."""
    try:
        verdicts = GATES[workload](csv, params, table)
    except (ValueError, IndexError, KeyError):
        verdicts = []
    if not verdicts:
        verdicts = [False]
    if code != 0:
        verdicts = [False] * len(verdicts)
    return verdicts
