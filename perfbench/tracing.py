"""In-memory spans and counts around the public functions of each layer.

The package is not modified: `Tracer.installed()` swaps every binding of a
wrapped function inside the loaded `blowup` modules (module attributes and
the names other modules imported with `from ... import`) for a recording
wrapper, and puts the originals back on exit.  One Tracer records one
request.  A span is [name, start, end, parent index, ok]; its layer is the
part of the name before the first dot.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs recorded as spans named module.function
SPANNED = [
    ("odecore", "center_launch"),
    ("odecore", "center_launch_rescaled"),
    ("odecore", "lightcone_launch"),
    ("odecore", "limit_launch"),
    ("integrate", "integrate"),
    ("integrate", "integrate_rescaled"),
    ("integrate", "integrate_limit"),
    ("shoot", "find_solution"),
    ("shoot", "spectrum"),
    ("shoot", "nodal_index"),
    ("diagnostics", "monotonicity_report"),
    ("diagnostics", "first_crossing_report"),
    ("diagnostics", "discriminant_report"),
    ("diagnostics", "extend_beyond_lightcone"),
    ("asymptotics", "integrate_limit_equation"),
    ("asymptotics", "fit_limit_asymptotics"),
    ("asymptotics", "limit_lyapunov"),
    ("asymptotics", "solve_linearized_lightcone"),
    ("cli", "main"),
]
# the integration boundary: also counts steps, RHS calls and RHS time
DRIVE = ("integrate", "drive_ode")
CHART_OF_ENTRY = {"integrate.integrate": "rho",
                  "integrate.integrate_rescaled": "x",
                  "integrate.integrate_limit": "x"}

# counts reported even when zero
COUNTS = (
    "odecore.launch.calls", "integrate.calls", "integrate.calls.coarse",
    "integrate.calls.plain", "integrate.calls.dense", "integrate.calls.rho",
    "integrate.calls.x", "integrate.steps", "integrate.steps.coarse",
    "integrate.steps.plain", "integrate.steps.dense", "integrate.rhs_calls",
    "integrate.early_stops", "shoot.rows", "shoot.rows_failed",
    "shoot.nodal_index.calls",
)
# counts that are ratios of two other counts, with their units
RATIO_UNITS = {"integrate.rhs_per_step": "calls/step",
               "shoot.integrations_per_row": "calls/row"}

NAME, START, END, PARENT, OK = range(5)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _outside_integrate(name: str) -> bool:
    return _layer(name) != "integrate"


class Tracer:
    """Spans and counts of one request.

    run_rtol is the relative tolerance the request runs at; an integration
    asked for a looser rtol is the bracketing scan ("coarse"), one that
    keeps dense output is "dense", and any other is "plain".
    """

    def __init__(self, run_rtol: float):
        self.run_rtol = run_rtol
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.rhs_s = 0.0

    # -- recording --------------------------------------------------------

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [name, perf_counter(), 0.0, parent, False]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
                span[OK] = True
                return out
            finally:
                span[END] = perf_counter()
                self.stack.pop()
        return traced

    def _driven(self, fn):
        sig = inspect.signature(fn)
        spanned = self._spanned("integrate.drive_ode", fn)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            rhs = a["rhs"]
            kind = ("coarse" if a["tol"].rtol > self.run_rtol
                    else "dense" if a["store_dense"] else "plain")
            parent = self.spans[self.stack[-1]][NAME] if self.stack else ""
            nrhs = 0

            def timed_rhs(t, y):
                nonlocal nrhs
                t0 = perf_counter()
                try:
                    return rhs(t, y)
                finally:
                    self.rhs_s += perf_counter() - t0
                    nrhs += 1

            a["rhs"] = timed_rhs
            out = spanned(*bound.args, **bound.kwargs)
            steps = len(out[0]) - 1
            counts["integrate.calls"] += 1
            counts["integrate.calls." + kind] += 1
            if parent in CHART_OF_ENTRY:
                counts["integrate.calls." + CHART_OF_ENTRY[parent]] += 1
            counts["integrate.steps"] += steps
            counts["integrate.steps." + kind] += steps
            counts["integrate.rhs_calls"] += nrhs
            counts["integrate.early_stops"] += out[3] != "reached_end"
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in the loaded blowup modules; restore on exit."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "blowup" or k.startswith("blowup."))]
        swaps = []
        for mod, attr in SPANNED + [DRIVE]:
            orig = getattr(sys.modules["blowup." + mod], attr)
            traced = (self._driven(orig) if (mod, attr) == DRIVE
                      else self._spanned(mod + "." + attr, orig))
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, traced)
                        swaps.append((m, key, orig))
        try:
            yield self
        finally:
            for m, key, orig in swaps:
                setattr(m, key, orig)

    # -- reduction --------------------------------------------------------

    def _owner(self, i: int, pred) -> int:
        """Nearest ancestor of span i whose name satisfies pred, or -1."""
        j = self.spans[i][PARENT]
        while j >= 0 and not pred(self.spans[j][NAME]):
            j = self.spans[j][PARENT]
        return j

    def summary(self) -> tuple[dict, dict, list[float]]:
        """(counts, seconds, find_solution durations) of the request.

        A span's self time is its duration minus its children's; a layer's
        is the sum over its spans.  <layer>.integrate_s is the time of the
        outermost integrate spans whose nearest non-integrate ancestor lies
        in that layer.
        """
        child_s = Counter()
        for s in self.spans:
            if s[PARENT] >= 0:
                child_s[s[PARENT]] += s[END] - s[START]
        self_s = Counter()
        integrate_s = Counter()
        row_s = []
        row_calls = 0
        counts = Counter(dict.fromkeys(COUNTS, 0))
        counts.update(self.counts)
        for i, s in enumerate(self.spans):
            name, dur = s[NAME], s[END] - s[START]
            layer = _layer(name)
            self_s[layer] += dur - child_s[i]
            if layer == "odecore":
                counts["odecore.launch.calls"] += 1
            elif name == "shoot.find_solution":
                row_s.append(dur)
                counts["shoot.rows"] += 1
                counts["shoot.rows_failed"] += not s[OK]
            elif name == "shoot.nodal_index":
                counts["shoot.nodal_index.calls"] += 1
                self_s["shoot.nodal_index"] += dur - child_s[i]
            elif layer == "integrate":
                if name == "integrate.drive_ode" and self._owner(
                        i, lambda n: n == "shoot.find_solution") >= 0:
                    row_calls += 1
                if s[PARENT] < 0 or _outside_integrate(self.spans[s[PARENT]][NAME]):
                    owner = self._owner(i, _outside_integrate)
                    if owner >= 0:
                        integrate_s[_layer(self.spans[owner][NAME])] += dur
        steps = counts["integrate.steps"]
        rows = counts["shoot.rows"]
        ratios = {
            "integrate.rhs_per_step": counts["integrate.rhs_calls"] / steps if steps else 0.0,
            "shoot.integrations_per_row": row_calls / rows if rows else 0.0,
        }
        seconds = {
            "odecore.launch.self_s": self_s["odecore"],
            "integrate.self_s": self_s["integrate"],
            "integrate.rhs_s": self.rhs_s,
            "integrate.stepper_s": self_s["integrate"] - self.rhs_s,
            "shoot.nodal_index.self_s": self_s["shoot.nodal_index"],
            "diagnostics.self_s": self_s["diagnostics"],
            "diagnostics.integrate_s": integrate_s["diagnostics"],
            "asymptotics.self_s": self_s["asymptotics"],
            "asymptotics.integrate_s": integrate_s["asymptotics"],
            "cli.self_s": self_s["cli"],
        }
        return {**counts, **ratios}, seconds, row_s
