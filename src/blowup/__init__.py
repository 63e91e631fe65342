"""Self-similar blowup profiles of the focusing semilinear wave equation.

The profile equation for u(rho) on the backward light cone of a blowup
point is solved by double shooting: series launches at the two singular
endpoints (center and cone), high-order integration toward a matching
radius, and Newton refinement of the parameter pair (c, b) = (u(0), u(1)).
The package computes the countable family u_n, its nodal structure, the
monotone functionals that constrain it, the large-amplitude limit and
cone linearization whose ringdowns set the family's geometric scaling,
and a CLI that exports all of it deterministically.
"""

from .model import ModelParams, ProfileState, derive_constants, u_singular
from .integrate import (
    Tolerances,
    Trajectory,
    center_trajectory,
    integrate_limit,
    lightcone_trajectory,
)
from .odecore import center_launch, center_launch_rescaled, lightcone_launch, limit_launch
from .shoot import (
    MergedTrajectory,
    SearchError,
    ShootingError,
    ShootingResult,
    SpectrumResult,
    constant_solution_result,
    find_solution,
    mismatch,
    sample_curves,
    spectrum,
)
from .diagnostics import (
    DiscriminantReport,
    ExtensionReport,
    FirstCrossingReport,
    MonotonicityReport,
    crossing_discriminant,
    discriminant_report,
    eval_deviation_energy,
    eval_energy,
    eval_virial,
    extend_beyond_lightcone,
    first_crossing_report,
    monotonicity_report,
    phase_trajectory,
    phase_zero_count,
)
from .asymptotics import (
    OscillationFit,
    fit_limit_asymptotics,
    integrate_limit_equation,
    matched_amplitude_check,
    solve_linearized_lightcone,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "ProfileState", "derive_constants", "u_singular",
    "Tolerances", "Trajectory", "center_trajectory",
    "integrate_limit", "lightcone_trajectory",
    "center_launch", "center_launch_rescaled", "lightcone_launch", "limit_launch",
    "MergedTrajectory", "SearchError", "ShootingError", "ShootingResult",
    "SpectrumResult", "constant_solution_result", "find_solution", "mismatch",
    "sample_curves", "spectrum",
    "DiscriminantReport", "ExtensionReport", "FirstCrossingReport",
    "MonotonicityReport", "crossing_discriminant", "discriminant_report",
    "eval_deviation_energy", "eval_energy", "eval_virial",
    "extend_beyond_lightcone", "first_crossing_report", "monotonicity_report",
    "phase_trajectory", "phase_zero_count",
    "OscillationFit", "fit_limit_asymptotics", "integrate_limit_equation",
    "matched_amplitude_check", "solve_linearized_lightcone",
    "__version__",
]
