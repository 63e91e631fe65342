"""Closed-form data of the self-similar profile equation.

Radial self-similar solutions u(rho) of the focusing wave equation
u_tt - Lap(u) = u^p in similarity coordinates satisfy

    (1 - rho^2) u'' + (2/rho - (2 + 2*alpha) rho) u' - alpha(alpha+1) u + u^p = 0,

with alpha = 2/(p-1), on 0 <= rho <= 1 (rho = 1 is the backward light cone
of the blowup point).  Everything in this module is closed form:

    b0    = (2(p+1)/(p-1)^2)^(1/(p-1))     constant solution u = b0
    b_inf = (2(p-3)/(p-1)^2)^(1/(p-1))     singular solution u = b_inf rho^(-alpha)
    omega = sqrt(7p^2 - 22p - 1)/(2(p-1))  log-oscillation frequency at the origin

and the geometric scaling ratios of the excited-profile family

    ratio_c = exp(2 pi / ((p-1) omega))            c_{n+1}/c_n
    ratio_b = exp(-(p-5) pi / (2 (p-1) omega))     (b_{n+1}-b_inf)/(b_inf-b_n)

Powers are evaluated through exp/log of exact rationals so the defining
identities hold to ~1e-15 relative for every admissible p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ModelParams",
    "ProfileState",
    "derive_constants",
    "u_singular",
    "du_singular",
]


@dataclass(frozen=True)
class ProfileState:
    """Point on a profile: similarity radius rho, value u, derivative du/drho."""

    rho: float
    u: float
    du: float

    def __post_init__(self):
        if not (self.rho >= 0.0 and math.isfinite(self.rho)):
            raise ValueError(f"rho must be finite and nonnegative, got {self.rho}")
        if not (math.isfinite(self.u) and math.isfinite(self.du)):
            raise ValueError("u and du must be finite")


@dataclass(frozen=True)
class ModelParams:
    """Exponent p with its derived constants.

    Attributes
    ----------
    p : int
        Nonlinearity exponent.  The family of regular profiles exists for
        odd p >= 7; even p >= 6 is accepted but flagged experimental.
    alpha : float
        Similarity scaling exponent 2/(p-1).
    b0 : float
        Value of the constant solution.
    b_inf : float
        Amplitude of the singular solution b_inf * rho^(-alpha).
    omega : float
        Frequency of log-periodic oscillations around the singular solution.
    ratio_c : float
        Predicted limit of c_{n+1}/c_n.
    ratio_b : float
        Predicted limit of (b_{n+1}-b_inf)/(b_inf-b_n), in absolute value,
        with alternating sign built into the family.
    """

    p: int
    alpha: float
    b0: float
    b_inf: float
    omega: float
    ratio_c: float
    ratio_b: float

    @property
    def aa1(self) -> float:
        """alpha*(alpha+1), the coefficient of the linear term; equals b0^(p-1)."""
        return self.alpha * (self.alpha + 1.0)

    @property
    def experimental(self) -> bool:
        """True for even p, where no existence claims are made."""
        return self.p % 2 == 0


def _derive_unchecked(p: int) -> ModelParams:
    # exp/log of exact rationals keeps b0^(p-1) == 2(p+1)/(p-1)^2 to ~1e-15
    pm1 = p - 1
    alpha = 2.0 / pm1
    b0 = math.exp(math.log(2 * (p + 1) / (pm1 * pm1)) / pm1)
    b_inf = math.exp(math.log(2 * (p - 3) / (pm1 * pm1)) / pm1)
    omega = math.sqrt(7 * p * p - 22 * p - 1) / (2 * pm1)
    ratio_c = math.exp(2.0 * math.pi / (pm1 * omega))
    ratio_b = math.exp(-(p - 5) * math.pi / (2.0 * pm1 * omega))
    return ModelParams(
        p=p,
        alpha=alpha,
        b0=b0,
        b_inf=b_inf,
        omega=omega,
        ratio_c=ratio_c,
        ratio_b=ratio_b,
    )


def derive_constants(p: int) -> ModelParams:
    """Build ModelParams for integer p >= 6.

    Odd p >= 7 is the supported regime; even p >= 6 is returned, its
    experimental property True.  Non-integer or p < 6 raises ValueError.
    """
    if isinstance(p, bool) or not isinstance(p, int):
        raise ValueError(f"exponent p must be an integer, got {p!r}")
    if p < 6:
        raise ValueError(f"exponent p must be >= 6, got {p}")
    return _derive_unchecked(p)


def u_singular(params: ModelParams, rho: float) -> float:
    """The singular solution b_inf * rho^(-alpha); requires rho > 0."""
    if rho <= 0.0:
        raise ValueError(f"u_singular needs rho > 0, got {rho}")
    return params.b_inf * rho ** (-params.alpha)


def du_singular(params: ModelParams, rho: float) -> float:
    """d/drho of the singular solution: -alpha * b_inf * rho^(-alpha-1)."""
    if rho <= 0.0:
        raise ValueError(f"du_singular needs rho > 0, got {rho}")
    return -params.alpha * params.b_inf * rho ** (-params.alpha - 1.0)
