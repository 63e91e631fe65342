import math

import pytest

from blowup.model import (
    ModelParams,
    ProfileState,
    _derive_unchecked,
    derive_constants,
    du_singular,
    u_singular,
)
from reference_values import ORACLES


def test_p7_constants_against_oracles(p7):
    assert p7.alpha == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert p7.b0 == pytest.approx(ORACLES["b0"], rel=1e-14)
    assert p7.b_inf == pytest.approx(ORACLES["b_inf"], rel=1e-14)
    assert p7.omega == pytest.approx(ORACLES["omega"], rel=1e-14)
    assert p7.ratio_c == pytest.approx(ORACLES["ratio_c"], rel=1e-14)
    assert p7.ratio_b == pytest.approx(ORACLES["ratio_b"], rel=1e-14)


def test_defining_identities_all_p():
    for p in range(6, 40):
        P = derive_constants(p)
        pm1 = p - 1
        # the powers must invert exactly back to the defining rationals
        assert P.b0 ** pm1 == pytest.approx(2.0 * (p + 1) / pm1**2, rel=1e-13)
        assert P.b_inf ** pm1 == pytest.approx(2.0 * (p - 3) / pm1**2, rel=1e-13)
        assert P.b0 ** pm1 == pytest.approx(P.aa1, rel=1e-13)
        assert P.b_inf ** pm1 == pytest.approx(P.alpha * (1 - P.alpha), rel=1e-13)
        # amplitude ratio is a fixed power of the scale ratio
        assert P.ratio_b == pytest.approx(P.ratio_c ** (-(p - 5) / 4.0), rel=1e-13)
        assert P.b_inf < P.b0


def test_constants_against_high_precision_arithmetic():
    # recompute every derived constant at 50 digits and require the float
    # versions to be correctly rounded to within one ulp-ish band
    import mpmath as mp

    mp.mp.dps = 50
    for p in (7, 9, 11, 15):
        P = derive_constants(p)
        pm = mp.mpf(p) - 1
        b0 = (2 * (p + 1) / pm**2) ** (1 / pm)
        b_inf = (2 * (p - 3) / pm**2) ** (1 / pm)
        om = mp.sqrt(7 * p * p - 22 * p - 1) / (2 * pm)
        rc = mp.e ** (2 * mp.pi / (pm * om))
        rb = mp.e ** (-(p - 5) * mp.pi / (2 * pm * om))
        for got, want in ((P.b0, b0), (P.b_inf, b_inf), (P.omega, om),
                          (P.ratio_c, rc), (P.ratio_b, rb)):
            assert abs(got - float(want)) <= 4 * abs(float(want)) * 2.3e-16


def test_omega_frequency_identity():
    # (p-5)^2 - 8(p-3)(p-1) = -(7p^2 - 22p - 1), the spiral eigenvalue pair
    for p in (7, 9, 11, 13):
        lhs = (p - 5) ** 2 - 8 * (p - 3) * (p - 1)
        assert lhs == -(7 * p * p - 22 * p - 1)
        P = derive_constants(p)
        assert P.omega == pytest.approx(math.sqrt(7 * p * p - 22 * p - 1) / (2 * (p - 1)),
                                        rel=1e-15)


def test_other_exponent_oracles():
    P9 = derive_constants(9)
    assert P9.omega == pytest.approx(ORACLES["omega_p9"], rel=1e-14)
    assert P9.ratio_c == pytest.approx(ORACLES["ratio_c_p9"], rel=1e-14)
    assert P9.ratio_b == pytest.approx(ORACLES["ratio_b_p9"], rel=1e-14)
    P5 = _derive_unchecked(5)
    assert P5.b0 == pytest.approx(ORACLES["b0_p5"], rel=1e-14)
    assert P5.b_inf == pytest.approx(ORACLES["b_inf_p5"], rel=1e-14)
    assert P5.omega == pytest.approx(1.0, rel=1e-15)
    assert P5.ratio_b == pytest.approx(1.0, rel=1e-15)  # borderline case, no contraction


def test_domain_validation():
    with pytest.raises(ValueError):
        derive_constants(4)
    with pytest.raises(ValueError):
        derive_constants(5)   # critical case is deliberately fenced off
    with pytest.raises(ValueError):
        derive_constants(7.0)
    with pytest.raises(ValueError):
        derive_constants(True)


def test_experimental_is_the_parity_of_p():
    # derived, so no caller can set it against p
    assert [derive_constants(p).experimental for p in (6, 7, 8, 9)] == [True, False, True, False]


def test_singular_solution_closed_form(p7):
    assert u_singular(p7, 1.0) == pytest.approx(p7.b_inf, rel=1e-15)
    assert u_singular(p7, 0.1) == pytest.approx(ORACLES["u_inf_01"], rel=1e-14)
    assert du_singular(p7, 0.1) == pytest.approx(ORACLES["du_inf_01"], rel=1e-14)
    assert u_singular(p7, 0.5) == pytest.approx(ORACLES["u_inf_05"], rel=1e-13)
    assert du_singular(p7, 0.5) == pytest.approx(ORACLES["du_inf_05"], rel=1e-13)
    with pytest.raises(ValueError):
        u_singular(p7, 0.0)
    with pytest.raises(ValueError):
        du_singular(p7, -1.0)


def test_profile_state_validation():
    ProfileState(0.5, 1.0, -2.0)
    with pytest.raises(ValueError):
        ProfileState(-0.1, 1.0, 0.0)
    with pytest.raises(ValueError):
        ProfileState(0.5, math.inf, 0.0)


def test_params_frozen(p7):
    with pytest.raises(Exception):
        p7.b0 = 1.0
    assert isinstance(p7, ModelParams)
