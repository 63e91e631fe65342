import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from blowup.integrate import Tolerances, center_trajectory, lightcone_trajectory
from blowup.model import derive_constants
from blowup import shoot


@pytest.fixture(scope="session")
def p7():
    return derive_constants(7)


@pytest.fixture(scope="session")
def tol():
    return Tolerances()


@pytest.fixture(scope="session")
def family(p7, tol):
    """Rows n = 1..13 of the p = 7 family; shared because the chain is the
    expensive part of the suite."""
    return shoot.spectrum(13, p7, tol)


@pytest.fixture(scope="session")
def u1(family):
    return family.rows[0]


@pytest.fixture(scope="session")
def oracle_shots(p7, tol):
    """An ascending center shot, an x-chart shot, a descending cone shot and
    an outward cone shot: the cases the dense output and the root finder are
    checked on against scipy."""
    return {"center c=2": center_trajectory(2.0, 0.5, p7, tol),
            "x-chart c=1e4": center_trajectory(1e4, 0.5, p7, tol),
            "cone b=0.7 inward": lightcone_trajectory(0.7, 0.5, p7, tol),
            "cone b=0.7 outward": lightcone_trajectory(0.7, 100.0, p7, tol)}
