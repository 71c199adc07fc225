"""Checks shared by every test."""

import pytest
from mpmath import mp


@pytest.fixture(autouse=True)
def mpmath_precision_is_scoped():
    # mpmath's precision is process-wide: a test that sets mp.dps and does
    # not restore it changes every later mpmath computation.  Scope it with
    # mp.workdps(n) instead.
    dps = mp.dps
    yield
    if mp.dps != dps:
        leaked, mp.dps = mp.dps, dps
        pytest.fail(f"mpmath.mp.dps left at {leaked} (was {dps}); "
                    "use mp.workdps", pytrace=False)
