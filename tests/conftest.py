import sys
import time

import pytest

from homtower.covers import mod_power_tower
from homtower.deltacomplex import builtin
from homtower.growth import run_tower


@pytest.fixture(scope="session")
def torus_tower_run():
    """Torus tower to level 4 (degrees 4..256), timed once per session."""
    start = time.monotonic()
    tower = mod_power_tower(builtin("torus2"), 2, 4)
    report = run_tower(tower, primes=(2,))
    elapsed = time.monotonic() - start
    return tower, report, elapsed


@pytest.fixture(scope="session")
def surface_tower_run():
    """Genus-2 surface tower to level 2 (degrees 16, 256), timed once."""
    start = time.monotonic()
    tower = mod_power_tower(builtin("surface", genus=2), 2, 2)
    report = run_tower(tower, primes=(2,))
    elapsed = time.monotonic() - start
    return tower, report, elapsed


@pytest.fixture
def default_digit_limit():
    """CPython's default int/str digit limit (4300), where the interpreter
    has one (3.11, and 3.10 from 3.10.7)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield False
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield True
    sys.set_int_max_str_digits(old)
