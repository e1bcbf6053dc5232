import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nucleartight.hermite import BasisSpec, TestFunction

# one line per acceptance criterion, echoed after the run (survives capture)
acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def basis64():
    return BasisSpec(64, 128)


@pytest.fixture(scope="session")
def basis16():
    return BasisSpec(16, 32)


def unit_function(basis, k):
    c = np.zeros(basis.size)
    c[k] = 1.0
    return TestFunction(basis, c)


def scenario(basis, grid, **fields):
    """A scenario config on ``basis`` and ``grid``, with ``fields`` on top."""
    return {"basis": {"N": basis.size, "Q": basis.quad_order}, "grid": {"T": grid.horizon, "J": grid.steps}, **fields}


@pytest.fixture(scope="session")
def h0_64(basis64):
    return unit_function(basis64, 0)
