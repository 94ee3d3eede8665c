import pytest

from helpers import brute_force_average
from medwit.pauli import BasisState


@pytest.fixture(scope="session")
def exhaustive_average_1100():
    """Brute-force exhaustive average of the 8-stage dephased run from |1100>."""
    return brute_force_average(8, 1.0, BasisState.from_string("1100"))
