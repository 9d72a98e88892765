"""Exact polynomial fitting."""

import pytest

from coconvex.errors import SingularSystem
from coconvex.fitting import fit_polynomial


def test_fit_polynomial_repeated_nodes_raise():
    with pytest.raises(SingularSystem):
        fit_polynomial([1, 1], [0, 1])
