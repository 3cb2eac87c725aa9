"""Fixtures shared by the test modules."""

import pytest

from qgauss import _orbit


@pytest.fixture
def needs_kernel():
    """Skip the test where the compiled library (_orbit.c) cannot be built."""
    if _orbit.kernel() is None:
        pytest.skip("the compiled library cannot be built here")
