"""Output bytes pinned by sha256 digest (tests/golden.json).

Every other test holds one implementation to another: the compiled loops to
the Python loops, the block null to the per-word null.  A change made to
both sides of such a pair moves output bits with those tests green.  These
digests were recorded from the package by tests/record_golden.py and fail on
any moved bit of the generator, gbmm, the null, lyapunov, the closed forms
of qgauss.distribution or the gen/gof command line.  The two acceptance tables' digests are checked in
test_acceptance.py, from the tables its criteria build.
"""

import pytest
from record_golden import GOLDEN, cases

CASES = cases()


def test_every_entry_is_recorded():
    assert set(CASES) | {"table_one", "table_two"} == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest(name):
    assert CASES[name]() == GOLDEN[name]
