"""Acceptance gate: the core guarantees, one test per registered criterion.

Each test runs one check of ``selfcheck.ALL_CHECKS`` (the ones the
``statefuse check`` verb executes), prints one PASS or FAIL line with the
measured figure, and asserts the check passed at its stated tolerance.  A
test's id is ``criterion_NN_<name>``, so ``-k criterion_05`` selects
criterion 05, and a criterion registered later gets its gate with it.
"""

import sys

import pytest

from statefuse.selfcheck import ALL_CHECKS

NAMES = [check.__name__.removeprefix("check_") for check in ALL_CHECKS]


@pytest.mark.parametrize(
    "check, name", zip(ALL_CHECKS, NAMES),
    ids=[f"criterion_{number:02d}_{name}" for number, name in enumerate(NAMES, 1)],
)
def test_criterion(check, name):
    result = check()
    line = f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}"
    print(line, file=sys.stderr)
    assert result.name == name
    assert result.passed, line
