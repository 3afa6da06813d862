"""Fixtures shared across test modules."""

import pytest

from zmclab.audit import run_audit


@pytest.fixture(scope="session")
def audit_report():
    """One audit run for the tests that only read its claims.

    The byte-determinism tests make their own runs: they compare two.
    """
    return run_audit()
