import functools

import pytest

import golden
from delinscap.run_length import ROWS


@pytest.fixture(scope="session")
def readme_run():
    """:func:`golden.run_cli`, each command run once per session.  The CLI
    contract, the ``verify`` command tests and the acceptance criteria read
    the same run of a README command; they must not change the result."""
    return functools.cache(golden.run_cli)


@pytest.fixture
def cold_rows():
    """The run-length row table, emptied before the test and again after it:
    the test builds every row it reads, and no row it built (under a patched
    trim, say) reaches a later test."""
    ROWS.reset()
    yield ROWS
    ROWS.reset()
