import functools

import pytest

import golden


@pytest.fixture(scope="session")
def readme_run():
    """:func:`golden.run_cli`, each command run once per session.  The CLI
    contract, the ``verify`` command tests and the acceptance criteria read
    the same run of a README command; they must not change the result."""
    return functools.cache(golden.run_cli)


def pytest_collection_modifyitems(items):
    # the acceptance criteria go last: they read the verification reports
    # that the CLI contract tests have run by then
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")
