import pytest

from d21alpha import enveloping


@pytest.fixture(autouse=True)
def cold_crossing_tables():
    """Each test starts with an empty crossing-table cache.

    A table built before a test's monkeypatch (MAX_REWRITE_STEPS, the
    reference lambdas) would answer without it.
    """
    enveloping._TABLES.clear()
