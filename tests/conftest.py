import pytest

from d21alpha import algebra, enveloping


@pytest.fixture(autouse=True)
def cold_crossing_tables():
    """Each test starts with empty crossing-table and algebra caches.

    A table built before a test's monkeypatch (MAX_REWRITE_STEPS, the
    reference lambdas) would answer without it, and a shared algebra that
    a test altered would reach the tests after it.
    """
    enveloping._TABLES.clear()
    algebra._shared_algebra.cache_clear()
