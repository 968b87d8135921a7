import pytest

from d21alpha import cohomology


@pytest.fixture(autouse=True)
def cold_point_slice():
    """Each test starts with an empty compute_point slice cache.

    A slice built before a test's monkeypatch (a bracket, MAX_REWRITE_STEPS)
    would answer from columns filled without it.
    """
    cohomology._action_slice.cache_clear()
