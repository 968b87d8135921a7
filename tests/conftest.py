import pytest

from d21alpha import cohomology


@pytest.fixture(autouse=True)
def cold_point_slot(monkeypatch):
    """Each test starts with an empty compute_point slot.

    A slice built before a test's monkeypatch (a bracket, MAX_REWRITE_STEPS)
    would answer from columns filled without it.
    """
    monkeypatch.setattr(cohomology, "_POINT_SLOT", cohomology._PointSlot())
