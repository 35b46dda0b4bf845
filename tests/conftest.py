import pytest

from nakayama import tilting


@pytest.fixture(autouse=True)
def fresh_reports(monkeypatch):
    """Each test starts from an empty classify table and leaves none behind,
    so what one test classifies neither answers nor times another's calls."""
    monkeypatch.setattr(tilting, "_reports", {})
