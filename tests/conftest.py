import pytest

from ergopulse import _kernels


@pytest.fixture
def polar_calls(monkeypatch):
    """List that gains one entry per polar correction in the kernels."""
    calls = []
    real_polar = _kernels._polar

    def counting(p):
        calls.append(p.shape)
        return real_polar(p)

    monkeypatch.setattr(_kernels, "_polar", counting)
    return calls
