import pytest

from afpopt import finite


@pytest.fixture
def ntx2_passes(monkeypatch):
    """Every nt x 2 quadrature pass, as (nt, sizes), from a cleared cache."""
    monkeypatch.setattr(finite, "_ntx2_cache", {})
    passes = []
    real = finite._ntx2_shortfall
    monkeypatch.setattr(
        finite, "_ntx2_shortfall", lambda nt, sizes: passes.append((nt, sizes)) or real(nt, sizes)
    )
    return passes
