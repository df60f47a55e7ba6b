import pytest

from afpopt import codebook, finite, simulate


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


@pytest.fixture
def maximin_builds(monkeypatch):
    """The budgets of every codebook.maximin_codebooks call, the sweep's included."""
    builds = []
    real = codebook.maximin_codebooks

    def counted(nt, budgets, candidates, rng):
        builds.append(budgets := list(budgets))
        return real(nt, budgets, candidates, rng)

    monkeypatch.setattr(codebook, "maximin_codebooks", counted)
    monkeypatch.setattr(simulate, "maximin_codebooks", counted)
    return builds
