"""Feedback-interval optimization for quantized MIMO transmit beamforming.

The package answers one question in several ways: given a temporally
correlated Rayleigh MIMO channel and a per-block feedback budget, how many
fading blocks should a quantized beamforming update be stretched over?

Modules
-------
channel    Gauss-Markov Rayleigh channel generation and spectral helpers.
codebook   RVQ and maximin beamforming codebooks plus entry selection.
finite     Closed-form / quadrature average received power for 2xNr and
           Ntx2 channels and the exact interval search.
largesys   Large-system (Nt, Nr, B -> infinity) rate-difference asymptotics.
simulate   Seeded Monte Carlo engine and sweep driver.
cli        Command-line front end emitting CSV/JSON tables.
"""

from afpopt.channel import FadingModel, RandomStream, SystemShape
from afpopt.codebook import Codebook, Selection
from afpopt.finite import AfpConfig, IntervalResult
from afpopt.largesys import LargeSystemConfig
from afpopt.simulate import Estimate, ExperimentSpec, SweepRecord

__version__ = "0.1.0"

__all__ = [
    "AfpConfig",
    "Codebook",
    "Estimate",
    "ExperimentSpec",
    "FadingModel",
    "IntervalResult",
    "LargeSystemConfig",
    "RandomStream",
    "Selection",
    "SweepRecord",
    "SystemShape",
    "__version__",
]
