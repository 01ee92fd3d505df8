"""Algebraic reconstruction of piecewise-smooth functions from Fourier data.

The package recovers jump locations, jump magnitudes, and smooth remainders
of 1D and 2D piecewise-smooth periodic functions from finitely many Fourier
coefficients, at algebraic accuracy orders set by the reconstruction degree.
See README.md for the pipeline layout and the CLI experiment driver.

The public API is the union of the pipeline modules' ``__all__`` lists;
``fourier_edge.oracle`` and ``fourier_edge.cli`` are imported explicitly.
"""

from . import kernels, model1d, model2d, numerics, recon1d, recon2d
from .numerics import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .model1d import *  # noqa: F401,F403
from .recon1d import *  # noqa: F401,F403
from .model2d import *  # noqa: F401,F403
from .recon2d import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *numerics.__all__,
    *kernels.__all__,
    *model1d.__all__,
    *recon1d.__all__,
    *model2d.__all__,
    *recon2d.__all__,
]
