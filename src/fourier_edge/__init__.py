"""Algebraic reconstruction of piecewise-smooth functions from Fourier data.

The package recovers jump locations, jump magnitudes, and smooth remainders
of 1D and 2D piecewise-smooth periodic functions from finitely many Fourier
coefficients, at algebraic accuracy orders set by the reconstruction degree.
See README.md for the pipeline layout and the CLI experiment driver.

The public API is the list below, and only it: the models and their truth,
the Fourier data, the 1D and two-stage 2D reconstructions, the precision
context and the typed errors.  Stage internals (moments, localization,
magnitude solves, root finding, kernels) stay importable from their modules;
``fourier_edge.oracle`` and ``fourier_edge.cli`` are imported explicitly.
"""

from .model1d import (
    CoeffVector1D,
    JumpModel1D,
    TrigBackground,
    eval_model,
    synth_coeffs,
)
from .model2d import (
    Background2D,
    CoeffGrid2D,
    Curve,
    Model2D,
    coeff_grid,
    eval2d,
    load_grid,
    save_grid,
)
from .numerics import ArithmeticContext, RootFindingError
from .recon1d import (
    LocalizationError,
    Reconstruction1D,
    ReconstructionError,
    evaluate,
    reconstruct1d,
)
from .recon2d import FieldReconstruction, reconstruct_field

__version__ = "0.1.0"

__all__ = [
    # models and their truth
    "JumpModel1D",
    "TrigBackground",
    "Model2D",
    "Curve",
    "Background2D",
    "eval_model",
    "eval2d",
    # data
    "CoeffVector1D",
    "CoeffGrid2D",
    "synth_coeffs",
    "coeff_grid",
    "save_grid",
    "load_grid",
    # reconstruction
    "reconstruct1d",
    "Reconstruction1D",
    "evaluate",
    "reconstruct_field",
    "FieldReconstruction",
    # context and errors
    "ArithmeticContext",
    "ReconstructionError",
    "LocalizationError",
    "RootFindingError",
]
