"""Two-stage reconstruction of a 2D piecewise-smooth function from its grid.

Stage one treats each horizontal grid row {Fhat(., wy)} as the coefficient
vector of a 1D function of x whose only possible jump sits at the known
period seam x = -pi, and reconstructs it with the jump-known 1D pipeline.
Stage two evaluates all row reconstructions at a fixed x, obtaining the
Fourier coefficients (in y) of the slice F(x, .), and runs the full
unknown-jump 1D pipeline on them to recover the curve crossing xi(x), the
kernel magnitudes A_l(x), and the slice itself.

Row failures are contained: a failed row degrades to raw truncated-series
evaluation and is flagged, so one bad row cannot sink a whole field run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import warnings

from mpmath import mp

from .model1d import CoeffVector1D
from .model2d import CoeffGrid2D
from .numerics import ArithmeticContext, RootFindingError
from .recon1d import (
    Reconstruction1D,
    ReconstructionError,
    _FixedForm,
    evaluate_complex,
    reconstruct1d,
)


@dataclass(frozen=True)
class PsiReconstructionSet:
    """Stage-one output: one jump-known row reconstruction per wy.

    rows: dict wy -> Reconstruction1D for rows that reconstructed.
    degraded: dict wy -> reason string; those rows fall back to raw
    truncated series evaluation straight from the grid.
    """

    grid: CoeffGrid2D
    rows: dict = field(compare=False)
    degraded: dict = field(compare=False)

    def row_value(self, wy: int, x, ctx: ArithmeticContext):
        """psi_tilde_wy(x): reconstructed if possible, raw series otherwise."""
        rec = self.rows.get(wy)
        if rec is not None:
            return evaluate_complex(rec, x, ctx)
        with ctx.workprec():
            return _FixedForm(self.grid.row(wy)).value(x)


def reconstruct_psi_set(
    grid: CoeffGrid2D, d_psi: int, ctx: ArithmeticContext
) -> PsiReconstructionSet:
    """Run the jump-known stage on every grid row wy = -N..N.

    Per-row reconstruction failures (``ReconstructionError`` and
    ``RootFindingError``) are recorded as degraded rows, not raised; any
    other exception is a programming error and propagates.
    """
    rows: dict = {}
    degraded: dict = {}
    with ctx.workprec():
        for wy in range(-grid.N, grid.N + 1):
            try:
                rows[wy] = reconstruct1d(
                    grid.row(wy), d_psi, ctx,
                    known_jump=-mp.pi, assume_real=False,
                )
            except (ReconstructionError, RootFindingError) as exc:
                degraded[wy] = f"{type(exc).__name__}: {exc}"
    return PsiReconstructionSet(grid, rows, degraded)


def slice_coeff_vector(
    psi: PsiReconstructionSet, x, ctx: ArithmeticContext
) -> CoeffVector1D:
    """Coefficient vector (in y) of the slice at x from the row stage."""
    vals = [
        psi.row_value(wy, x, ctx) for wy in range(-psi.grid.N, psi.grid.N + 1)
    ]
    return CoeffVector1D(psi.grid.N, tuple(vals))


@dataclass(frozen=True)
class SliceReconstruction:
    """Stage-two output at one x: a full 1D reconstruction in y."""

    recon: Reconstruction1D

    @property
    def xi_tilde(self):
        return self.recon.xi_tilde

    @property
    def magnitudes_tilde(self):
        return self.recon.magnitudes_tilde

    def value(self, y, ctx: ArithmeticContext):
        return evaluate_complex(self.recon, y, ctx).real


def reconstruct_slice(
    psi: PsiReconstructionSet,
    x,
    d: int,
    ctx: ArithmeticContext,
) -> SliceReconstruction:
    """Unknown-jump reconstruction of the slice F(x, .).

    Requires N >= d + 2 so the decimated localization has at least one
    usable step; raises LocalizationError otherwise (no silent order
    reduction).
    """
    vec = slice_coeff_vector(psi, x, ctx)
    rec = reconstruct1d(vec, d, ctx, assume_real=True)
    return SliceReconstruction(rec)


@dataclass(frozen=True)
class FieldReconstruction:
    """Slice reconstructions over a set of x sample points.

    ``slices`` maps float(x) -> SliceReconstruction; ``failures`` maps
    float(x) -> reason for slices that could not be reconstructed.
    """

    psi: PsiReconstructionSet
    slices: dict = field(compare=False)
    failures: dict = field(compare=False)


def reconstruct_field(
    grid: CoeffGrid2D,
    d_psi: int,
    d: int,
    x_points,
    ctx: ArithmeticContext,
    jobs: int = 1,
) -> FieldReconstruction:
    """Full two-stage pipeline over a list of slice positions.

    The pipeline runs in one process; ``jobs`` is kept for existing callers
    and must be 1.

    Emits a warning when N^2 > M (the row stage then limits the overall
    accuracy and the slice-stage rates are not guaranteed).  Slice failures
    (``ReconstructionError`` and ``RootFindingError``) are contained per x;
    any other exception propagates.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}")
    if grid.N ** 2 > grid.M:
        warnings.warn(
            f"grid is under-resolved in x: N^2 = {grid.N ** 2} > M = {grid.M}; "
            "slice-stage accuracy is limited by the row stage",
            stacklevel=2,
        )
    psi = reconstruct_psi_set(grid, d_psi, ctx)
    slices: dict = {}
    failures: dict = {}
    for x in x_points:
        try:
            slices[float(x)] = reconstruct_slice(psi, x, d, ctx)
        except (ReconstructionError, RootFindingError) as exc:
            failures[float(x)] = f"{type(exc).__name__}: {exc}"
    return FieldReconstruction(psi=psi, slices=slices, failures=failures)


def truncated_slice(grid: CoeffGrid2D, x, ctx: ArithmeticContext) -> _FixedForm:
    """Raw partial 2D Fourier sum at x, as a series in y.

    It is the raw series of the slice vector that :func:`slice_coeff_vector`
    builds when no row is reconstructed; ``form.value(y)``, under
    ``ctx.workprec()``, is the complex sum at (x, y).  Raises ValueError,
    naming the entry, on a non-finite grid entry.
    """
    vec = slice_coeff_vector(PsiReconstructionSet(grid, {}, {}), x, ctx)
    with ctx.workprec():
        return _FixedForm(vec)


def truncated_baseline(grid: CoeffGrid2D, x, y, ctx: ArithmeticContext):
    """Raw partial 2D Fourier sum at (x, y), real part."""
    with ctx.workprec():
        return truncated_slice(grid, x, ctx).value(y).real
