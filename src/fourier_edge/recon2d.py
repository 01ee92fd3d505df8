"""Two-stage reconstruction of a 2D piecewise-smooth function from its grid.

Stage one treats each horizontal grid row {Fhat(., wy)} as the coefficient
vector of a 1D function of x whose only possible jump sits at the known
period seam x = -pi, and solves for its seam magnitudes A_l.  The row value
is then psi_wy(x) = C_wy(x) + sum_l A_l v_l(x) - sum_l A_l S_M[v_l](x),
with C_wy the raw row series, v_l the seam kernels and S_M[v_l] their
partial sums, which every row shares.  Stage two evaluates all rows at a
fixed x, obtaining the Fourier coefficients (in y) of the slice F(x, .),
and runs the full unknown-jump 1D pipeline on them to recover the curve
crossing xi(x), the kernel magnitudes A_l(x), and the slice itself.

Failures are contained: a row that raises ``ReconstructionError`` (an
order beyond the kernel table, or a band too short for the decimation)
degrades to raw truncated-series evaluation and is flagged, and a failed
slice is recorded, so neither sinks a field run.
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
    _check_order,
    _partial_sums,
    _series_phases,
    evaluate_complex,
    reconstruct1d,
    solve_magnitudes_known_jump,
)


@dataclass(frozen=True)
class SeamRow:
    """One reconstructed grid row: its seam magnitudes A_0..A_d and its
    form, the raw series C with the seam stack sum_l A_l v_l, built under
    the form's precision."""

    magnitudes_tilde: tuple
    form: _FixedForm = field(repr=False, compare=False)

    def value(self, x, sums, phases):
        """C(x) + sum_l A_l (v_l(x) - S_M[v_l](x)), rounded once; ``sums``
        and ``phases`` are those of :func:`_partial_sums` and
        :func:`_series_phases` at x, and the caller holds the form's
        precision."""
        ar = ai = 0
        for (re, im), s in zip(self.form.amps, sums):
            ar -= re * s
            ai -= im * s
        wp = self.form.wp
        return self.form.value(x, (ar >> wp, ai >> wp), phases)


@dataclass(frozen=True)
class PsiReconstructionSet:
    """Stage-one output: one seam reconstruction per wy.

    rows: dict wy -> SeamRow for rows that reconstructed.
    degraded: dict wy -> reason string; those rows fall back to raw
    truncated series evaluation straight from the grid.
    """

    grid: CoeffGrid2D
    rows: dict = field(compare=False)
    degraded: dict = field(compare=False)

    def _values(self, wys, x) -> list:
        """Row values at x for the rows ``wys``; caller holds the precision.

        The partial sums and the series phases are taken once for all rows,
        which share M and the working bits.  A degraded row, and a row
        built at another precision, builds its form per call at this one.
        """
        M = self.grid.M
        seam = -mp.pi
        rows = [self.rows.get(wy) for wy in wys]
        n = max((len(r.magnitudes_tilde) for r in rows if r is not None),
                default=0)
        sums = _partial_sums(x, seam, M, n) if n else ()
        phases = _series_phases(mp.mpf(x)._mpf_, M)
        vals = []
        for wy, row in zip(wys, rows):
            if row is None or row.form.prec != mp.prec:
                mags = () if row is None else row.magnitudes_tilde
                row = SeamRow(mags, _FixedForm(self.grid.row(wy), seam, mags))
            vals.append(row.value(x, sums, phases))
        return vals

    def row_value(self, wy: int, x, ctx: ArithmeticContext):
        """psi_tilde_wy(x): reconstructed if possible, raw series otherwise."""
        with ctx.workprec():
            return self._values((wy,), x)[0]


def reconstruct_psi_set(
    grid: CoeffGrid2D, d_psi: int, ctx: ArithmeticContext
) -> PsiReconstructionSet:
    """Solve the seam magnitudes of every grid row wy = -N..N.

    Each row's magnitudes come from :func:`solve_magnitudes_known_jump` at
    the seam -pi, and its form, the raw series with the seam stack, is
    built once for evaluation.  A ``ReconstructionError`` (an order beyond
    the kernel table, or a band too short for the decimation) is recorded as
    a degraded row, not raised; any other exception, including the
    ``ValueError`` of a negative order or a non-finite entry, is a
    programming or input error and propagates.
    """
    rows: dict = {}
    degraded: dict = {}
    with ctx.workprec():
        seam = -mp.pi
        for wy in range(-grid.N, grid.N + 1):
            row = grid.row(wy)
            try:
                _check_order(d_psi)
                mags, _ = solve_magnitudes_known_jump(row, d_psi, seam, ctx)
            except ReconstructionError as exc:
                degraded[wy] = f"{type(exc).__name__}: {exc}"
                continue
            rows[wy] = SeamRow(mags, _FixedForm(row, seam, mags))
    return PsiReconstructionSet(grid, rows, degraded)


def slice_coeff_vector(
    psi: PsiReconstructionSet, x, ctx: ArithmeticContext
) -> CoeffVector1D:
    """Coefficient vector (in y) of the slice at x from the row stage."""
    N = psi.grid.N
    with ctx.workprec():
        vals = psi._values(range(-N, N + 1), x)
    return CoeffVector1D(N, tuple(vals))


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
    rec = reconstruct1d(vec, d, ctx)
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
