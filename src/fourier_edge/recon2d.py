"""Two-stage reconstruction of a 2D piecewise-smooth function from its grid.

Stage one treats each horizontal grid row {Fhat(., wy)} as the coefficient
vector of a 1D function of x whose only possible jump sits at the known
period seam x = -pi, and solves for its seam magnitudes A_l.  The row value
is then psi_wy(x) = C_wy(x) + sum_l A_l v_l(x) - sum_l A_l S_M[v_l](x),
with C_wy the raw row series, v_l the seam kernels and S_M[v_l] their
partial sums, which every row shares; each row is held as the fixed-point
form of :mod:`fourier_edge.recon1d`, which subtracts the partial sums
itself.  Stage two evaluates all rows at a fixed x, obtaining the Fourier
coefficients (in y) of the slice F(x, .), and runs the full unknown-jump 1D
pipeline on them; its record, a :class:`Reconstruction1D`, holds the curve
crossing xi(x), the kernel magnitudes A_l(x), and the slice itself.

The row stage runs whole or not at all: only M and d_psi, which all rows
share, decide if a row reconstructs (d_psi <= 15 and M // (d_psi+1) >= 1),
so one ``ReconstructionError`` degrades every row under its reason.  A
degraded set evaluates nothing, since raw rows would give plausible
numbers, and a field run records that refusal per x, as a failed slice.
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
    _phase,
    reconstruct1d,
    solve_magnitudes_known_jump,
)


@dataclass(frozen=True)
class PsiReconstructionSet:
    """Stage-one output: one seam reconstruction per wy.

    rows: dict wy -> the row's _FixedForm, the raw series C with the seam
    stack sum_l A_l v_l built under the form's precision, its seam
    magnitudes A_0..A_d as ``magnitudes_tilde``; every row, or none.
    degraded: dict wy -> the one reason of a row stage that could not run,
    for every row, or empty; evaluating such a set raises it.
    """

    grid: CoeffGrid2D
    rows: dict = field(compare=False)
    degraded: dict = field(compare=False)

    def _values(self, wys, x) -> list:
        """Row values at x for the rows ``wys``; caller holds the precision.

        The partial sums and the phase e^{ix} are taken once for all rows,
        which share M, the working bits and the d_psi + 1 magnitudes.  A
        row built at another precision builds its form per call at this one,
        from the grid's ints.
        """
        if self.degraded:
            raise ReconstructionError(
                f"row stage: {next(iter(self.degraded.values()))}")
        M, seam = self.grid.M, -mp.pi
        rows = [self.rows[wy] for wy in wys]
        sums = _partial_sums(x, seam, M, len(rows[0].magnitudes_tilde))
        z = _phase(mp.mpf(x)._mpf_, M)
        vals = []
        for wy, form in zip(wys, rows):
            if form.prec != mp.prec:
                form = _FixedForm(self.grid._int_row(wy), seam,
                                  form.magnitudes_tilde)
            vals.append(form.value(x, sums, z))
        return vals

    def row_value(self, wy: int, x, ctx: ArithmeticContext):
        """psi_tilde_wy(x); ``ReconstructionError`` on a degraded set."""
        if abs(wy) > self.grid.N:
            raise ValueError(f"row {wy} outside rows -N..N, N = {self.grid.N}")
        with ctx.workprec():
            return self._values((wy,), x)[0]


def reconstruct_psi_set(
    grid: CoeffGrid2D, d_psi: int, ctx: ArithmeticContext
) -> PsiReconstructionSet:
    """Solve the seam magnitudes of every grid row wy = -N..N.

    Each row's magnitudes come from :func:`solve_magnitudes_known_jump`,
    which solves at the seam -pi and makes an mpc only for the d_psi + 1
    entries it reads.  The row's form, the raw series with the seam stack,
    is built once for evaluation, straight from the grid's ints: each part
    is rounded to nearest at the working precision if it is wider, and no
    mpc is made.  A ``ReconstructionError`` (the
    kernel table, or the decimation) turns on M and d_psi alone, so it
    degrades every row under its reason; any other exception, such as the
    ``ValueError`` of a negative order or a non-finite entry, propagates.
    """
    wys = range(-grid.N, grid.N + 1)
    rows: dict = {}
    with ctx.workprec():
        try:
            _check_order(d_psi)
            for wy in wys:
                row = grid._int_row(wy)  # an mpc only for each entry read
                mags = solve_magnitudes_known_jump(row, d_psi, ctx)
                rows[wy] = _FixedForm(row, -mp.pi, mags)
        except ReconstructionError as exc:
            reason = f"{type(exc).__name__}: {exc}"
            return PsiReconstructionSet(grid, {}, dict.fromkeys(wys, reason))
    return PsiReconstructionSet(grid, rows, {})


def slice_coeff_vector(
    psi: PsiReconstructionSet, x, ctx: ArithmeticContext
) -> CoeffVector1D:
    """Coefficient vector (in y) of the slice at x from the row stage."""
    N = psi.grid.N
    with ctx.workprec():
        vals = psi._values(range(-N, N + 1), x)
    return CoeffVector1D(N, tuple(vals))


def reconstruct_slice(
    psi: PsiReconstructionSet,
    x,
    d: int,
    ctx: ArithmeticContext,
) -> Reconstruction1D:
    """Unknown-jump reconstruction of the slice F(x, .): the 1D record in y
    of :func:`reconstruct1d` on :func:`slice_coeff_vector`.

    Requires N >= d + 2 so the decimated localization has at least one
    usable step; raises LocalizationError otherwise (no silent order
    reduction).
    """
    return reconstruct1d(slice_coeff_vector(psi, x, ctx), d, ctx)


@dataclass(frozen=True)
class FieldReconstruction:
    """Slice reconstructions over a set of x sample points.

    ``slices`` maps float(x) -> the slice's Reconstruction1D; ``failures``
    maps float(x) -> reason for slices that could not be reconstructed.
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
    (``ReconstructionError`` and ``RootFindingError``, which a degraded row
    stage raises at every x) are contained per x; any other propagates.
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

    Each coefficient is a grid row's raw series at x, with no seam
    correction, from one phase e^{ix}, each row's form built straight from
    the grid's ints; ``form.value(y)``, under
    ``ctx.workprec()``, is the complex sum at (x, y), from N folded terms
    per part, and ``form.value(y, part="real")`` its real part alone.
    Raises ValueError, naming the entry, on a non-finite entry.
    """
    with ctx.workprec():
        z = _phase(mp.mpf(x)._mpf_, grid.M)
        vals = [_FixedForm(grid._int_row(wy)).value(x, z=z)
                for wy in range(-grid.N, grid.N + 1)]
        return _FixedForm(CoeffVector1D(grid.N, tuple(vals)))


def truncated_baseline(grid: CoeffGrid2D, x, y, ctx: ArithmeticContext):
    """Raw partial 2D Fourier sum at (x, y), real part, computed alone."""
    with ctx.workprec():
        return truncated_slice(grid, x, ctx).value(y, part="real")
