"""Two-stage reconstruction of a 2D piecewise-smooth function from its grid.

Stage one treats each horizontal grid row {Fhat(., wy)} as the coefficient
vector of a 1D function of x whose only possible jump sits at the known
period seam x = -pi, and solves for its seam magnitudes A_l.  The row value
is then psi_wy(x) = C_wy(x) + sum_l A_l tau_l(x), with C_wy the raw row
series and tau_l = v_l - S_M[v_l] the truncation tail of the seam kernel,
which every row shares.  Stage two evaluates all rows at a fixed x,
obtaining the Fourier coefficients (in y) of the slice F(x, .), and runs
the full unknown-jump 1D pipeline on them to recover the curve crossing
xi(x), the kernel magnitudes A_l(x), and the slice itself.

Row failures are contained: a failed row degrades to raw truncated-series
evaluation and is flagged, so one bad row cannot sink a whole field run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import warnings

from mpmath import mp
from mpmath.libmp import to_fixed

from .model1d import CoeffVector1D
from .model2d import CoeffGrid2D
from .numerics import ArithmeticContext, RootFindingError, _mpc_parts
from .recon1d import (
    Reconstruction1D,
    ReconstructionError,
    _FixedForm,
    _check_order,
    _kernel_tails,
    evaluate_complex,
    reconstruct1d,
    solve_magnitudes_known_jump,
)


@dataclass(frozen=True)
class SeamRow:
    """One reconstructed grid row: its seam magnitudes A_0..A_d and its raw
    series C, a fixed-point form; built under the form's precision.

    ``amps`` holds the magnitudes as fixed-point pairs at the form's scale.

    Raises
    ------
    ValueError
        If a magnitude is NaN or infinite.
    """

    magnitudes_tilde: tuple
    form: _FixedForm = field(repr=False, compare=False)
    amps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shift = self.form.shift
        parts = _mpc_parts(self.magnitudes_tilde, "magnitude A_", 0)
        object.__setattr__(self, "amps", tuple(
            (to_fixed(re, shift), to_fixed(im, shift)) for re, im in parts
        ))

    def value(self, x, tails):
        """C(x) + sum_l A_l tau_l(x), rounded once; ``tails`` are those of
        :func:`_kernel_tails` at x, and the caller holds the form's
        precision."""
        ar = ai = 0
        for (re, im), t in zip(self.amps, tails):
            ar += re * t
            ai += im * t
        wp = self.form.wp
        return self.form.value(x, (ar >> wp, ai >> wp))


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

        The kernel tails are taken once for all rows.  A degraded row
        builds its raw form per call; a row built at another precision is
        rebuilt at this one.
        """
        rows = [self.rows.get(wy) for wy in wys]
        n = max((len(r.amps) for r in rows if r is not None), default=0)
        tails = _kernel_tails(x, -mp.pi, self.grid.M, n) if n else ()
        vals = []
        for wy, row in zip(wys, rows):
            if row is None:
                vals.append(_FixedForm(self.grid.row(wy)).value(x))
                continue
            if row.form.prec != mp.prec:
                row = SeamRow(row.magnitudes_tilde, _FixedForm(self.grid.row(wy)))
            vals.append(row.value(x, tails))
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
    the seam -pi, and its raw series is prepared once for evaluation.
    Per-row failures (``ReconstructionError``, including an order beyond
    the kernel table, and ``RootFindingError``) are recorded as degraded
    rows, not raised; any other exception, including the ``ValueError`` of
    a negative order or a non-finite entry, is a programming or input error
    and propagates.
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
            except (ReconstructionError, RootFindingError) as exc:
                degraded[wy] = f"{type(exc).__name__}: {exc}"
                continue
            rows[wy] = SeamRow(mags, _FixedForm(row))
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
