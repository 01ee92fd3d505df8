"""2D piecewise-smooth models with a jump curve, and their Fourier grids.

A model is F(x, y) = sum_l A_l(x) K_l(y - xi(x)) + G(x, y): a stack of
periodized Bernoulli kernels of orders 0..d_model attached to a curve
y = xi(x), with x-dependent magnitude profiles and an optional smooth
separable background.  The canonical synthetic instance uses the identity
curve and unit constant profiles.

Grid synthesis is exact (closed form) for the identity curve; trig-poly
curves go through a periodic trapezoid rule in x with a doubling check.
A slow 2D quadrature oracle provides independent verification values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

from mpmath import mp

from .kernels import _I_POW, v_kernel
from .model1d import CoeffVector1D, TrigBackground, _trig_eval
from .numerics import ArithmeticContext

__all__ = [
    "Background2D",
    "CoeffGrid2D",
    "Curve",
    "Model2D",
    "coeff_grid",
    "eval2d",
    "load_grid",
    "save_grid",
    "slice_coeff_exact",
]

Profile = Union[int, float, str, TrigBackground]


@dataclass(frozen=True)
class Curve:
    """Jump curve y = xi(x): the identity map or a real trig polynomial.

    For kind "trig", ``coeffs[k]`` holds b_k for k = 0..K with conjugate
    symmetry implied (b_0 real), matching TrigBackground storage.
    """

    kind: str
    coeffs: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "trig"):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.kind == "identity" and self.coeffs:
            raise ValueError("identity curve takes no coefficients")
        if self.kind == "trig" and not self.coeffs:
            raise ValueError("trig curve needs coefficients (b_0 at least)")

    def xi(self, x, ctx: ArithmeticContext):
        """Curve value at x (not wrapped)."""
        with ctx.workprec():
            if self.kind == "identity":
                return mp.mpf(x)
            return _trig_eval(self.coeffs, x)

    def slope_bound(self) -> float:
        """Cheap upper bound on sup |xi'|."""
        if self.kind == "identity":
            return 1.0
        return sum(
            2 * k * abs(complex(c)) for k, c in enumerate(self.coeffs)
        )


@dataclass(frozen=True)
class Background2D:
    """Separable-sum real trig polynomial G(x, y) = sum_s P_s(x) Q_s(y)."""

    terms: tuple  # tuple of (TrigBackground, TrigBackground)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        for p, q in self.terms:
            if not isinstance(p, TrigBackground) or not isinstance(
                q, TrigBackground
            ):
                raise TypeError("Background2D terms must be TrigBackground pairs")

    def eval(self, x, y, ctx: ArithmeticContext):
        with ctx.workprec():
            acc = mp.mpf(0)
            for p, q in self.terms:
                acc += p.eval(x, ctx) * q.eval(y, ctx)
            return acc

    def coeff2d(self, wx: int, wy: int):
        """Exact 2D Fourier coefficient (caller holds precision)."""
        acc = mp.mpc(0)
        for p, q in self.terms:
            acc += p.coeff(wx) * q.coeff(wy)
        return acc

    def slice_row(self, x, wy: int, ctx: ArithmeticContext):
        """wy-th Fourier coefficient in y of the slice G(x, .)."""
        acc = mp.mpc(0)
        for p, q in self.terms:
            acc += p.eval(x, ctx) * q.coeff(wy)
        return acc


@dataclass(frozen=True)
class Model2D:
    """Kernel stack on a curve plus optional separable background.

    ``magnitudes[l]`` is the profile A_l(x): a real constant or a
    TrigBackground used as a real trig polynomial of x.
    """

    d_model: int
    magnitudes: tuple
    curve: Curve
    background: Optional[Background2D] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "magnitudes", tuple(self.magnitudes))
        if len(self.magnitudes) != self.d_model + 1:
            raise ValueError(
                f"need {self.d_model + 1} profiles for d_model={self.d_model}, "
                f"got {len(self.magnitudes)}"
            )

    @classmethod
    def canonical(cls, d_model: int = 11) -> "Model2D":
        """Canonical synthetic instance: identity curve, all-ones profiles."""
        return cls(
            d_model=d_model,
            magnitudes=(1,) * (d_model + 1),
            curve=Curve("identity"),
            background=None,
        )

    def magnitude_value(self, l: int, x, ctx: ArithmeticContext):
        prof = self.magnitudes[l]
        if isinstance(prof, TrigBackground):
            return prof.eval(x, ctx)
        with ctx.workprec():
            return mp.mpf(prof)

    def magnitude_coeff(self, l: int, q: int):
        """Fourier coefficient of profile A_l at frequency q (caller prec)."""
        prof = self.magnitudes[l]
        if isinstance(prof, TrigBackground):
            return prof.coeff(q)
        return mp.mpc(prof) if q == 0 else mp.mpc(0)


@dataclass(frozen=True, eq=False)
class CoeffGrid2D:
    """Fourier grid Fhat(wx, wy) for |wx| <= M, |wy| <= N.

    ``values[wx + M][wy + N]`` stores the coefficient; ``row(wy)`` exposes
    one horizontal row as a CoeffVector1D over wx, which is exactly the
    input the slice-row reconstruction stage consumes.

    eq=False keeps identity semantics: grids are large and are compared
    entry-wise in tests, while identity hashing lets evaluation caches key
    off the object cheaply.
    """

    M: int
    N: int
    values: tuple
    diagnostics: dict = field(compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.M < 0 or self.N < 0:
            raise ValueError("M and N must be >= 0")
        object.__setattr__(
            self, "values", tuple(tuple(col) for col in self.values)
        )
        if len(self.values) != 2 * self.M + 1 or any(
            len(col) != 2 * self.N + 1 for col in self.values
        ):
            raise ValueError("grid shape does not match M, N")

    def c(self, wx: int, wy: int):
        if abs(wx) > self.M or abs(wy) > self.N:
            raise ValueError(f"({wx}, {wy}) outside grid ({self.M}, {self.N})")
        return self.values[wx + self.M][wy + self.N]

    def row(self, wy: int) -> CoeffVector1D:
        vals = tuple(self.values[i][wy + self.N] for i in range(2 * self.M + 1))
        return CoeffVector1D(self.M, vals)


def eval2d(m: Model2D, x, y, ctx: ArithmeticContext):
    """Pointwise model value (right-continuous across the curve in y)."""
    with ctx.workprec():
        xm = mp.mpf(x)
        xi = m.curve.xi(xm, ctx)
        acc = mp.mpf(0)
        for l in range(m.d_model + 1):
            a = m.magnitude_value(l, xm, ctx)
            if a != 0:
                acc += a * v_kernel(l, xi, y, ctx)
        if m.background is not None:
            acc += m.background.eval(xm, mp.mpf(y), ctx)
        return acc


def slice_coeff_exact(m: Model2D, x, wy: int, ctx: ArithmeticContext):
    """wy-th Fourier coefficient (in y) of the slice F(x, .), closed form.

    For wy != 0 the kernel stack contributes
    exp(-i wy xi(x)) / 2pi * sum_l A_l(x) / (i wy)^(l+1); the zero mode
    carries only the background (the kernels are zero-mean in y).
    """
    with ctx.workprec():
        xm = mp.mpf(x)
        acc = mp.mpc(0)
        if wy != 0:
            s = mp.mpc(0)
            for l in range(m.d_model + 1):
                a = m.magnitude_value(l, xm, ctx)
                if a != 0:
                    denom = mp.mpc(_I_POW[(l + 1) % 4]) * mp.mpf(wy) ** (l + 1)
                    s += a / denom
            acc += mp.expj(-wy * m.curve.xi(xm, ctx)) * s / (2 * mp.pi)
        if m.background is not None:
            acc += m.background.slice_row(xm, wy, ctx)
        return acc


def _closed_form_grid(m: Model2D, M: int, N: int, ctx: ArithmeticContext):
    """Exact grid for the identity curve: profile spectra shifted to the
    anti-diagonal band.

    Entry (wx, wy != 0) is sum_l a_l(wx + wy) / (2pi (i wy)^(l+1)); the
    factors are computed once per (wy, l) and the nonzero profile
    coefficients once per q = wx + wy, so an entry whose q lies outside
    every profile's band gets the background only.  The background adds
    sum_s p_s(wx) q_s(wy) in the order of ``Background2D.coeff2d``, from the
    term coefficients converted once per wx and per wy.
    """
    with ctx.workprec():
        two_pi = 2 * mp.pi
        orders = range(m.d_model + 1)
        scale = {
            wy: [
                1 / (two_pi * mp.mpc(_I_POW[(l + 1) % 4]) * mp.mpf(wy) ** (l + 1))
                for l in orders
            ]
            for wy in range(-N, N + 1)
            if wy != 0
        }
        spectra = {}
        for q in range(-M - N, M + N + 1):
            coeffs = [(l, m.magnitude_coeff(l, q)) for l in orders]
            spectra[q] = [(l, a) for l, a in coeffs if a != 0]
        terms = m.background.terms if m.background is not None else ()
        # per term, the coefficients by wx + M and by wy + N
        p_hat = [[p.coeff(wx) for wx in range(-M, M + 1)] for p, _ in terms]
        q_hat = [[q.coeff(wy) for wy in range(-N, N + 1)] for _, q in terms]
        cols = []
        for wx in range(-M, M + 1):
            col = []
            for wy in range(-N, N + 1):
                c = mp.mpc(0)
                if wy != 0:
                    s = scale[wy]
                    for l, a_hat in spectra[wx + wy]:
                        c += a_hat * s[l]
                if m.background is not None:
                    bg = mp.mpc(0)
                    for ps, qs in zip(p_hat, q_hat):
                        bg += ps[wx + M] * qs[wy + N]
                    c += bg
                col.append(c)
            cols.append(tuple(col))
        return cols


def _trapezoid_grid(m: Model2D, wxs, wys, ctx: ArithmeticContext, T: int):
    """Periodic trapezoid on T nodes in x of the exact slice coefficients.

    Returns one column per wx in ``wxs``, holding the entries (wx, wy) for
    wy in ``wys``.  Each entry's arithmetic does not depend on the others, so
    a sub-grid equals the same entries of a larger grid bit for bit.  The
    integrand is a trig polynomial in y already; in x it is analytic and
    periodic, so the trapezoid rule converges geometrically.
    """
    with ctx.workprec():
        two_pi = 2 * mp.pi
        xs = [-mp.pi + two_pi * t / T for t in range(T)]
        # slice values v[t][iy], then an explicit DFT over x
        v = [[slice_coeff_exact(m, x, wy, ctx) for wy in wys] for x in xs]
        cols = []
        for wx in wxs:
            col = [mp.mpc(0)] * len(wys)
            for t, x in enumerate(xs):
                ph = mp.expj(-wx * x)
                row = v[t]
                for iy in range(len(wys)):
                    col[iy] += row[iy] * ph
            cols.append(tuple(c / T for c in col))
        return cols


def coeff_grid(
    m: Model2D,
    M: int,
    N: int,
    ctx: ArithmeticContext,
) -> CoeffGrid2D:
    """Fourier grid of the model, |wx| <= M, |wy| <= N.

    Identity-curve models synthesize in closed form.  Trig-curve models use
    the periodic trapezoid rule on 8 * max(M, ceil(N * max(1, sup|xi'|)))
    nodes; four probe entries are recomputed at doubled node count and the
    worst deviation is recorded under diagnostics["doubling_error"].
    """
    if M < 0 or N < 0:
        raise ValueError("M and N must be >= 0")
    if m.curve.kind == "identity":
        values = _closed_form_grid(m, M, N, ctx)
        return CoeffGrid2D(M, N, tuple(values), {"method": "closed-form"})
    slope = max(1.0, m.curve.slope_bound())
    T = 8 * max(M, math.ceil(N * slope), 1)
    values = _trapezoid_grid(m, range(-M, M + 1), range(-N, N + 1), ctx, T)
    probes = [
        (M, N),
        (max(-M, -3), max(-N, -1)),
        (min(M, 1), min(N, 1)),
        (0, min(N, 2)),
    ]
    # at 2T nodes only the probes' columns and rows are computed
    wxs = sorted({wx for wx, _ in probes})
    wys = sorted({wy for _, wy in probes})
    dense = _trapezoid_grid(m, wxs, wys, ctx, 2 * T)
    with ctx.workprec():
        worst = mp.mpf(0)
        for wx, wy in probes:
            a = values[wx + M][wy + N]
            b = dense[wxs.index(wx)][wys.index(wy)]
            worst = max(worst, abs(a - b))
    diag = {"method": "trapezoid", "doubling_error": float(worst)}
    return CoeffGrid2D(M, N, tuple(values), diag)


def save_grid(grid: CoeffGrid2D, path, precision_digits: int) -> None:
    """Write a grid file: one JSON header line, then CSV rows
    "omega_x, omega_y, re, im" with full-precision decimal strings."""
    with mp.workdps(precision_digits):
        with open(path, "w") as fh:
            header = {
                "M": grid.M,
                "N": grid.N,
                "precision": precision_digits,
            }
            fh.write(json.dumps(header) + "\n")
            for wx in range(-grid.M, grid.M + 1):
                for wy in range(-grid.N, grid.N + 1):
                    v = grid.c(wx, wy)
                    re = mp.nstr(mp.mpf(v.real), precision_digits, strip_zeros=False)
                    im = mp.nstr(mp.mpf(v.imag), precision_digits, strip_zeros=False)
                    fh.write(f"{wx}, {wy}, {re}, {im}\n")


def load_grid(path) -> CoeffGrid2D:
    """Read a grid file written by :func:`save_grid`.

    Raises ValueError, with counts, unless every (omega_x, omega_y) of the
    header's ranges appears exactly once.
    """
    with open(path) as fh:
        header = json.loads(fh.readline())
        M, N, prec = header["M"], header["N"], header["precision"]
        with mp.workdps(prec):
            vals = [[None] * (2 * N + 1) for _ in range(2 * M + 1)]
            duplicate = outside = 0
            for line in fh:
                if not line.strip():
                    continue
                swx, swy, sre, sim = (s.strip() for s in line.split(","))
                wx, wy = int(swx), int(swy)
                if abs(wx) > M or abs(wy) > N:
                    outside += 1
                elif vals[wx + M][wy + N] is not None:
                    duplicate += 1
                else:
                    vals[wx + M][wy + N] = mp.mpc(mp.mpf(sre), mp.mpf(sim))
        missing = sum(v is None for col in vals for v in col)
        if missing or duplicate or outside:
            raise ValueError(
                f"{path}: grid M={M}, N={N} has {missing} missing, "
                f"{duplicate} duplicate and {outside} out-of-range entries"
            )
        return CoeffGrid2D(M, N, tuple(tuple(col) for col in vals),
                           {"precision": prec})
