"""2D piecewise-smooth models with a jump curve, and their Fourier grids.

A model is F(x, y) = sum_l A_l(x) K_l(y - xi(x)) + G(x, y): a stack of
periodized Bernoulli kernels of orders 0..d_model attached to a curve
y = xi(x), with x-dependent magnitude profiles and an optional smooth
separable background.  The canonical synthetic instance uses the identity
curve and unit constant profiles.

Grid synthesis is exact (closed form, on fixed-point ints) for the identity
curve; trig-poly curves go through a periodic trapezoid rule in x with a
doubling check.  The mpc closed form ``slice_coeff_exact`` and the slow 2D
quadrature oracle of :mod:`fourier_edge.oracle` provide independent
verification values.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

from mpmath import mp
from mpmath.libmp import from_man_exp, fzero

from .kernels import _I_POW, v_kernel
from .model1d import CoeffVector1D, TrigBackground, _trig_eval
from .numerics import (
    ArithmeticContext,
    _fixed_horner,
    _fixed_shift,
    _fixed_stack,
    _from_fixed,
    _guard_bits,
    _mpc_parts,
    _over_two_pi,
    _raw_mpc,
)

Profile = Union[int, float, str, TrigBackground]

_GRID_FORMAT = 2  # hex mantissas and a sha256 trailer; format 1 was decimal


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

    eq=False keeps identity semantics: grids are large; tests compare entries.
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

    Entry (wx, wy != 0) is sum_l a_l(q) / (2pi (i wy)^(l+1)), q = wx + wy:
    one Horner pass in u = -i/wy on Python-int fixed point, rounded once.
    Each spectrum a_0(q)..a_d(q), 1/2pi folded in, is converted once at its
    own scale, so spectra that decay over many orders of magnitude keep
    their relative precision; guard bits cover the factor wy^-(d+1) by
    which an entry may fall below its largest coefficient.  An entry whose
    q lies outside every profile's band gets the background only.  The
    background adds sum_s p_s(wx) q_s(wy) after the rounding, in the order
    of ``Background2D.coeff2d``, from the term coefficients converted once
    per wx and per wy; products with an exact-zero factor, and a zero sum,
    are skipped.

    Raises
    ------
    ValueError
        If a profile or background coefficient is NaN or infinite, naming it.
    """
    with ctx.workprec():
        orders = range(m.d_model + 1)
        wp = mp.prec + _guard_bits(N) + len(orders) * N.bit_length()
        forms = {}  # q -> (shift, stack), where some a_l(q) is nonzero
        for q in range(-M - N, M + N + 1):
            coeffs = [m.magnitude_coeff(l, q) for l in orders]
            parts = _mpc_parts(coeffs, f"coefficient at q={q} of profile A_", 0)
            if any(re[1] or im[1] for re, im in parts):
                parts = _over_two_pi(parts, wp)
                shift = _fixed_shift(parts, wp)
                forms[q] = shift, _fixed_stack(parts, shift)
        terms = m.background.terms if m.background is not None else ()
        for s, (p, q) in enumerate(terms):
            _mpc_parts(p.coeffs, f"background term {s} coefficient p_", 0)
            _mpc_parts(q.coeffs, f"background term {s} coefficient q_", 0)
        # per term, the coefficients by wx + M and by wy + N
        p_hat = [[p.coeff(wx) for wx in range(-M, M + 1)] for p, _ in terms]
        q_hat = [[q.coeff(wy) for wy in range(-N, N + 1)] for _, q in terms]
        zero = mp.mpc(0)
        cols = []
        for wx in range(-M, M + 1):
            col = []
            for wy in range(-N, N + 1):
                c = zero
                form = forms.get(wx + wy) if wy != 0 else None
                if form is not None:
                    shift, stack = form
                    c = _from_fixed(*_fixed_horner(stack, wy), shift)
                # an exact zero added is exact, so skipping it keeps every bit
                bg = zero
                for ps, qs in zip(p_hat, q_hat):
                    a, b = ps[wx + M], qs[wy + N]
                    if a and b:
                        bg += a * b
                if bg:
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


def _hex_part(part, wx: int, wy: int) -> str:
    """A raw mpf as <sign><hex mantissa>p<binary exponent>."""
    sign, man, exp, _ = part
    if not man and part != fzero:
        raise ValueError(f"grid entry ({wx}, {wy}) is not finite")
    return f"{'-' if sign else ''}{man:x}p{exp}"


def save_grid(grid: CoeffGrid2D, path, precision_digits: int) -> None:
    """Write a grid file, exact at ``precision_digits``.

    Line 1 is a JSON header with "format": 2, "M", "N" and "precision".
    Then one line "omega_x, omega_y, re, im" per entry: each part is rounded
    once to the header precision (round-nearest) and written as mpmath's raw
    value, <sign><hex mantissa>p<binary exponent>.  The last line is
    "sha256 <hex>", the SHA-256 of every line before it.  Raises ValueError
    naming the entry when a part is NaN or infinite.
    """
    digest = hashlib.sha256()
    header = {
        "format": _GRID_FORMAT,
        "M": grid.M,
        "N": grid.N,
        "precision": precision_digits,
    }
    with open(path, "wb") as fh, mp.workdps(precision_digits):

        def put(line: str) -> None:
            data = line.encode("ascii")
            digest.update(data)
            fh.write(data)

        put(json.dumps(header) + "\n")
        prec = mp.prec
        wys = range(-grid.N, grid.N + 1)
        for wx, col in zip(range(-grid.M, grid.M + 1), grid.values):
            lines = []
            for wy, v in zip(wys, col):
                # only an entry finer than the header precision is rounded
                re, im = _raw_mpc(v, prec)
                lines.append(f"{wx}, {wy}, {_hex_part(re, wx, wy)}, "
                             f"{_hex_part(im, wx, wy)}\n")
            put("".join(lines))
        fh.write(f"sha256 {digest.hexdigest()}\n".encode("ascii"))


def _raw_part(text: bytes):
    """The raw mpf of a part written by :func:`_hex_part`, without rounding.
    An odd mantissa, as :func:`save_grid` writes, is normalised as it stands;
    mpmath arithmetic needs an even or zero one normalised by from_man_exp."""
    man, _, exp = text.partition(b"p")
    man, exp = int(man, 16), int(exp)
    if man & 1:
        return (int(man < 0), abs(man), exp, abs(man).bit_length())
    return from_man_exp(man, exp)


def load_grid(path) -> CoeffGrid2D:
    """Read a grid file written by :func:`save_grid`, bit for bit.

    Raises ValueError naming the file unless line 1 is a JSON object with
    integer "M", "N" and "precision", when the header is not format 2 (a
    decimal format-1 file must be written again by ``generate``), when the
    sha256 trailer is missing or does not match the lines before it, and,
    with counts, unless every (omega_x, omega_y) of the header's ranges
    appears exactly once.
    """
    digest = hashlib.sha256()
    trailer = None
    with open(path, "rb") as fh:
        first = fh.readline()
        digest.update(first)
        try:
            header = json.loads(first)
            M, N, prec = (header.get(k) for k in ("M", "N", "precision"))
        except (ValueError, AttributeError):  # not JSON, or not an object
            M = N = prec = None
        if not all(type(v) is int for v in (M, N, prec)):
            raise ValueError(f"{path}: line 1 is not a JSON header with "
                             "integer M, N and precision")
        fmt = header.get("format", 1)
        if fmt != _GRID_FORMAT:
            raise ValueError(
                f"{path}: grid file format {fmt} is not readable, only format "
                f"{_GRID_FORMAT}; re-run generate to write the grid again"
            )
        vals = [[None] * (2 * N + 1) for _ in range(2 * M + 1)]
        duplicate = outside = 0
        for lineno, line in enumerate(fh, start=2):
            if line.startswith(b"sha256 "):
                trailer = line
                break
            digest.update(line)
            try:
                swx, swy, sre, sim = line.split(b",")
                wx, wy = int(swx), int(swy)
                value = mp.make_mpc((_raw_part(sre), _raw_part(sim)))
            except ValueError as exc:
                raise ValueError(
                    f"{path}: line {lineno} is not 'omega_x, omega_y, re, im'"
                ) from exc
            if abs(wx) > M or abs(wy) > N:
                outside += 1
            elif vals[wx + M][wy + N] is not None:
                duplicate += 1
            else:
                vals[wx + M][wy + N] = value
        if trailer is None or fh.read(1):
            raise ValueError(f"{path}: the last line is not a sha256 trailer")
    if trailer != f"sha256 {digest.hexdigest()}\n".encode("ascii"):
        raise ValueError(f"{path}: sha256 checksum does not match the file")
    missing = sum(v is None for col in vals for v in col)
    if missing or duplicate or outside:
        raise ValueError(
            f"{path}: grid M={M}, N={N} has {missing} missing, "
            f"{duplicate} duplicate and {outside} out-of-range entries"
        )
    return CoeffGrid2D(M, N, tuple(tuple(col) for col in vals),
                       {"precision": prec})
