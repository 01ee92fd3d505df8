"""2D piecewise-smooth models with a jump curve, and their Fourier grids.

A model is F(x, y) = sum_l A_l(x) K_l(y - xi(x)) + G(x, y): a stack of
periodized Bernoulli kernels of orders 0..d_model attached to a curve
y = xi(x), with x-dependent magnitude profiles and a smooth separable
background.  Every part is a trig polynomial from construction on: each
profile a ``TrigBackground`` (a constant one of degree 0) and the
background a ``Background2D`` (the empty sum when there is none).  The
canonical synthetic instance uses the identity curve and unit constant
profiles.

The truth of a slice F(x, .) is the 1D truth of ``Model2D.slice(x)``.

Grid synthesis is exact (closed form, on fixed-point ints) for the identity
curve; trig-poly curves run a periodic trapezoid rule in x, with a doubling
check, over the ``synth_coeffs`` vector of each node's slice.  A grid holds
each part of its entries as two ints, mantissa and exponent, as a grid file
writes it, and makes an mpc only when an entry is read.  Beyond
``Model2D.slice``, ``slice_coeff_exact`` (on ``v_fourier_coeff``) and the
quadrature oracles share no code with synthesis: independent verification.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add

from mpmath import mp
from mpmath.libmp import (dps_to_prec, finf, fnan, fninf, from_float, from_int,
                          from_man_exp, fzero)

from .kernels import v_fourier_coeff
from .model1d import (CoeffVector1D, JumpModel1D, TrigBackground,
                      _outside_period, _trig_eval, eval_model, synth_coeffs)
from .numerics import (
    _MIN_DIGITS,
    ArithmeticContext,
    _fixed_horner_pair,
    _guard_bits,
    _mpc_parts,
    _over_two_pi_ints,
    _round_int,
)

_GRID_FORMAT = 2  # hex mantissas and a sha256 trailer; format 1 was decimal


@dataclass(frozen=True)
class Curve:
    """Jump curve y = xi(x): the identity map or a real trig polynomial.

    For kind "trig", ``coeffs[k]`` holds b_k for k = 0..K with conjugate
    symmetry implied (b_0 real), matching TrigBackground storage.  A NaN or
    infinite b_k is refused with a ValueError naming it.
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
        _mpc_parts(self.coeffs, "curve coefficient b_", 0)
        if self.kind == "trig" and complex(mp.mpc(self.coeffs[0])).imag != 0:
            raise ValueError(f"b_0 must be real, got {self.coeffs[0]}")

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
            if not all(isinstance(t, TrigBackground) for t in (p, q)):
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


@dataclass(frozen=True)
class Model2D:
    """Kernel stack on a curve plus a separable background.

    ``magnitudes[l]`` is the profile A_l(x), a TrigBackground in x: a number
    or decimal string p is stored as ``TrigBackground((p,))``, so a complex
    one raises ValueError.  ``background`` is a Background2D, ``None`` is
    stored as the empty sum, and any other value raises TypeError.
    """

    d_model: int
    magnitudes: tuple
    curve: Curve
    background: Background2D = Background2D(())

    def __post_init__(self) -> None:
        object.__setattr__(self, "magnitudes", tuple(
            p if isinstance(p, TrigBackground) else TrigBackground((p,))
            for p in self.magnitudes))
        if len(self.magnitudes) != self.d_model + 1:
            raise ValueError(
                f"need {self.d_model + 1} profiles for d_model={self.d_model}, "
                f"got {len(self.magnitudes)}"
            )
        if self.background is None:
            object.__setattr__(self, "background", Background2D(()))
        if not isinstance(self.background, Background2D):
            raise TypeError("Model2D background must be a Background2D")

    @classmethod
    def canonical(cls, d_model: int = 11) -> "Model2D":
        """Canonical synthetic instance: identity curve, all-ones profiles."""
        return cls(d_model, (1,) * (d_model + 1), Curve("identity"))

    def magnitude_value(self, l: int, x, ctx: ArithmeticContext):
        return self.magnitudes[l].eval(x, ctx)

    def slice(self, x, ctx: ArithmeticContext) -> JumpModel1D:
        """The slice F(x, .) as a 1D model: the jump xi(x) wrapped into
        [-pi, pi) (a wrap that rounds onto an edge is stored as -pi), the
        magnitudes A_l(x), and the smooth part with g_k = sum_s P_s(x) q_s,k.
        """
        with ctx.workprec():
            xm = mp.mpf(x)
            xi = self.curve.xi(xm, ctx)
            if _outside_period(xi):  # a wrap rounded onto an edge gives -pi
                xi -= 2 * mp.pi * mp.floor((xi + mp.pi) / (2 * mp.pi))
                xi = -mp.pi if _outside_period(xi) else xi
            mags = tuple(_trig_eval(p.coeffs, xm) for p in self.magnitudes)
            terms = [(_trig_eval(p.coeffs, xm), q) for p, q in self.background.terms]
            g = [sum((pv * q.coeff(k) for pv, q in terms), mp.mpc(0))
                 for k in range(1 + max((q.bandwidth for _, q in terms), default=0))]
            return JumpModel1D(xi, mags, TrigBackground(g))


# the raw mpf of NaN and the infinities by exponent: a part m 2^e with m = 0
# is one of these for e != 0, and zero for e = 0
_NON_FINITE = {f[2]: f for f in (fnan, finf, fninf)}


def _int_part(raw) -> tuple:
    """(m, e) of a raw mpf: signed mantissa and exponent, (0, 0) for zero."""
    sign, man, exp, _ = raw
    return -man if sign else man, exp


def _mpf_of(m: int, e: int):
    """The raw mpf of the part m 2^e, normalised, not rounded."""
    return from_man_exp(m, e) if m or not e else _NON_FINITE[e]


def _entry(parts, i: int):
    """The mpc of entry i of the part lists (re m, re e, im m, im e)."""
    mr, er, mi, ei = parts
    return mp.make_mpc((_mpf_of(mr[i], er[i]), _mpf_of(mi[i], ei[i])))


def _exact_raw(v) -> tuple:
    """Raw (re, im) mpf pair of the value of ``v``, exact at any precision.

    Raises TypeError for anything but an int, a float, a complex, an mpf or
    an mpc: a decimal string, say, has no value until a precision reads it.
    """
    p = getattr(v, "_mpc_", None) or getattr(v, "_mpf_", None)
    if p is not None:
        return p if len(p) == 2 else (p, fzero)
    if isinstance(v, numbers.Integral):
        return from_int(int(v)), fzero
    if isinstance(v, (float, complex)):
        return from_float(v.real), from_float(v.imag)
    raise TypeError(f"grid entry {v!r} is not an int, float, complex, mpf or "
                    "mpc, whose value does not depend on the precision")


def _rounded(ms: list, es: list, prec: int):
    """(ms, es) with each part m 2^e wider than ``prec`` bits rounded to
    nearest at ``prec`` bits by :func:`_round_int`, as mpmath rounds it; the
    lists as given when none is that wide, else two tuples."""
    if max(map(int.bit_length, ms)) <= prec:
        return ms, es
    return tuple(zip(*(_round_int(m, e, prec) if m.bit_length() > prec
                       else (m, e) for m, e in zip(ms, es))))


class _IntRow:
    """Row wy of a grid, wx = -M..M, as its entries' ints ``parts``.

    It reads like a CoeffVector1D: ``c(k)`` makes the mpc of one entry and
    ``values`` those of all.  :meth:`fixed` gives a ``_FixedForm`` its
    fixed-point pairs straight from the ints, making none.
    """

    __slots__ = ("M", "parts")

    def __init__(self, M: int, parts: tuple) -> None:
        self.M, self.parts = M, parts

    def c(self, k: int):
        if abs(k) > self.M:
            raise ValueError(f"|k|={abs(k)} exceeds M={self.M}")
        return _entry(self.parts, k + self.M)

    @property
    def values(self) -> tuple:
        return tuple(_entry(self.parts, i) for i in range(2 * self.M + 1))

    def fixed(self, others, wp: int):
        """(shift, pairs): the entries c_-M..c_M as fixed-point pairs at
        2^shift, the shift ``_fixed_shift(parts + others, wp)`` picks for the
        raw pairs ``parts`` that ``_mpc_parts`` reads from ``values`` under
        the working precision: a part wider than it rounded to nearest, so
        every pair has the same bits.  ``others`` are raw (re, im) pairs, such
        as a form's magnitudes.  None if a part is NaN or infinite, which
        ``_mpc_parts`` then refuses by name.
        """
        cols, tops = [], [p[2] + p[3] for pair in others for p in pair if p[1]]
        for ms, es in zip(self.parts[::2], self.parts[1::2]):
            bits = list(map(int.bit_length, ms))
            if max(bits) > mp.prec:
                ms, es = _rounded(ms, es, mp.prec)
                bits = list(map(int.bit_length, ms))
            if 0 not in ms:
                tops.append(max(map(add, es, bits)))
            elif any(e for m, e in zip(ms, es) if not m):
                return None
            else:  # a zero part has no scale
                tops.extend(e + b for e, b in zip(es, bits) if b)
            cols.append((ms, es))
        shift = wp - max(tops, default=0)
        return shift, list(zip(*(
            [m << s if (s := e + shift) >= 0 else m >> -s for m, e in zip(ms, es)]
            for ms, es in cols)))


@dataclass(frozen=True, eq=False, init=False, repr=False)
class CoeffGrid2D:
    """Fourier grid Fhat(wx, wy) for |wx| <= M, |wy| <= N.

    Each part of an entry is held as two Python ints, the part m 2^e, as a
    format-2 grid line writes it: ``parts`` is four flat lists, the re
    mantissas, re exponents, im mantissas and im exponents, entry (wx, wy)
    at (wx + M)(2N + 1) + wy + N, the order of a grid file.  A mantissa is
    odd, or 0 for a zero part (exponent 0) or a NaN or infinite one (the
    exponent of mpmath's raw value); closed-form synthesis writes each one
    rounded once (``_round_int``).  mpc objects are made only when read, each part
    exactly, never rounded: ``c(wx, wy)``; ``row(wy)``, one horizontal row
    as a CoeffVector1D over wx, which is exactly the input the slice-row
    reconstruction stage consumes; and ``values``, the columns,
    ``values[wx + M][wy + N]``.

    The constructor takes such columns of ints, floats, complex numbers, mpf
    or mpc values, NaN and infinite parts included, each kept exactly; a
    decimal string, whose value depends on the precision that reads it,
    raises TypeError.

    eq=False keeps identity semantics: grids are large; tests compare entries.
    """

    M: int
    N: int
    parts: tuple
    diagnostics: dict

    def __init__(self, M: int, N: int, values, diagnostics=None) -> None:
        if M < 0 or N < 0:
            raise ValueError("M and N must be >= 0")
        cols = [tuple(col) for col in values]
        if len(cols) != 2 * M + 1 or any(len(col) != 2 * N + 1 for col in cols):
            raise ValueError("grid shape does not match M, N")
        entries = (_exact_raw(v) for col in cols for v in col)
        parts = zip(*((*_int_part(re), *_int_part(im)) for re, im in entries))
        self._set(M, N, map(list, parts), diagnostics)

    def _set(self, M, N, parts, diagnostics) -> None:
        for name, value in (("M", M), ("N", N), ("parts", tuple(parts)),
                            ("diagnostics", {} if diagnostics is None
                             else diagnostics)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of_parts(cls, M: int, N: int, parts, diagnostics=None):
        """A grid of the four part lists, taken as they are."""
        grid = object.__new__(cls)
        grid._set(M, N, parts, diagnostics)
        return grid

    def c(self, wx: int, wy: int):
        if abs(wx) > self.M or abs(wy) > self.N:
            raise ValueError(f"({wx}, {wy}) outside grid ({self.M}, {self.N})")
        return _entry(self.parts, (wx + self.M) * (2 * self.N + 1) + wy + self.N)

    def _int_row(self, wy: int) -> _IntRow:
        """Row wy as its entries' ints, which the row stage reads."""
        if abs(wy) > self.N:
            raise ValueError(f"row {wy} outside grid ({self.M}, {self.N})")
        at = slice(wy + self.N, None, 2 * self.N + 1)
        return _IntRow(self.M, tuple(p[at] for p in self.parts))

    def row(self, wy: int) -> CoeffVector1D:
        return CoeffVector1D(self.M, self._int_row(wy).values)

    @property
    def values(self) -> tuple:
        n = 2 * self.N + 1
        return tuple(tuple(_entry(self.parts, i) for i in range(j, j + n))
                     for j in range(0, len(self.parts[0]), n))


def eval2d(m: Model2D, x, y, ctx: ArithmeticContext):
    """Pointwise model value (right-continuous across the curve in y): the
    1D model value of the slice at x."""
    return eval_model(m.slice(x, ctx), y, ctx)


def slice_coeff_exact(m: Model2D, x, wy: int, ctx: ArithmeticContext):
    """wy-th Fourier coefficient (in y) of the slice F(x, .): g_wy plus
    sum_l A_l v_fourier_coeff(l, xi, wy), closed forms synthesis never reads."""
    with ctx.workprec():
        s = m.slice(x, ctx)
        return s.smooth.coeff(wy) + sum(a * v_fourier_coeff(l, s.xi, wy, ctx)
                                        for l, a in enumerate(s.magnitudes))


def _round_sum(m: int, e: int, n: int, f: int, prec: int) -> tuple:
    """(m', e'): m 2^e + n 2^f rounded at ``prec`` bits as ``mpf_add`` does.
    A part over prec + 4 bits below the other, its lowest bit over 100 below,
    counts as one unit below them, which can round mpc_mul off the exact sum."""
    if not (m and n):
        return _round_int(m or n, e if m else f, prec)
    if e < f:
        m, e, n, f = n, f, m, e
    if e - f > 100 and e - f + m.bit_length() - n.bit_length() > prec + 4:
        n, f = (1 if n > 0 else -1), e - prec - 4
    return _round_int((m << e - f) + n, f, prec)


def _closed_form_grid(m: Model2D, M: int, N: int, ctx: ArithmeticContext):
    """Exact grid for the identity curve, on ints from coefficients to parts.

    Entry (wx, wy != 0) is sum_l a_l(q) / (2pi (i wy)^(l+1)), q = wx + wy,
    on fixed point, rounded once.  Each a_l(k), k = 0..M+N, is read once and
    scaled by 1/2pi; q = -k negates its imaginary mantissa.  Each spectrum
    a_0(q)..a_d(q) is converted once at its own scale, so spectra that decay
    over many orders of magnitude keep their relative precision; guard bits
    cover the factor wy^-(d+1) by which an entry may fall below its largest
    coefficient.  One paired Horner pass per (q, n) gives the entries
    (q - n, n) and (q + n, -n).  The background adds sum_s p_s(wx) q_s(wy),
    each coefficient read once, on its terms' supports after the rounding,
    as ``Background2D.coeff2d`` and mpc addition round.  Returns the four
    part lists of a :class:`CoeffGrid2D`; no mpc is made past the reads.

    Raises
    ------
    ValueError
        If a profile or background coefficient is NaN or infinite, naming
        it; a bad profile coefficient is the first in (q, l) order.
    """
    with ctx.workprec():
        wp = mp.prec + _guard_bits(N) + len(m.magnitudes) * N.bit_length()
        try:
            spectra = [_over_two_pi_ints(_mpc_parts(
                prof.coeffs[:M + N + 1], "", 0), wp) for prof in m.magnitudes]
        except ValueError:  # name the first bad coefficient in (q, l) order
            for q in range(-M - N, M + N + 1):
                _mpc_parts([prof.coeff(q) for prof in m.magnitudes],
                           f"coefficient at q={q} of profile A_", 0)
            raise
        terms = [(_mpc_parts(p.coeffs, f"background term {s} coefficient p_", 0),
                  _mpc_parts(q.coeffs, f"background term {s} coefficient q_", 0))
                 for s, (p, q) in enumerate(m.background.terms)]
        n2, prec, zero = 2 * N + 1, mp.prec, ((0, 0), (0, 0))
        grid = mr, er, mi, ei = [[0] * ((2 * M + 1) * n2) for _ in range(4)]

        def put(i: int, re: int, im: int) -> None:  # entry i, rounded once
            mr[i], er[i] = _round_int(re, -shift, prec)
            mi[i], ei[i] = _round_int(im, -shift, prec)

        for q in range(-M - N, M + N + 1):
            k = abs(q)
            parts = [a[k] if k < len(a) else zero for a in spectra]
            if q < 0:
                parts = [(re, (-b, f)) for re, (b, f) in parts]
            tops = [e + a.bit_length() for pair in parts for a, e in pair if a]
            if not tops:
                continue
            shift = wp - max(tops)
            stack = [tuple(a << s if (s := e + shift) >= 0 else a >> -s
                           for a, e in pair) for pair in parts]
            for n in range(max(1, k - M), min(N, k + M) + 1):  # some entry in range
                plus, minus = _fixed_horner_pair(stack, n)
                if abs(q - n) <= M:
                    put((q - n + M) * n2 + n + N, *plus)
                if abs(q + n) <= M:
                    put((q + n + M) * n2 + N - n, *minus)

        def band(raw, n: int) -> dict:  # the nonzero coefficients by index + n
            cs = [(k, _int_part(re), _int_part(im))
                  for k, (re, im) in enumerate(raw[:n + 1]) if re[1] or im[1]]
            return ({n - k: (re, (-im[0], im[1])) for k, re, im in cs}
                    | {n + k: (re, im) for k, re, im in cs})

        p_hat = [band(p, M) for p, _ in terms]
        q_hat = [band(q, N) for _, q in terms]
        rows = set().union(*q_hat)
        for ix in range(2 * M + 1):
            for iy in rows:
                # an exact zero added is exact, so skipping it keeps every bit
                bg = zero
                for ps, qs in zip(p_hat, q_hat):
                    if ix in ps and iy in qs:
                        ((a, e), (b, f)), ((c, g), (d, h)) = ps[ix], qs[iy]
                        re = _round_sum(a * c, e + g, -b * d, f + h, prec)
                        im = _round_sum(a * d, e + h, b * c, f + g, prec)
                        bg = (_round_sum(*bg[0], *re, prec),
                              _round_sum(*bg[1], *im, prec))
                if bg[0][0] or bg[1][0]:
                    i = ix * n2 + iy
                    mr[i], er[i] = _round_sum(mr[i], er[i], *bg[0], prec)
                    mi[i], ei[i] = _round_sum(mi[i], ei[i], *bg[1], prec)
        return grid


def _trapezoid_grid(m: Model2D, wxs, wys, ctx: ArithmeticContext, T: int):
    """Periodic trapezoid on T nodes in x of the slice coefficients.

    Returns one column per wx in ``wxs``, holding the entries (wx, wy) for
    wy in ``wys``.  Each node's slice is synthesised at N = max |wy|, and
    ``synth_coeffs`` sizes its guard bits from N, so a sub-grid equals the
    same entries of a larger grid bit for bit when both share that N.  The
    integrand is a trig polynomial in y; in x it is analytic and periodic,
    so the trapezoid rule converges geometrically.
    """
    with ctx.workprec():
        xs = [-mp.pi + 2 * mp.pi * t / T for t in range(T)]
        N = max((abs(wy) for wy in wys), default=0)
        # slice values v[t][iy], one slice per node, then an explicit DFT
        vecs = (synth_coeffs(m.slice(x, ctx), N, ctx) for x in xs)
        v = [[vec.c(wy) for wy in wys] for vec in vecs]
        cols = []
        for wx in wxs:
            col = [mp.mpc(0)] * len(wys)
            for x, row in zip(xs, v):
                ph = mp.expj(-wx * x)
                col = [c + r * ph for c, r in zip(col, row)]
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
    nodes; four probe entries, (M, N) among them, are recomputed at doubled
    node count, and the worst deviation, that of the whole doubled grid, is
    recorded under diagnostics["doubling_error"].
    """
    if M < 0 or N < 0:
        raise ValueError("M and N must be >= 0")
    if m.curve.kind == "identity":
        return CoeffGrid2D._of_parts(M, N, _closed_form_grid(m, M, N, ctx),
                                     {"method": "closed-form"})
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
        worst = max(abs(values[wx + M][wy + N] - dense[wxs.index(wx)][wys.index(wy)])
                    for wx, wy in probes)
    diag = {"method": "trapezoid", "doubling_error": float(worst)}
    return CoeffGrid2D(M, N, tuple(values), diag)


def save_grid(grid: CoeffGrid2D, path, precision_digits: int) -> None:
    """Write a grid file, exact at ``precision_digits``.

    Line 1 is a JSON header with "format": 2, "M", "N" and "precision",
    which must be an int >= 15, the floor of ``ArithmeticContext``.
    Then one line "omega_x, omega_y, re, im" per entry, column by column:
    each part m 2^e of the grid's ints is written as <hex m>p<e>, its
    mpmath raw value, rounded once to the header precision (round-nearest)
    if it is wider.  The last line is "sha256 <hex>", the SHA-256 of every
    line before it.  Raises ValueError naming the entry when a part is NaN
    or infinite.
    """
    if type(precision_digits) is not int or precision_digits < _MIN_DIGITS:
        raise ValueError(f"precision_digits must be an int >= {_MIN_DIGITS}, "
                         f"got {precision_digits!r}")
    digest = hashlib.sha256()
    header = {
        "format": _GRID_FORMAT,
        "M": grid.M,
        "N": grid.N,
        "precision": precision_digits,
    }
    prec, n2 = dps_to_prec(precision_digits), 2 * grid.N + 1
    wys = range(-grid.N, grid.N + 1)
    lines = "%d, %d, %xp%d, %xp%d\n" * n2  # one column; %x keeps the sign
    with open(path, "wb") as fh:

        def put(line: str) -> None:
            data = line.encode("ascii")
            digest.update(data)
            fh.write(data)

        put(json.dumps(header) + "\n")
        for ix, wx in enumerate(range(-grid.M, grid.M + 1)):
            at = slice(ix * n2, ix * n2 + n2)
            mr, er, mi, ei = (p[at] for p in grid.parts)
            if 0 in mr or 0 in mi:  # NaN or infinite: mantissa 0, exponent not
                for wy, a, b, c, d in zip(wys, mr, er, mi, ei):
                    if (not a and b) or (not c and d):
                        raise ValueError(f"grid entry ({wx}, {wy}) is not finite")
            put(lines % tuple(chain.from_iterable(zip(
                repeat(wx), wys, *_rounded(mr, er, prec),
                *_rounded(mi, ei, prec)))))
        fh.write(f"sha256 {digest.hexdigest()}\n".encode("ascii"))


class _Ints(dict):
    """The int of each bytes token, parsed on its first lookup: a grid file
    repeats its indices and exponents, which then share one int object."""

    def __missing__(self, token: bytes) -> int:
        value = self[token] = int(token)
        return value


def load_grid(path) -> CoeffGrid2D:
    """Read a grid file written by :func:`save_grid`, bit for bit.

    Each line is parsed straight into the ints a :class:`CoeffGrid2D` holds,
    every part exactly, and no mpc is made; an even mantissa, or a zero one
    with an exponent, which ``save_grid`` does not write, is normalised.

    Raises ValueError naming the file unless line 1 is a JSON object with
    integer "M", "N" and "precision", M, N >= 0 and precision >= 15, when
    the header is not format 2 (a decimal format-1 file must be written
    again by ``generate``), naming the line when it is not
    "omega_x, omega_y, re, im" with parts <hex m>p<e>, when the sha256
    trailer is missing or does not match the lines before it, and, with
    counts, unless every (omega_x, omega_y) of the header's ranges appears
    exactly once.
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
        if M < 0 or N < 0:
            raise ValueError(f"{path}: header M={M}, N={N} must be >= 0")
        if prec < _MIN_DIGITS:
            raise ValueError(f"{path}: header precision={prec} must be >= "
                             f"{_MIN_DIGITS}")
        fmt = header.get("format", 1)
        if fmt != _GRID_FORMAT:
            raise ValueError(
                f"{path}: grid file format {fmt} is not readable, only format "
                f"{_GRID_FORMAT}; re-run generate to write the grid again"
            )
        n2 = 2 * N + 1
        parts = mr, er, mi, ei = [[None] * ((2 * M + 1) * n2) for _ in range(4)]
        ints = _Ints()
        duplicate = outside = 0
        for lineno, line in enumerate(fh, start=2):
            if line.startswith(b"sha256 "):
                trailer = line
                break
            digest.update(line)
            try:
                swx, swy, sre, sim = line.split(b",")
                a, _, b = sre.partition(b"p")
                c, _, d = sim.partition(b"p")
                wx, wy = ints[swx], ints[swy]
                entry = int(a, 16), ints[b], int(c, 16), ints[d]
            except ValueError as exc:
                raise ValueError(
                    f"{path}: line {lineno} is not 'omega_x, omega_y, re, im'"
                ) from exc
            if abs(wx) > M or abs(wy) > N:
                outside += 1
                continue
            i = (wx + M) * n2 + wy + N
            if mr[i] is not None:
                duplicate += 1
            else:
                mr[i], er[i], mi[i], ei[i] = entry
        if trailer is None or fh.read(1):
            raise ValueError(f"{path}: the last line is not a sha256 trailer")
    if trailer != f"sha256 {digest.hexdigest()}\n".encode("ascii"):
        raise ValueError(f"{path}: sha256 checksum does not match the file")
    missing = mr.count(None)
    if missing or duplicate or outside:
        raise ValueError(
            f"{path}: grid M={M}, N={N} has {missing} missing, "
            f"{duplicate} duplicate and {outside} out-of-range entries"
        )
    # save_grid writes odd mantissas, and 0p0 for zero; a hand-written even
    # one, or a zero with an exponent, is normalised as from_man_exp does
    for ms, es in ((mr, er), (mi, ei)):
        if not all(map((1).__and__, ms)):
            for i, m in enumerate(ms):
                if not m & 1:
                    ms[i], es[i] = _round_int(m, es[i])
    return CoeffGrid2D._of_parts(M, N, parts, {"precision": prec})
