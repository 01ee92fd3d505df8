"""Arbitrary-precision scalar and polynomial utilities.

This module is the arithmetic substrate for the reconstruction pipeline:
a precision context wrapping mpmath, exact combinatorial sums, a
simultaneous-iteration root finder with a full-precision Newton polish for
the one root a caller keeps, an exact integer solver for the scaled
Vandermonde systems produced by moment decimation, and the Python-int
fixed-point primitives that the O(M) series loops of synthesis and
reconstruction share.

Everything here is deterministic: no randomness is used anywhere, and root
lists come back in a fixed sort order, so repeated runs at the same
precision produce identical output.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from mpmath import mp
from mpmath.libmp import (from_man_exp, from_rational, mpf_cos_sin, mpf_shift,
                          round_nearest, to_fixed)


class RootFindingError(ArithmeticError):
    """Raised when an iteration breaks down or hits its cap, or a root fails
    its residual bound."""


@dataclass(frozen=True)
class ArithmeticContext:
    """Working precision plus derived tolerances.

    Parameters
    ----------
    precision_digits : int
        Decimal working precision, at least 15.
    """

    precision_digits: int = 15

    def __post_init__(self) -> None:
        if self.precision_digits < 15:
            raise ValueError(
                f"precision_digits must be >= 15, got {self.precision_digits}"
            )

    def workprec(self):
        """Context manager setting mpmath working precision.

        mpmath precision is process-global state; concurrent use from
        threads is not supported.
        """
        return mp.workdps(self.precision_digits)

    def root_tol(self):
        """Relative acceptance bound for polynomial root residuals, as an mpf:
        ``10**-(precision_digits - 8)``, eight digits of slack below working
        precision."""
        with self.workprec():
            return mp.mpf(10) ** (-(self.precision_digits - 8))


def annihilation_sum(l: int, d: int) -> int:
    """Exact integer sum_{j=0}^{d+1} (-1)^j C(d+1, j) (j+1)^l.

    This is the (d+1)-th forward difference of the sequence (j+1)^l at 0, up
    to sign.  It vanishes exactly for 0 <= l <= d, which is the identity that
    makes the decimated localization polynomial annihilate polynomial moment
    growth; at l = d+1 it equals (-1)^(d+1) (d+1)!.

    Raises
    ------
    ValueError
        If l < 0 or d < 0.
    """
    if l < 0 or d < 0:
        raise ValueError(f"annihilation_sum requires l, d >= 0, got l={l}, d={d}")
    return sum(
        (-1) ** j * math.comb(d + 1, j) * (j + 1) ** l for j in range(d + 2)
    )


def _horner(coeffs: Sequence, z):
    """p(z) and p'(z) of the ascending coefficients ``coeffs`` (coeffs[j]
    multiplies z**j), in the arithmetic of their type."""
    p, dp = coeffs[-1], 0
    for c in coeffs[-2::-1]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _check_residual(coeffs: Sequence, z, tol) -> None:
    """Raise RootFindingError unless
    |p(z)| <= tol * max|c_j| * max(1, |z|)**degree."""
    bound = tol * max(abs(c) for c in coeffs) * max(1, abs(z)) ** (len(coeffs) - 1)
    res = abs(_horner(coeffs, z)[0])
    if res > bound:
        raise RootFindingError(
            f"root residual {mp.nstr(res, 8)} exceeds bound {mp.nstr(bound, 8)}"
        )


# Aberth sweeps of poly_roots: cap, stop threshold on the relative update
# norm, and the level below which an update norm that rises again counts as
# having reached the float64 noise floor.  Far from the roots the norm can
# sit near a constant or rise for many sweeps, so a rise there is no stop.
_ABERTH_MAXITER = 200
_ABERTH_STOP = 1e-13
_ABERTH_FLOOR = 1e-6
# Phase offset of the starting points, in radians.
_START_PHASE = 0.3779 * math.pi
# Hull edges whose slopes differ by less than this (in log radius) are one
# edge.  Two edges on nearly the same circle can put a start of each at the
# same phase, and Aberth does not separate a pair that starts a rounding
# error apart before its noise-floor stop ends the sweeps.
_HULL_MERGE = 0.01


def _hull_starts(logs: list, exp) -> list:
    """Bini's starting points from the Newton polygon of a polynomial.

    ``logs`` holds log|c_j| for j = 0..n (-inf for a zero coefficient).
    Each edge (j0, j1) of the upper convex hull of the points (j, log|c_j|),
    with edges of nearly equal slope merged (``_HULL_MERGE``), gets j1 - j0
    points, equally spaced on the circle whose radius is
    exp(-slope) of the edge, where that many roots lie; the circle is turned
    by 2pi j0 / n and a fixed offset.  ``exp`` maps a Python complex w to
    e^w in the arithmetic the points are wanted in.
    """
    n = len(logs) - 1
    hull: list = []
    for j, y in enumerate(logs):
        if y == -math.inf:
            continue
        # drop the last vertex while the slope does not fall there by more
        # than _HULL_MERGE: it lies below, on or just above the chord to (j, y)
        while len(hull) >= 2:
            (j0, y0), (j1, y1) = hull[-2], hull[-1]
            if (y1 - y0) / (j1 - j0) - (y - y1) / (j - j1) > _HULL_MERGE:
                break
            hull.pop()
        hull.append((j, y))
    starts = []
    for (j0, y0), (j1, y1) in zip(hull, hull[1:]):
        k = j1 - j0
        for t in range(k):
            phase = 2 * math.pi * (t / k + j0 / n) + _START_PHASE
            starts.append(exp(complex((y0 - y1) / k, phase)))
    return starts


def _aberth(coeffs: Sequence, z: list) -> int:
    """Aberth-Ehrlich sweeps on the points ``z``, updated in place.

    Runs in the arithmetic of the values given: Python ``complex`` or mpc.
    Stops when the largest update relative to max(1, |z_i|) is below
    ``_ABERTH_STOP``, when such a norm below ``_ABERTH_FLOOR`` fails to
    fall, or after ``_ABERTH_MAXITER`` sweeps.  Returns the sweep count.

    Raises
    ------
    ZeroDivisionError
        If two points coincide or p' vanishes at one.
    """
    m = len(z)
    prev = math.inf
    for sweeps in range(1, _ABERTH_MAXITER + 1):
        shift = 0
        for i in range(m):
            zi = z[i]
            p, dp = _horner(coeffs, zi)
            ratio = p / dp
            s = sum(1 / (zi - z[j]) for j in range(m) if j != i)
            denom = 1 - ratio * s
            w = ratio if denom == 0 else ratio / denom
            z[i] = zi - w
            shift = max(shift, abs(w) / max(1, abs(z[i])))
        if shift < _ABERTH_STOP or _ABERTH_FLOOR > shift >= prev:
            break
        prev = shift
    return sweeps


def _sweep(coeffs: list, logs: list, exp):
    """Aberth from the Newton-polygon starts of :func:`_hull_starts`:
    (points, sweeps), or None if the sweeps break down or end on
    non-finite or coincident points."""
    try:
        z = _hull_starts(logs, exp)
        sweeps = _aberth(coeffs, z)
    except (ZeroDivisionError, OverflowError):
        return None
    if not all(abs(r) < math.inf for r in z) or len(set(z)) < len(z):
        return None
    return z, sweeps


def poly_roots(coeffs: Sequence, ctx: ArithmeticContext) -> tuple:
    """All complex roots of sum_j coeffs[j] z**j, to about float64 accuracy.

    Returns (roots, sweeps): the root multiset (length = degree) as mpc
    values sorted by real part, then imaginary part, and the number of
    Aberth sweeps run.  Trailing zero coefficients are dropped, and exact
    zero roots are factored out before iteration.

    Aberth-Ehrlich runs in Python ``complex`` on the coefficients divided by
    their largest modulus, from Bini's Newton-polygon starts.  When float64
    cannot represent the polynomial (a nonzero coefficient flushes to zero)
    or the sweeps break down, the same sweeps run on mpc values at working
    precision.  :func:`polish_root` takes a root on to full precision.

    Raises
    ------
    RootFindingError
        For the zero polynomial, or when the mpc sweeps break down
        (coincident iterates or a zero of p').
    """
    with ctx.workprec():
        cs = [mp.mpc(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if cs[-1] == 0:
            raise RootFindingError("zero polynomial has no well-defined roots")
        # exact zero roots are exact answers; without them the Newton
        # polygon starts at j = 0 and ends at the degree
        zero_roots = 0
        while cs[0] == 0 and len(cs) > 1:
            cs.pop(0)
            zero_roots += 1
        roots = [mp.mpc(0)] * zero_roots
        sweeps = 0
        if len(cs) > 1:
            top = max(abs(c) for c in cs)
            cf = [complex(c / top) for c in cs]
            found = None
            if all(f or not c for f, c in zip(cf, cs)):
                logs = [math.log(abs(f)) if f else -math.inf for f in cf]
                found = _sweep(cf, logs, cmath.exp)
            if found is None:
                logs = [float(mp.log(abs(c))) if c else -math.inf for c in cs]
                found = _sweep(cs, logs, lambda w: mp.exp(mp.mpc(w)))
            if found is None:
                raise RootFindingError(
                    f"Aberth iterates coincide or meet a zero of p' "
                    f"(degree {len(cs) - 1})"
                )
            z, sweeps = found
            roots.extend(mp.mpc(r) for r in z)
        roots.sort(key=lambda r: (r.real, r.imag))
        return roots, sweeps


# A Newton step of polish_root below this relative size that fails to fall
# has reached the noise floor of a multiple root or a tight cluster.
_NEWTON_FLOOR = 1e-3


def polish_root(coeffs: Sequence, z, ctx: ArithmeticContext) -> tuple:
    """Newton's method at full precision on one root of sum_j coeffs[j] z**j.

    Starts from ``z``, a root from :func:`poly_roots`, at precision + 10
    digits, so the step can reach the stopping threshold instead of
    stagnating at the rounding floor.  Returns (root, steps) on the first of
    two rules:

    - converged: the step relative to max(1, |z|) drops below
      10**-(precision_digits + 5), or the last step was superlinear
      (<= previous step ** 1.5) and its square is below that threshold;
    - noise floor: a step below 1e-3 does not fall.  Newton converges
      linearly on a q-fold root, which is only determined to about
      eps^(1/q), and ends there.

    Raises
    ------
    RootFindingError
        If the cap of 200 + 15 * precision_digits steps is reached, if p'
        vanishes at an iterate, or if the root violates
        |p(r)| <= ctx.root_tol() * max|coeff| * max(1, |r|)**degree.
    """
    with mp.workdps(ctx.precision_digits + 10):
        cs = [mp.mpc(c) for c in coeffs]
        z = mp.mpc(z)
        stop = mp.mpf(10) ** (-(ctx.precision_digits + 5))
        maxiter = 200 + 15 * ctx.precision_digits
        prev = mp.inf
        for steps in range(1, maxiter + 1):
            p, dp = _horner(cs, z)
            if p == 0:
                break
            if dp == 0:
                raise RootFindingError("p' vanishes at a Newton iterate")
            w = p / dp
            z -= w
            shift = abs(w) / max(1, abs(z))
            if shift < stop or (shift <= prev ** 1.5 and shift**2 < stop):
                break
            if _NEWTON_FLOOR > shift >= prev:
                break
            prev = shift
        else:
            raise RootFindingError(f"Newton did not converge in {maxiter} steps")
        _check_residual(cs, z, ctx.root_tol())
        return z, steps


@lru_cache(maxsize=32)
def _unit_vandermonde_inverse(d: int) -> tuple:
    """Exact inverse of the step-1 power matrix [ (j+1)**l ]_{j,l=0..d}.

    Returned as (numerators, denominators): integer matrix plus one positive
    integer denominator per row, so applying the inverse costs a single
    exact integer division per unknown.
    """
    size = d + 1
    # Gauss-Jordan over Fraction; the matrix is tiny (d <= ~13 in practice).
    a = [
        [Fraction((j + 1) ** l) for l in range(size)] +
        [Fraction(int(i == j)) for i in range(size)]
        for j in range(size)
    ]
    for col in range(size):
        piv = next(r for r in range(col, size) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(size):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    nums = []
    dens = []
    for r in range(size):
        row = a[r][size:]
        den = math.lcm(*(f.denominator for f in row))
        nums.append(tuple(f.numerator * (den // f.denominator) for f in row))
        dens.append(den)
    return tuple(nums), tuple(dens)


def vandermonde_solve(
    d: int, base: int, rhs: Sequence, shift: int, ctx: ArithmeticContext
) -> list:
    """Solve the Vandermonde system on the decimated nodes (j+1)*base, j = 0..d.

    The coefficient matrix V has entries ((j+1)*base)**l.  It factors as
    V1 * diag(base**l) with V1 the integer step-1 matrix.  ``rhs`` holds
    fixed-point pairs (re, im) of Python ints at scale 2^shift, so the exact
    integer inverse of V1 applies to them without rounding; each unknown
    x_l = sum_j num[l][j] b_j / (den_l base**l) is then rounded once, to
    nearest, at working precision.  Returns a list of d+1 mpc values.

    Raises
    ------
    ValueError
        If d < 0, base < 1, or len(rhs) != d + 1.
    """
    if d < 0:
        raise ValueError(f"order must be >= 0, got {d}")
    if base < 1:
        raise ValueError(f"base must be >= 1, got {base}")
    if len(rhs) != d + 1:
        raise ValueError(
            f"rhs length {len(rhs)} != {d + 1} (order {d})"
        )
    nums, dens = _unit_vandermonde_inverse(d)
    parts = list(zip(*rhs))  # the real parts, then the imaginary parts
    with ctx.workprec():
        prec = mp.prec
        out = []
        for l, (row, den) in enumerate(zip(nums, dens)):
            q = den * base**l
            out.append(mp.make_mpc(tuple(
                mpf_shift(from_rational(sum(map(operator.mul, row, b)), q,
                                        prec, round_nearest), -shift)
                for b in parts
            )))
        return out


# -- fixed-point complex values ----------------------------------------------
# A pair of Python ints (re, im) at scale 2^s stands for (re + i im) 2^-s.
# The series kernels convert their inputs once, run their recurrences in
# integers at working precision plus guard bits, and round each output once.


def _guard_bits(M: int) -> int:
    """Extra bits of the fixed-point series kernels over working precision,
    enough to keep the O(M) roundings of their recurrences below it."""
    return 24 + M.bit_length()


def _raw_mpc(v, prec: int):
    """Raw (re, im) mpf pair of ``mp.mpc(v)`` at working precision ``prec``.

    An mpc whose parts fit ``prec`` bits is used as is; anything else goes
    through ``mp.mpc``, which rounds each part to working precision.
    """
    p = getattr(v, "_mpc_", None)
    if p is None or p[0][3] > prec or p[1][3] > prec:
        p = mp.mpc(v)._mpc_
    return p


def _mpc_parts(values, name: str, first: int) -> list:
    """Raw (re, im) mpf pairs of ``mp.mpc(v)``; entry i is ``name`` first + i.

    Raises
    ------
    ValueError
        If a part is NaN or infinite, naming the entry.
    """
    prec = mp.prec
    parts = []
    for i, v in enumerate(values):
        re, im = p = _raw_mpc(v, prec)
        # NaN and the infinities are the raw mpfs with mantissa 0 and a
        # nonzero exponent; to_fixed would silently map them to 0
        if (not re[1] and re[2]) or (not im[1] and im[2]):
            raise ValueError(f"non-finite {name}{first + i}: {v}")
        parts.append(p)
    return parts


def _fixed_shift(parts, wp: int) -> int:
    """Exponent s such that every part of ``parts`` times 2^s is below 2^wp."""
    top = max((p[2] + p[3] for pair in parts for p in pair if p[1]), default=0)
    return wp - top


def _fixed_expj(x, wp: int):
    """exp(ix) of the raw mpf x as fixed-point ints (re, im) at scale 2^wp."""
    if not x[1] and x[2]:  # NaN or infinite, as in _mpc_parts
        raise ValueError(f"non-finite phase argument {mp.mpf(x)}")
    cos, sin = mpf_cos_sin(x, wp)
    return to_fixed(cos, wp), to_fixed(sin, wp)


def _from_fixed(re: int, im: int, shift: int):
    """mpc at working precision from fixed-point ints at scale 2^shift."""
    prec = mp.prec
    return mp.make_mpc((
        from_man_exp(re, -shift, prec, round_nearest),
        from_man_exp(im, -shift, prec, round_nearest),
    ))


def _over_two_pi(parts, wp: int) -> list:
    """Raw (re, im) pairs of ``parts`` times 1/2pi, each rounded at wp bits."""
    with mp.workprec(wp):
        inv_two_pi = 1 / (2 * mp.pi)
        return [(mp.make_mpc(p) * inv_two_pi)._mpc_ for p in parts]


def _fixed_stack(parts, shift: int) -> list:
    """Fixed-point pairs at scale 2^shift of the raw pairs B_0..B_d, in the
    order :func:`_fixed_horner` takes them (B_d first)."""
    return [(to_fixed(re, shift), to_fixed(im, shift)) for re, im in reversed(parts)]


def _fixed_horner(stack, n: int):
    """sum_l B_l u^(l+1) with u = 1/(in) = -i/n, on fixed-point ints.

    ``stack`` is from :func:`_fixed_stack`; the sum comes back at its scale.
    Horner runs from the top order down, t = B_l + u t, then S = u t; each
    step multiplies by u exactly but for one floor division per part.  An
    empty stack gives (0, 0).
    """
    tr = ti = 0
    for br, bi in stack:
        tr, ti = br + ti // n, bi - tr // n
    return ti // n, -tr // n
