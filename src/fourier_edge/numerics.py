"""Arbitrary-precision scalar and polynomial utilities.

This module is the arithmetic substrate for the reconstruction pipeline:
a precision context wrapping mpmath, exact combinatorial sums, a small
complex-polynomial type with a simultaneous-iteration root finder, a
solver for the scaled Vandermonde systems produced by moment decimation,
and the Python-int fixed-point primitives that the O(M) series loops of
synthesis and reconstruction share.

Everything here is deterministic: no randomness is used anywhere, and root
lists come back in a fixed sort order, so repeated runs at the same
precision produce identical output.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_cos_sin, round_nearest, to_fixed

__all__ = [
    "ArithmeticContext",
    "ComplexPoly",
    "RootFindingError",
    "annihilation_sum",
    "poly_roots",
    "vandermonde_solve",
]


class RootFindingError(ArithmeticError):
    """Raised when the iteration cap is hit or a root fails the residual bound."""


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


class ComplexPoly:
    """Dense univariate polynomial with complex coefficients.

    Coefficients are stored in ascending order (coeffs[j] multiplies z**j)
    and trailing zeros are stripped at construction, so ``degree`` reflects
    the true leading term.  The zero polynomial keeps a single zero
    coefficient and reports degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = list(coeffs)
        if not cs:
            raise ValueError("ComplexPoly needs at least one coefficient")
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        if len(self.coeffs) == 1 and self.coeffs[0] == 0:
            return -1
        return len(self.coeffs) - 1

    def __call__(self, z):
        # Horner; exact for exact coefficient/argument types.
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * z + c
        return acc

    def derivative(self) -> "ComplexPoly":
        if len(self.coeffs) == 1:
            return ComplexPoly([0])
        return ComplexPoly([j * c for j, c in enumerate(self.coeffs)][1:])

    def __repr__(self) -> str:
        return f"ComplexPoly(degree={self.degree})"


# Float phase of poly_roots: sweep cap, stop threshold on the relative update
# norm, and the level below which an update norm that rises again counts as
# having reached the float64 noise floor.  Far from the roots the norm can
# sit near a constant or rise for many sweeps, so a rise there is no stop.
_FLOAT_MAXITER = 200
_FLOAT_STOP = 1e-13
_FLOAT_FLOOR = 1e-6

# Inside a _root_stats block, poly_roots appends the (sweeps, stalled) pair
# of its full-precision phase to the list held here.
_ROOT_STATS: ContextVar = ContextVar("fourier_edge_root_stats", default=None)


def _float_seeds(coeffs: list):
    """Aberth-Ehrlich roots in Python ``complex``, or None if unusable.

    ``coeffs`` are ascending mpc values with a nonzero constant term.  They
    are divided by their largest modulus so none overflows.  None means
    float64 cannot represent the polynomial (a nonzero coefficient flushes
    to zero) or the iteration ended on non-finite or coincident points.
    """
    top = max(abs(c) for c in coeffs)
    cf = [complex(c / top) for c in coeffs]
    if any(f == 0 for f, c in zip(cf, coeffs) if c != 0):
        return None
    m = len(cf) - 1
    radius = max(1.0, max(abs(c) for c in cf[:-1]) / abs(cf[-1]))
    z = [
        radius * cmath.exp(1j * math.pi * (2 * k / m + 0.3779))
        for k in range(m)
    ]
    prev = math.inf
    try:
        for _ in range(_FLOAT_MAXITER):
            shift = 0.0
            for i in range(m):
                zi = z[i]
                p, dp = cf[-1], 0j
                for c in reversed(cf[:-1]):
                    dp = dp * zi + p
                    p = p * zi + c
                ratio = p / dp
                s = sum(1 / (zi - z[j]) for j in range(m) if j != i)
                denom = 1 - ratio * s
                w = ratio if denom == 0 else ratio / denom
                z[i] = zi - w
                shift = max(shift, abs(w) / max(1.0, abs(z[i])))
            if shift < _FLOAT_STOP or _FLOAT_FLOOR > shift >= prev:
                break
            prev = shift
    except ZeroDivisionError:
        return None
    if not all(cmath.isfinite(r) for r in z) or len(set(z)) < m:
        return None
    return z


def poly_roots(poly: ComplexPoly, ctx: ArithmeticContext) -> list:
    """All complex roots of ``poly`` by Aberth-Ehrlich simultaneous iteration.

    Returns the full root multiset (length = degree) as mpc values sorted by
    real part, then imaginary part.  Exact zero roots are factored out before
    iteration, which also handles pure monomials like z**m instantly.

    The iteration runs twice.  It first runs in Python ``complex`` on the
    coefficients divided by their largest modulus, from points on a circle
    of radius max(1, max_j |c_j / c_n|) with a fixed irrational phase
    offset, until the update norm drops below about 1e-13 or stops falling.
    It then polishes those roots at full precision, sweep by sweep, until
    one of two rules ends it:

    - converged: the update norm drops below ``stop`` =
      10**-(precision_digits + 5), or the last sweep was superlinear
      (norm <= previous norm ** 1.5) and the norm squared is below
      ``stop``, so the next correction would already be below it;
    - noise floor: a norm below 1e-6 does not fall.  The roots of a
      q-fold cluster are only determined to about eps^(1/q), and their
      norm wanders there; the call is then marked stalled.

    When float64 cannot represent the polynomial or ends on non-finite or
    coincident roots, the full-precision phase starts from the same circle
    instead.  No randomness, so results are reproducible bit for bit at a
    given precision.

    Raises
    ------
    RootFindingError
        If the iteration cap is reached before the update norm drops below
        the stopping threshold, if two iterates coincide, or if an accepted
        root violates
        |p(r)| <= ctx.root_tol() * max|coeff| * max(1, |r|)**degree.
    """
    n = poly.degree
    if n < 0:
        raise RootFindingError("zero polynomial has no well-defined roots")
    if n == 0:
        return []

    # Ten guard digits so the update norm can actually reach the stopping
    # threshold instead of stagnating at the rounding floor.
    with mp.workdps(ctx.precision_digits + 10):
        coeffs = [mp.mpc(c) for c in poly.coeffs]

        # Factor out exact zero roots: they are exact answers and removing
        # them keeps the iteration away from a symmetric stagnation set.
        zero_roots = 0
        while coeffs[0] == 0 and len(coeffs) > 1:
            coeffs.pop(0)
            zero_roots += 1
        roots = [mp.mpc(0)] * zero_roots

        m = len(coeffs) - 1
        sweeps, stalled = 0, False
        if m > 0:
            p = ComplexPoly(coeffs)
            dp = p.derivative()
            seeds = _float_seeds(coeffs)
            if seeds is not None:
                z = [mp.mpc(s) for s in seeds]
            else:
                lead = abs(coeffs[-1])
                radius = max(
                    mp.mpf(1), max(abs(c) for c in coeffs[:-1]) / lead
                )
                z = [
                    radius * mp.expjpi(mp.mpf(2 * k) / m + mp.mpf("0.3779"))
                    for k in range(m)
                ]
            stop = mp.mpf(10) ** (-(ctx.precision_digits + 5))
            maxiter = 200 + 15 * ctx.precision_digits
            prev = mp.inf
            for sweeps in range(1, maxiter + 1):
                shift = mp.mpf(0)
                for i in range(m):
                    pz = p(z[i])
                    dpz = dp(z[i])
                    if dpz == 0:
                        # Degenerate point; nudge off and retry next sweep.
                        z[i] = z[i] + mp.mpf("1e-3") * (1 + abs(z[i]))
                        shift = mp.inf
                        continue
                    ratio = pz / dpz
                    s = mp.mpc(0)
                    try:
                        for j in range(m):
                            if j != i:
                                s += 1 / (z[i] - z[j])
                    except ZeroDivisionError:
                        raise RootFindingError(
                            f"two Aberth iterates coincide (degree {m})"
                        ) from None
                    denom = 1 - ratio * s
                    w = ratio if denom == 0 else ratio / denom
                    z[i] = z[i] - w
                    shift = max(shift, abs(w) / max(mp.mpf(1), abs(z[i])))
                # Aberth converges at least quadratically on simple roots,
                # so after a superlinear step whose square is below `stop`
                # the next correction would be too.
                if shift < stop or (shift <= prev ** 1.5 and shift**2 < stop):
                    break
                # A root of multiplicity q stalls the update norm at the
                # eps^(1/q) noise floor, above `stop` forever: once a small
                # norm fails to fall, further sweeps only shuffle the
                # cluster.  The residual bound below stays the acceptance
                # gate.
                if mp.mpf("1e-6") > shift >= prev:
                    stalled = True
                    break
                prev = shift
            else:
                raise RootFindingError(
                    f"no convergence after {maxiter} iterations (degree {m})"
                )
            roots.extend(z)

        scale = max(abs(c) for c in coeffs) if m > 0 else mp.mpf(1)
        tol = ctx.root_tol()
        full = ComplexPoly([mp.mpc(c) for c in poly.coeffs])
        for r in roots:
            bound = tol * scale * max(mp.mpf(1), abs(r)) ** n
            if abs(full(r)) > bound:
                raise RootFindingError(
                    f"root residual {mp.nstr(abs(full(r)), 8)} exceeds bound "
                    f"{mp.nstr(bound, 8)}"
                )
        roots.sort(key=lambda r: (r.real, r.imag))
        sink = _ROOT_STATS.get()
        if sink is not None:
            sink.append((sweeps, stalled))
        return roots


@contextmanager
def _root_stats():
    """Collect two facts about each ``poly_roots`` call made inside the block.

    Yields a list that receives one (sweeps, stalled) pair per call that
    returns roots: the number of full-precision sweeps run (0 when only
    exact zero roots remain), and whether they ended on the noise-floor
    rule rather than the convergence rule.  ``poly_roots`` keeps
    its signature and return value, so callers and anything that wraps it
    are unaffected.
    """
    sink: list = []
    token = _ROOT_STATS.set(sink)
    try:
        yield sink
    finally:
        _ROOT_STATS.reset(token)


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
    d: int, base: int, rhs: Sequence, ctx: ArithmeticContext
) -> list:
    """Solve the Vandermonde system on the decimated nodes (j+1)*base, j = 0..d.

    The coefficient matrix V has entries ((j+1)*base)**l.  It factors as
    V1 * diag(base**l) with V1 the integer step-1 matrix, so a solve applies
    the exact integer inverse of V1 (one integer division per unknown) and
    then rescales by base**-l.  Rounding enters only in the final
    integer-times-complex accumulation.  Returns a list of d+1 mpc values.

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
    with ctx.workprec():
        b = [mp.mpc(v) for v in rhs]
        out = []
        for l in range(d + 1):
            acc = mp.mpc(0)
            for j in range(d + 1):
                c = nums[l][j]
                if c:
                    acc += c * b[j]
            acc = acc / dens[l]
            if l and base != 1:
                acc = acc / mp.mpf(base) ** l
            out.append(acc)
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
