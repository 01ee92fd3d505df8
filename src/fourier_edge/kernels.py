"""Periodized Bernoulli jump kernels and their Fourier data.

The order-l kernel attached to an anchor x0 is the degree-(l+1) Bernoulli
polynomial rescaled to one period and extended 2pi-periodically from
[x0, x0 + 2pi).  Its l-th derivative has a unit jump at the anchor and all
lower derivatives are continuous, which is what makes linear combinations of
these kernels carry the entire discontinuity structure of a piecewise-smooth
function.  Fourier coefficients are available in closed form.

Bernoulli numbers and polynomial coefficients are exact `Fraction` values
(first convention, B_1 = -1/2); floating evaluations convert the exact
coefficients once per working precision and run Horner on top.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .numerics import ArithmeticContext

# i**m for m mod 4; avoids repeated complex powers in coefficient formulas.
_I_POW = (1, 1j, -1, -1j)


@lru_cache(maxsize=None)
def bernoulli_coeffs(n: int) -> tuple:
    """Ascending exact coefficients of B_n(t): entry j multiplies t**j.

    B_n(t) = sum_k C(n, k) B_k t^(n-k), with the Bernoulli numbers
    B_k = B_k(0) from sum_{j<=k} C(k+1, j) B_j = 0, so identities like
    B_n(0) = B_n(1) for n != 1 and B_n'(t) = n B_{n-1}(t) hold exactly.
    """
    if n < 0:
        raise ValueError(f"Bernoulli order must be >= 0, got {n}")
    if n == 0:
        return (Fraction(1),)
    numbers = [bernoulli_coeffs(k)[0] for k in range(n)]
    numbers.append(
        -sum(math.comb(n + 1, j) * b for j, b in enumerate(numbers)) / (n + 1)
    )
    return tuple(math.comb(n, j) * numbers[n - j] for j in range(n + 1))


@lru_cache(maxsize=None)
def _mpf_coeffs(n: int, prec: int) -> tuple:
    """:func:`bernoulli_coeffs` rounded to ``prec`` bits, highest order first.

    The ground truth evaluates kernels at every point, so the fractions are
    converted once per precision, not once per call.
    """
    with mp.workprec(prec):
        return tuple(
            mp.mpf(c.numerator) / c.denominator
            for c in reversed(bernoulli_coeffs(n))
        )


def bernoulli_poly(n: int, t):
    """B_n(t) by Horner on :func:`bernoulli_coeffs`.

    Exact Fraction for rational t; otherwise an mpf at the caller's working
    precision.
    """
    if isinstance(t, (int, Fraction)):
        acc = Fraction(0)
        for c in reversed(bernoulli_coeffs(n)):
            acc = acc * t + c
        return acc
    acc = mp.mpf(0)
    tm = mp.mpf(t)
    for c in _mpf_coeffs(n, mp.prec):
        acc = acc * tm + c
    return acc


def _wrap_offset(x, x0):
    """x - x0 reduced into [0, 2pi); callers hold the precision context."""
    t = mp.mpf(x) - mp.mpf(x0)
    two_pi = 2 * mp.pi
    t = t - two_pi * mp.floor(t / two_pi)
    if t >= two_pi:  # guard the half-open edge against rounding
        t -= two_pi
    if t < 0:
        t += two_pi
    return t


@lru_cache(maxsize=256)
def kernel_scale(l: int, dps: int):
    """-(2pi)^l / (l+1)! as an mpf at `dps` digits, cached per order."""
    with mp.workdps(dps):
        return -((2 * mp.pi) ** l) / mp.factorial(l + 1)


def v_kernel(l: int, x0, x, ctx: ArithmeticContext):
    """Order-l periodized Bernoulli kernel anchored at x0, evaluated at x.

    Value is -(2pi)^l / (l+1)! * B_{l+1}((x - x0)/2pi) with the argument
    wrapped into [x0, x0 + 2pi), so the value AT the anchor is the
    right-sided limit.  Real mpf result.
    """
    if l < 0:
        raise ValueError(f"kernel order must be >= 0, got {l}")
    with ctx.workprec():
        t = _wrap_offset(x, x0)
        u = t / (2 * mp.pi)
        scale = kernel_scale(l, ctx.precision_digits)
        return scale * bernoulli_poly(l + 1, u)


def v_fourier_coeff(l: int, x0, k: int, ctx: ArithmeticContext):
    """k-th Fourier coefficient of the order-l kernel anchored at x0.

    Zero mean: returns 0 for k = 0.  Otherwise
    exp(-i k x0) / (2pi (ik)^(l+1)), returned as mpc.
    """
    if l < 0:
        raise ValueError(f"kernel order must be >= 0, got {l}")
    with ctx.workprec():
        if k == 0:
            return mp.mpc(0)
        phase = mp.expj(-k * mp.mpf(x0))
        denom = mp.mpc(_I_POW[(l + 1) % 4]) * mp.mpf(k) ** (l + 1)
        return phase / (2 * mp.pi * denom)
