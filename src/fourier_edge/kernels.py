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

__all__ = [
    "BernoulliBasis",
    "bernoulli_poly",
    "kernel_scale",
    "v_kernel",
    "v_fourier_coeff",
]

# i**m for m mod 4; avoids repeated complex powers in coefficient formulas.
_I_POW = (1, 1j, -1, -1j)


@lru_cache(maxsize=4)
def _bernoulli_numbers(count: int) -> tuple:
    """First `count` Bernoulli numbers B_0..B_{count-1} as Fractions."""
    bs = [Fraction(1)]
    for m in range(1, count):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bs[j]
        bs.append(-acc / (m + 1))
    return tuple(bs)


class BernoulliBasis:
    """Exact Bernoulli polynomial table up to a fixed maximal degree.

    Coefficients come from B_n(t) = sum_k C(n, k) B_k t^(n-k) with exact
    rational Bernoulli numbers, so identities like B_n(0) = B_n(1) for
    n != 1 and B_n'(t) = n B_{n-1}(t) hold exactly on the stored tables.
    """

    def __init__(self, max_order: int = 16):
        if max_order < 0:
            raise ValueError(f"max_order must be >= 0, got {max_order}")
        self.max_order = max_order
        self._numbers = _bernoulli_numbers(max_order + 1)
        # _coeffs[n][j] multiplies t**j in B_n(t).
        self._coeffs = []
        for n in range(max_order + 1):
            row = [Fraction(0)] * (n + 1)
            for k in range(n + 1):
                row[n - k] = math.comb(n, k) * self._numbers[k]
            self._coeffs.append(tuple(row))
        self._mpf_cache: dict = {}

    def number(self, n: int) -> Fraction:
        if not 0 <= n <= self.max_order:
            raise ValueError(f"n={n} outside 0..{self.max_order}")
        return self._numbers[n]

    def poly_coeffs(self, n: int) -> tuple:
        """Ascending exact coefficients of B_n(t)."""
        if not 0 <= n <= self.max_order:
            raise ValueError(f"n={n} outside 0..{self.max_order}")
        return self._coeffs[n]

    def eval_exact(self, n: int, t: Fraction) -> Fraction:
        """B_n(t) for rational t, exactly."""
        acc = Fraction(0)
        for c in reversed(self.poly_coeffs(n)):
            acc = acc * t + c
        return acc

    def eval_mpf(self, n: int, t, ctx: ArithmeticContext):
        """B_n(t) by Horner at the context precision."""
        key = (n, ctx.precision_digits)
        with ctx.workprec():
            coeffs = self._mpf_cache.get(key)
            if coeffs is None:
                coeffs = tuple(
                    mp.mpf(c.numerator) / c.denominator
                    for c in self.poly_coeffs(n)
                )
                self._mpf_cache[key] = coeffs
            acc = mp.mpf(0)
            tm = mp.mpf(t)
            for c in reversed(coeffs):
                acc = acc * tm + c
            return acc


_BASIS = BernoulliBasis(16)


def bernoulli_poly(n: int, t, ctx: ArithmeticContext | None = None):
    """B_n(t): exact Fraction for rational t, mpf otherwise.

    Orders above the shared table (n > 16) get a dedicated basis; callers in
    this package never need them but the function stays total.
    """
    basis = _BASIS if n <= _BASIS.max_order else BernoulliBasis(n)
    if isinstance(t, (int, Fraction)):
        return basis.eval_exact(n, Fraction(t))
    return basis.eval_mpf(n, t, ctx or ArithmeticContext())


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


def v_kernel(l: int, x0, x, ctx: ArithmeticContext | None = None):
    """Order-l periodized Bernoulli kernel anchored at x0, evaluated at x.

    Value is -(2pi)^l / (l+1)! * B_{l+1}((x - x0)/2pi) with the argument
    wrapped into [x0, x0 + 2pi), so the value AT the anchor is the
    right-sided limit.  Real mpf result.
    """
    if l < 0:
        raise ValueError(f"kernel order must be >= 0, got {l}")
    ctx = ctx or ArithmeticContext()
    with ctx.workprec():
        t = _wrap_offset(x, x0)
        u = t / (2 * mp.pi)
        scale = kernel_scale(l, ctx.precision_digits)
        return scale * _BASIS.eval_mpf(l + 1, u, ctx)


def v_fourier_coeff(l: int, x0, k: int, ctx: ArithmeticContext | None = None):
    """k-th Fourier coefficient of the order-l kernel anchored at x0.

    Zero mean: returns 0 for k = 0.  Otherwise
    exp(-i k x0) / (2pi (ik)^(l+1)), returned as mpc.
    """
    if l < 0:
        raise ValueError(f"kernel order must be >= 0, got {l}")
    ctx = ctx or ArithmeticContext()
    with ctx.workprec():
        if k == 0:
            return mp.mpc(0)
        phase = mp.expj(-k * mp.mpf(x0))
        denom = mp.mpc(_I_POW[(l + 1) % 4]) * mp.mpf(k) ** (l + 1)
        return phase / (2 * mp.pi * denom)
