"""Synthetic 1D piecewise-smooth models and their Fourier coefficients.

A model is one interior jump point carrying a finite stack of jump-kernel
magnitudes, plus a bandlimited smooth background: a ``TrigBackground``,
the zero polynomial when none is given.  Coefficients
are synthesized in closed form on the fixed-point integers of
:mod:`fourier_edge.numerics`; the independent checks are the mpc closed form
``kernels.v_fourier_coeff`` and the quadrature oracles of
:mod:`fourier_edge.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from .kernels import v_kernel
from .numerics import (
    ArithmeticContext,
    _fixed_expj,
    _fixed_horner_pair,
    _fixed_pairs,
    _fixed_powers,
    _fixed_shift,
    _from_fixed,
    _guard_bits,
    _mpc_parts,
    _over_two_pi,
)


def _trig_eval(coeffs, x):
    """Real trig polynomial with coefficients g_0..g_K (g_{-k} = conj g_k)
    at x, under the caller's precision."""
    xm = mp.mpf(x)
    acc = mp.re(coeffs[0]) + 0  # converted exactly, then rounded once
    for k in range(1, len(coeffs)):
        acc += 2 * (mp.mpc(coeffs[k]) * mp.expj(k * xm)).real
    return acc


@dataclass(frozen=True)
class TrigBackground:
    """Real trig polynomial stored by its nonnegative-frequency coefficients.

    ``coeffs[k]`` is the Fourier coefficient g_k for k = 0..K_g; negative
    frequencies are implied by conjugate symmetry (the function is real).
    g_0 must be real.  Coefficient values may be any numeric type mpmath can
    convert, including strings for high-precision constants.
    """

    coeffs: tuple

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("TrigBackground needs at least g_0")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if complex(mp.mpc(self.coeffs[0])).imag != 0:
            raise ValueError(f"g_0 must be real, got {self.coeffs[0]}")

    @property
    def bandwidth(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        """g_k for any integer k (0 outside the band).  mpc under caller prec."""
        a = abs(k)
        if a > self.bandwidth:
            return mp.mpc(0)
        g = mp.mpc(self.coeffs[a])
        return mp.conj(g) if k < 0 else g

    def eval(self, x, ctx: ArithmeticContext):
        """Pointwise value; real by construction."""
        with ctx.workprec():
            return _trig_eval(self.coeffs, x)


def _outside_period(xi) -> bool:
    """Whether xi lies outside [-pi, pi), with pi at the precision xi carries
    (an mpf's mantissa, 4 bits a character of a string, 53 bits at least)."""
    raw = getattr(xi, "_mpf_", None)
    prec = raw[3] if raw else 4 * len(xi) if isinstance(xi, str) else 0
    with mp.workprec(max(53, prec)):
        return not -mp.pi <= mp.mpf(xi) < mp.pi


@dataclass(frozen=True)
class JumpModel1D:
    """One jump at xi in [-pi, pi) with real kernel magnitudes A_0..A_d,
    plus the TrigBackground ``smooth`` (``None`` is stored as ``(0,)``).

    ``magnitudes`` may be empty for a smooth-only model (useful for oracle
    cross-checks).  xi is compared with pi by :func:`_outside_period`, so a
    value rounding to pi is refused.
    """

    xi: float
    magnitudes: tuple
    smooth: TrigBackground = TrigBackground((0,))

    def __post_init__(self) -> None:
        if _outside_period(self.xi):
            raise ValueError(f"jump location {self.xi} outside [-pi, pi)")
        object.__setattr__(self, "magnitudes", tuple(self.magnitudes))
        if self.smooth is None:
            object.__setattr__(self, "smooth", TrigBackground((0,)))

    @property
    def d(self) -> int:
        """Highest kernel order present (-1 for smooth-only)."""
        return len(self.magnitudes) - 1


@dataclass(frozen=True)
class CoeffVector1D:
    """Fourier coefficients c_k for |k| <= M, stored k = -M..M."""

    M: int
    values: tuple

    def __post_init__(self) -> None:
        if self.M < 0:
            raise ValueError(f"M must be >= 0, got {self.M}")
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != 2 * self.M + 1:
            raise ValueError(
                f"expected {2 * self.M + 1} values for M={self.M}, "
                f"got {len(self.values)}"
            )

    def c(self, k: int):
        if abs(k) > self.M:
            raise ValueError(f"|k|={abs(k)} exceeds M={self.M}")
        return self.values[k + self.M]


def eval_model(m: JumpModel1D, x, ctx: ArithmeticContext):
    """Pointwise model value (right-continuous at the jump).  Real mpf."""
    with ctx.workprec():
        acc = _trig_eval(m.smooth.coeffs, x)
        for l, a in enumerate(m.magnitudes):
            if a != 0:
                acc += mp.mpf(a) * v_kernel(l, m.xi, x, ctx)
        return acc


def synth_coeffs(m: JumpModel1D, M: int, ctx: ArithmeticContext) -> CoeffVector1D:
    """Closed-form coefficients for |k| <= M.

    For k > 0 the jump part exp(-ik xi) / 2pi * sum_l A_l / (ik)^(l+1) runs
    on Python-int fixed point: the magnitudes, 1/2pi folded in, converted
    once; the phases from the power recurrence with step exp(-i xi); the
    sum as the +k half of the paired Horner pass in u = -i/k.  Guard bits
    cover the recurrence and the factor k^-(d+1) by which the sum may fall
    below the largest magnitude.
    Each c_k is rounded once, then the background's g_k is added.  c_0 is
    the background mean (the kernels are zero-mean), and negative
    frequencies are mirrored by conjugation, so the vector is exactly
    conjugate-symmetric (the model is real).

    Raises
    ------
    ValueError
        If M < 0, or a magnitude or background coefficient is NaN or
        infinite (naming it).
    """
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    with ctx.workprec():
        wp = mp.prec + _guard_bits(M) + len(m.magnitudes) * M.bit_length()
        mags = _over_two_pi(_mpc_parts(m.magnitudes, "magnitude A_", 0), wp)
        _mpc_parts(m.smooth.coeffs, "background coefficient g_", 0)
        shift = _fixed_shift(mags, wp)
        stack = _fixed_pairs(mags, shift)
        sr, si = _fixed_expj(mp.mpf(m.xi)._mpf_, wp)
        phases = _fixed_powers((1 << wp, 0), (sr, -si), M, wp)  # exp(-ik xi)
        pos = [mp.mpc(m.smooth.coeff(0).real)]
        for k, (pr, pi_) in enumerate(phases, 1):
            tr, ti = _fixed_horner_pair(stack, k)[0]
            pos.append(m.smooth.coeff(k) + _from_fixed(
                (pr * tr - pi_ * ti) >> wp, (pr * ti + pi_ * tr) >> wp, shift
            ))
        vals = [mp.conj(pos[-k]) for k in range(-M, 0)] + pos
        return CoeffVector1D(M, tuple(vals))
