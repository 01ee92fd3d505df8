"""Reconstruction of a 1D piecewise-smooth function from Fourier data.

The pipeline separates a single interior jump (location + kernel magnitudes
up to order d) from a smooth remainder using only the coefficients
c_k, |k| <= M:

1. scaled moments  mtilde_k = 2pi (ik)^(d+1) c_k;
2. a coarse jump estimate from consecutive top indices at half order
   (conditioning-friendly, accuracy only O(M^-2)-ish, used as a branch hint);
3. full-order localization from decimated indices (j+1)N_1 via the root of
   an annihilation polynomial, with the hint selecting among the N_1
   possible arguments;
4. kernel magnitudes from a scaled Vandermonde system at the same nodes,
   whose right-hand side mtilde_k kappa^-k is built on fixed-point ints
   and solved by an exact integer inverse, one rounding per magnitude;
5. a residual coefficient vector representing the smooth remainder.

The jump-known variant (anchor fixed, e.g. at -pi for slice rows of a 2D
problem) skips localization and uses d+1 decimated nodes jM_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from mpmath import mp
from mpmath.libmp import from_int, mpf_mul, mpf_neg, mpf_pi, mpf_sub, to_fixed

from .kernels import _I_POW, bernoulli_coeffs
from .model1d import CoeffVector1D
from .numerics import (
    ArithmeticContext,
    _check_residual,
    _fixed_expj,
    _fixed_horner,
    _fixed_shift,
    _fixed_stack,
    _from_fixed,
    _guard_bits,
    _mpc_parts,
    _over_two_pi,
    poly_roots,
    polish_root,
    vandermonde_solve,
)

# A candidate root counts as "near the unit circle" within this band.
_CIRCLE_BAND = 0.5
# Residual bound of the unpolished half-order root, relative to
# max|c_j| max(1, |z|)^n: a float64 Aberth root passes it with room.
_HINT_TOL = 1e-10
# Magnitudes A_0..A_15 use Bernoulli orders 1..16, the table over which the
# guard bits of the fixed-point kernel stack are checked.
_MAX_MAGNITUDES = 16


class ReconstructionError(Exception):
    """Base class for typed reconstruction failures."""


class LocalizationError(ReconstructionError):
    """No usable root near the unit circle, or decimation infeasible."""


def _check_order(d: int) -> None:
    """Refuse a reconstruction order before any work: ValueError for d < 0,
    ReconstructionError beyond the kernel table (d <= 15)."""
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    if d >= _MAX_MAGNITUDES:
        raise ReconstructionError(
            f"order d={d} is beyond the kernel table: d <= {_MAX_MAGNITUDES - 1}"
        )


def moments(
    c: CoeffVector1D, indices, order: int, ctx: ArithmeticContext
) -> tuple:
    """Scaled moments mtilde_k = 2pi (ik)^(order+1) c_k at the given indices,
    as a tuple of mpc values in the order of ``indices``.

    Parameters
    ----------
    c : CoeffVector1D
    indices : iterable of int
        Nonzero frequencies with |k| <= c.M.
    order : int
        Scaling order; the factor is 2pi (ik)^(order+1).

    Raises
    ------
    ValueError
        If any index is 0 (the zero mode carries no jump information and the
        scaling is singular there) or outside the stored band.
    """
    idx = tuple(int(k) for k in indices)
    if any(k == 0 for k in idx):
        raise ValueError("moment index 0 is outside the scaling domain")
    with ctx.workprec():
        two_pi = 2 * mp.pi
        vals = []
        for k in idx:
            ik_pow = mp.mpc(_I_POW[(order + 1) % 4]) * mp.mpf(k) ** (order + 1)
            vals.append(two_pi * ik_pow * mp.mpc(c.c(k)))
        return tuple(vals)


@dataclass(frozen=True)
class HalfOrderEstimate:
    """Coarse jump estimate used as the branch-selection hint."""

    kappa_h: object  # mpc on the unit circle
    xi_h: object  # mpf in [-pi, pi)
    d1: int
    circle_distance: float
    root_sweeps: int = 0


def _circle_root(mom: tuple, ctx: ArithmeticContext, polish: bool):
    """Root of the annihilation polynomial of ``mom`` closest to the unit circle.

    The polynomial is sum_j (-1)^j C(deg, j) mom[j] u^(deg-j) with
    deg = len(mom) - 1.  The root is picked among the float64-level
    roots of :func:`poly_roots`.  With ``polish`` it is then refined by
    :func:`polish_root` at full precision under ``ctx.root_tol()``;
    without, it must pass a residual bound sized for float64.  Returns
    (z, dist, root_diag): the root, its distance | |z| - 1 |, and the
    Aberth sweep count as ``root_sweeps`` plus, with ``polish``, the Newton
    step count as ``root_newton_steps``.  Callers hold the working
    precision of ``ctx``.

    Raises
    ------
    LocalizationError
        If the polynomial has no roots, or none lies within the circle band.
    RootFindingError
        If the root fails its residual bound.
    """
    deg = len(mom) - 1
    coeffs = [mp.mpc(0)] * (deg + 1)
    for j in range(deg + 1):
        sign = -1 if j % 2 else 1
        coeffs[deg - j] = sign * math.comb(deg, j) * mom[j]
    roots, sweeps = poly_roots(coeffs, ctx)
    if not roots:
        raise LocalizationError("degenerate annihilation polynomial")
    z = min(roots, key=lambda r: abs(abs(r) - 1))
    root_diag = {"root_sweeps": sweeps}
    if polish:
        z, root_diag["root_newton_steps"] = polish_root(coeffs, z, ctx)
    else:
        _check_residual(coeffs, z, _HINT_TOL)
    dist = abs(abs(z) - 1)
    if dist > _CIRCLE_BAND:
        raise LocalizationError(
            f"closest root modulus {mp.nstr(abs(z), 6)} outside circle band"
        )
    return z, dist, root_diag


def half_order_localize(
    c: CoeffVector1D,
    d1: int,
    ctx: ArithmeticContext,
) -> HalfOrderEstimate:
    """Jump location from consecutive indices at reduced order d1.

    Builds the annihilation polynomial
    sum_j (-1)^j C(d1+1, j) mtilde_{k0+j} u^(d1+1-j)
    on the d1+2 consecutive indices starting at k0 = M - d1 - 1, the top of
    the band, with moments scaled at order d1.  For a model whose
    jump stack has order exactly d1 and no smooth part the true
    kappa = exp(-i xi) is an exact root; in general the estimate carries an
    O(k0^-1) relative moment perturbation and is only a hint.  The root is
    kept at float64 accuracy, which is ample for picking a branch.

    Raises
    ------
    LocalizationError
        If the band cannot host the index window, or no root lies within
        0.5 of the unit circle in modulus.
    """
    if d1 < 0:
        raise ValueError(f"d1 must be >= 0, got {d1}")
    k0 = c.M - d1 - 1
    if k0 < 1:
        raise LocalizationError(
            f"band M={c.M} cannot host consecutive window at k0={k0}, d1={d1}"
        )
    mom = moments(c, range(k0, k0 + d1 + 2), d1, ctx)
    with ctx.workprec():
        z, dist, root_diag = _circle_root(mom, ctx, polish=False)
        kappa = z / abs(z)
        xi = -mp.arg(kappa)
        if xi >= mp.pi:  # canonical half-open wrap
            xi -= 2 * mp.pi
        return HalfOrderEstimate(kappa, xi, d1, float(dist), **root_diag)


def full_order_localize(
    c: CoeffVector1D,
    d: int,
    hint: HalfOrderEstimate | None,
    ctx: ArithmeticContext,
):
    """Full-order jump localization from decimated moments.

    Uses indices (j+1)N_1, j = 0..d+1 with N_1 = floor(M / (d+2)).
    The closest-to-circle root z of the annihilation polynomial, polished
    at full precision, approximates kappa^(N_1); its N_1-th roots
    exp(i (arg z + 2pi r) / N_1) are the candidate branches, and the hint
    picks the one nearest in angle: r = round((N_1 arg kappa_h - arg z) /
    2pi) mod N_1.  With N_1 = 1 there is one branch and ``hint`` may be
    None.  The chosen branch lies within pi/N_1 of the hint by construction
    (diagnostics["branch_gap"]), so a hint that is off by more than that
    picks a wrong branch without notice.

    Returns
    -------
    (kappa_tilde, xi_tilde, diagnostics) with kappa_tilde on the unit
    circle, xi_tilde = -arg(kappa_tilde) in [-pi, pi).

    Raises
    ------
    LocalizationError
        If N_1 < 1 (band too short for the order) or no root is near the
        unit circle.
    ValueError
        If ``hint`` is None while N_1 > 1.
    """
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    N1 = c.M // (d + 2)
    if N1 < 1:
        raise LocalizationError(
            f"decimation infeasible: M={c.M} < d+2={d + 2}"
        )
    if hint is None and N1 > 1:
        raise ValueError(f"a hint must pick one of N1 = {N1} branches")
    mom = moments(c, [(j + 1) * N1 for j in range(d + 2)], d, ctx)
    with ctx.workprec():
        z, dist, root_diag = _circle_root(mom, ctx, polish=True)
        theta = mp.arg(z)
        r, gap = 0, mp.mpf(0)
        if hint is not None:
            # candidate r lies 2pi (r - t) / N1 from the hint in angle
            t = (N1 * mp.arg(hint.kappa_h) - theta) / (2 * mp.pi)
            r = int(mp.nint(t))
            gap = 2 * mp.pi * abs(t - r) / N1
            r %= N1
        best = mp.expj((theta + 2 * mp.pi * r) / N1)
        xi = -mp.arg(best)
        if xi >= mp.pi:
            xi -= 2 * mp.pi
        diagnostics = {
            "N1": N1,
            "circle_distance": float(dist),
            "branch_index": r,
            "branch_gap": float(gap),
            "hint_xi": None if hint is None else float(hint.xi_h),
            **root_diag,
        }
        return best, xi, diagnostics


def solve_magnitudes(
    c: CoeffVector1D,
    d: int,
    kappa_tilde,
    ctx: ArithmeticContext,
    n1: int,
):
    """Kernel magnitudes given the localized jump.

    Solves the scaled Vandermonde system on nodes k = (j+1)N_1, j = 0..d,
    with right-hand side mtilde_k kappa_tilde^-k; unknowns alpha_l map back
    to magnitudes via A_l = (-i)^(d-l) alpha_{d-l}.  The right-hand side is
    fixed point: k^(d+1) c_k formed exactly from the mantissa and truncated
    once, times 2pi i^(d+1) kappa_tilde^-k from one step kappa_tilde^-N_1
    and a recurrence (exact signs at kappa_tilde = -1).
    :func:`vandermonde_solve` rounds each unknown once.  Returns a tuple of
    d+1 mpc values; raises ValueError for a step that does not fit the band
    or a non-finite coefficient at a node.
    """
    if n1 < 1 or (d + 1) * n1 > c.M:
        raise ValueError(f"invalid decimation step n1={n1} for M={c.M}, d={d}")
    with ctx.workprec():
        # max|rhs| <= (d+1) ((d+1) n1)^d max|alpha|: these bits keep its
        # truncation below working precision in every unknown, and the guard
        # bits cover the growth of the inverse
        wp = mp.prec + _guard_bits(c.M) + (d + 1) * ((d + 1) * n1).bit_length()
        scaled = []
        for k in range(n1, (d + 1) * n1 + 1, n1):
            (re, im), = _mpc_parts((c.c(k),), "coefficient c_", k)
            w = from_int(k ** (d + 1))
            scaled.append((mpf_mul(re, w), mpf_mul(im, w)))  # exact
        shift = _fixed_shift(scaled, wp)
        with mp.workprec(wp):
            step = mp.mpc(kappa_tilde) ** -n1
        sr, si = (to_fixed(p, wp) for p in step._mpc_)
        two_pi = to_fixed(mpf_pi(wp + 4), wp + 1)  # phase 2pi i^(d+1) at k = 0
        pr, pi_ = ((two_pi, 0), (0, two_pi), (-two_pi, 0), (0, -two_pi))[(d + 1) % 4]
        rhs = []
        for re, im in scaled:
            pr, pi_ = (pr * sr - pi_ * si) >> wp, (pr * si + pi_ * sr) >> wp
            br, bi = to_fixed(re, shift), to_fixed(im, shift)
            rhs.append(((br * pr - bi * pi_) >> wp, (br * pi_ + bi * pr) >> wp))
        mags = []
        for m, a in enumerate(vandermonde_solve(d, n1, rhs, shift, ctx)):
            re, im = a._mpc_
            for _ in range(m % 4):  # A_{d-m} = (-i)^m alpha_m
                re, im = im, mpf_neg(re)
            mags.append(mp.make_mpc((re, im)))
        return tuple(reversed(mags))


def solve_magnitudes_known_jump(
    c: CoeffVector1D,
    d: int,
    known_xi,
    ctx: ArithmeticContext,
):
    """Magnitudes when the jump location is known a priori.

    Decimates at M_1 = floor(M / (d+1)) (indices jM_1, j = 1..d+1) and
    solves with the known kappa = exp(-i xi), as :func:`solve_magnitudes`
    does with a localized one.  A jump at xi = +-pi (pi at working
    precision) is the period seam, where kappa = -1 exactly; exp(-i xi) of
    the rounded pi would be off by about k 2^-prec in the k-th phase.
    Returns (magnitudes, M_1).
    """
    M1 = c.M // (d + 1)
    if M1 < 1:
        raise LocalizationError(
            f"known-jump decimation infeasible: M={c.M}, d={d}, M1={M1}"
        )
    with ctx.workprec():
        xi = mp.mpf(known_xi)
        kappa = -1 if abs(xi) == mp.pi else mp.expj(-xi)
    return solve_magnitudes(c, d, kappa, ctx, M1), M1


def residual_coeffs(
    c: CoeffVector1D,
    xi_tilde,
    magnitudes_tilde,
    ctx: ArithmeticContext,
) -> tuple:
    """Coefficients of the smooth remainder: c_k minus the jump-part closed form.

    The jump part of c_k is exp(-ik xi) / 2pi * sum_l A_l / (ik)^(l+1) (the
    closed form of v_fourier_coeff).  It is computed on Python-int fixed-point
    values at working precision plus guard bits, scaled to the largest input:
    the phases by the recurrence with step exp(-i xi) (conjugated for k < 0),
    the kernel sum by Horner in u = 1/(ik) = -i/k with 1/2pi folded into the
    magnitudes.  c_0 is returned as given.

    Returns (vector, form): the CoeffVector1D, each value rounded once to
    working precision, and the record's :class:`_FixedForm`, built from the
    unrounded ints, so that large magnitudes cost its evaluation no digits.

    Raises
    ------
    ValueError
        If xi, a coefficient or a magnitude is NaN or infinite.
    """
    with ctx.workprec():
        M = c.M
        wp = mp.prec + _guard_bits(M)
        xi = mp.mpf(xi_tilde)._mpf_
        parts = _mpc_parts(c.values, "coefficient c_", -M)
        mags = _mpc_parts(magnitudes_tilde, "magnitude A_", 0)
        scaled = _over_two_pi(mags, wp)
        shift = _fixed_shift(parts + scaled, wp)
        fixed = [(to_fixed(re, shift), to_fixed(im, shift)) for re, im in parts]
        stack = _fixed_stack(scaled, shift)
        sr, si = _fixed_expj(xi, wp)
        si = -si  # exp(-i xi)
        pr, pi_ = 1 << wp, 0
        for k in range(1, M + 1):
            pr, pi_ = (pr * sr - pi_ * si) >> wp, (pr * si + pi_ * sr) >> wp
            for n, qi in ((k, pi_), (-k, -pi_)):
                tr, ti = _fixed_horner(stack, n)
                cr, ci = fixed[n + M]
                fixed[n + M] = (cr - ((pr * tr - qi * ti) >> wp),
                                ci - ((pr * ti + qi * tr) >> wp))
        vals = [_from_fixed(re, im, shift) for re, im in fixed]
        vals[M] = mp.mpc(c.values[M])
        residual = CoeffVector1D(M, tuple(vals))
        return residual, _FixedForm(residual, xi_tilde, magnitudes_tilde,
                                    (shift, fixed))


@lru_cache(maxsize=8)
def _kernel_table(wp: int) -> tuple:
    """1/2pi and the kernels v_0..v_15 as integer polynomials, at 2^wp.

    Returns (inv_two_pi, table): entry table[l][j] is kernel_scale(l)
    b_{l+1,j}, the coefficient of u^j in v_l for u = wrap(x - xi) / 2pi,
    from the exact Bernoulli tables and (2pi)^l by a fixed-point recurrence.
    """
    two_pi = to_fixed(mpf_pi(wp + 4), wp + 1)
    table = []
    power = 1 << wp  # (2pi)^l
    for l in range(_MAX_MAGNITUDES):
        den = math.factorial(l + 1)
        table.append(tuple(
            -(power * b.numerator) // (b.denominator * den)
            for b in bernoulli_coeffs(l + 1)
        ))
        power = (power * two_pi) >> wp
    return (1 << 2 * wp) // two_pi, tuple(table)


def _partial_sums(x, xi, M: int, n: int) -> list:
    """Partial sums S_M[v_l] of the kernels l < n anchored at xi, evaluated
    at x, as fixed-point ints at 2^wp, where wp is that of a band-M series
    at working precision.

    S_M[v_l] = (1/pi) sum_{k=1..M} Re((-i)^(l+1) e^{ikt}) / k^(l+1),
    t = x - xi, reads sin(kt) for even l and cos(kt) for odd l from one
    phase recurrence in k; the sign of (-i)^(l+1) is folded in.
    """
    t = mpf_sub(mp.mpf(x)._mpf_, mp.mpf(xi)._mpf_)
    wp = mp.prec + _guard_bits(M)
    inv_two_pi = _kernel_table(wp)[0]
    sums = [0] * n
    er, ei = _fixed_expj(t, wp)
    pr, pi_ = 1 << wp, 0
    for k in range(1, M + 1):
        pr, pi_ = (pr * er - pi_ * ei) >> wp, (pr * ei + pi_ * er) >> wp
        q = k
        for l in range(n):
            sums[l] += (pr if l % 2 else pi_) // q
            q *= k
    return [(1 if l % 4 in (0, 3) else -1) * (s * inv_two_pi >> (wp - 1))
            for l, s in enumerate(sums)]  # times 1/pi


def _series_phases(x, M: int) -> tuple:
    """e^{ix} and e^{-iMx} of the raw mpf x, with M x formed exactly, as
    fixed-point pairs at the 2^wp of a band-M series."""
    wp = mp.prec + _guard_bits(M)
    return _fixed_expj(x, wp), _fixed_expj(mpf_mul(x, from_int(-M)), wp)


class _FixedForm:
    """Residual series plus kernel stack, prepared for evaluation at the
    working precision of its construction (``prec``).

    The residual c_-M..c_M and the stack sum_l A_l v_l, a polynomial of
    degree d+1 in u = wrap(x - xi) / 2pi whose coefficients
    sum_l A_l kernel_scale(l) b_{l+1,j} come from the exact Bernoulli
    tables, are held as Python-int fixed-point values at working precision
    plus guard bits, at one scale set by the largest coefficient or
    magnitude.  Without magnitudes it is the plain truncated series.
    ``amps`` keeps the magnitudes as fixed-point pairs at that scale.
    ``fixed``, (shift, pairs), gives the residual as fixed-point pairs
    c_-M..c_M at 2^shift in place of ``residual``, which they round to; such
    a form keeps (residual, xi, magnitudes) as ``fields``.

    Raises
    ------
    ValueError
        If xi, a coefficient or a magnitude is NaN or infinite, or if there
        are more than 16 magnitudes (the Bernoulli table ends at order 16).
    """

    __slots__ = ("prec", "wp", "shift", "M", "re", "im", "xi", "inv_two_pi",
                 "amps", "stack", "fields")

    def __init__(self, residual: CoeffVector1D, xi=None, magnitudes=(),
                 fixed=None):
        self.prec = mp.prec
        self.M = M = residual.M
        self.wp = wp = mp.prec + _guard_bits(M)
        self.fields = None if fixed is None else (residual, xi, magnitudes)
        mags = _mpc_parts(magnitudes, "magnitude A_", 0)
        if fixed is None:
            parts = _mpc_parts(residual.values, "coefficient c_", -M)
            shift = _fixed_shift(parts + mags, wp)
            fixed = shift, [(to_fixed(re, shift), to_fixed(im, shift))
                            for re, im in parts]
        shift, pairs = fixed
        self.shift = shift
        # Horner in e^{ix} runs from c_M down to c_-M; two lists of ints, not
        # a list of pairs, keep a W3 row stage about 0.4 MB smaller
        self.re = [re for re, _ in reversed(pairs)]
        self.im = [im for _, im in reversed(pairs)]
        self.xi = self.inv_two_pi = None
        self.amps = tuple((to_fixed(re, shift), to_fixed(im, shift))
                          for re, im in mags)
        self.stack = ()
        if not mags:
            return
        if len(mags) > _MAX_MAGNITUDES:
            raise ValueError(f"{len(mags)} magnitudes: the Bernoulli table "
                             f"ends at order {_MAX_MAGNITUDES}")
        self.xi = mp.mpf(xi)._mpf_
        if not self.xi[1] and self.xi[2]:  # NaN or infinite, as in _mpc_parts
            raise ValueError(f"non-finite location xi: {xi}")
        self.inv_two_pi, table = _kernel_table(wp)
        # stack[j] = sum_l A_l kernel_scale(l) b_{l+1,j}: A_l at 2^shift
        # times the table entry at 2^wp, one shift per coefficient
        stack = [[0, 0] for _ in range(len(mags) + 1)]
        for (ar, ai), row in zip(self.amps, table):
            for j, t in enumerate(row):
                stack[j][0] += ar * t
                stack[j][1] += ai * t
        self.stack = [(re >> wp, im >> wp) for re, im in reversed(stack)]

    def value(self, x, extra=(0, 0), phases=None):
        """Value at x, rounded once to working precision; caller holds
        the precision of the form.

        One wrap u = (x - xi) / 2pi mod 1 of the exact difference, so u = 0
        at the anchor gives the right-sided limit; integer Horner in u over
        the stack; Horner in z = e^{ix} over the series, then one multiply
        by e^{-iMx}.  ``extra``, a fixed-point pair at the form's scale, is
        added before the rounding.  ``phases`` are those of
        :func:`_series_phases` at x, when the caller has taken them.
        """
        x = mp.mpf(x)._mpf_
        if not x[1] and x[2]:
            raise ValueError(f"non-finite evaluation point {mp.mpf(x)}")
        wp = self.wp
        ar = ai = 0
        if self.stack:
            t = to_fixed(mpf_sub(x, self.xi), wp)
            u = (t * self.inv_two_pi >> wp) & ((1 << wp) - 1)
            for cr, ci in self.stack:
                ar = ((ar * u) >> wp) + cr
                ai = ((ai * u) >> wp) + ci
        (zr, zi), (er, ei) = phases or _series_phases(x, self.M)
        sr = si = 0
        for cr, ci in zip(self.re, self.im):
            sr, si = (
                ((sr * zr - si * zi) >> wp) + cr,
                ((sr * zi + si * zr) >> wp) + ci,
            )
        return _from_fixed(
            ar + extra[0] + ((sr * er - si * ei) >> wp),
            ai + extra[1] + ((sr * ei + si * er) >> wp),
            self.shift,
        )


@dataclass(frozen=True)
class Reconstruction1D:
    """Immutable result of a 1D reconstruction.

    ``magnitudes_tilde`` are mpc (near-real for real input data);
    ``residual`` is the smooth-part coefficient vector; ``diagnostics`` is a
    JSON-friendly dict (floats/ints/strings only).  :func:`evaluate_complex`
    uses ``_form``, kept if it was made for these fields (as by
    :func:`reconstruct1d`), else built from them under the precision then in
    force.
    """

    xi_tilde: object
    magnitudes_tilde: tuple
    residual: CoeffVector1D
    d: int
    known_jump: bool
    diagnostics: dict = field(compare=False, default_factory=dict)
    _form: _FixedForm = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        form = self._form
        fields = (self.residual, self.xi_tilde, self.magnitudes_tilde)
        if form is None or form.fields != fields:
            form = _FixedForm(*fields)
        object.__setattr__(self, "_form", form)


def evaluate_complex(rec: Reconstruction1D, x, ctx: ArithmeticContext):
    """Reconstructed value at x: residual series plus recovered kernel stack.

    Uses the record's fixed-point form, or a new one when the record was
    built at another precision than that of ``ctx``.
    """
    with ctx.workprec():
        form = rec._form
        if form.prec != mp.prec:
            form = _FixedForm(rec.residual, rec.xi_tilde, rec.magnitudes_tilde)
        return form.value(x)


def evaluate(rec: Reconstruction1D, x, ctx: ArithmeticContext):
    """Real part of the reconstructed value (models are real)."""
    return evaluate_complex(rec, x, ctx).real


def reconstruct1d(
    c: CoeffVector1D,
    d: int,
    ctx: ArithmeticContext,
    known_jump=None,
) -> Reconstruction1D:
    """One-call pipeline: localize (unless known), solve magnitudes, residual.

    ``diagnostics["imag_residue"]`` records an imaginary-residue probe: the
    largest |Im| of the reconstruction at eight points of the period.

    Parameters
    ----------
    c : CoeffVector1D
    d : int
        Reconstruction order (kernel stack height - 1).
    known_jump : optional
        If given, the jump location is taken as known (no localization);
        pass a value constructed at working precision when exactness at the
        anchor matters.

    Raises
    ------
    ReconstructionError
        When d exceeds the kernel table (d <= 15), before any work.
    LocalizationError
        Propagated from the localization stages.
    """
    _check_order(d)
    with ctx.workprec():
        if known_jump is not None:
            mags, M1 = solve_magnitudes_known_jump(c, d, known_jump, ctx)
            xi = mp.mpf(known_jump)
            diagnostics = {"stage": "known-jump", "M1": M1, "d": d}
        else:
            diagnostics = {"stage": "full", "d": d}
            hint = None
            if c.M // (d + 2) > 1:  # N1 = 1 has one branch: no hint needed
                hint = half_order_localize(c, d // 2, ctx)
                diagnostics["d1"] = hint.d1
                diagnostics["half_root_sweeps"] = hint.root_sweeps
            kappa, xi, loc_diag = full_order_localize(c, d, hint, ctx)
            mags = solve_magnitudes(c, d, kappa, ctx, loc_diag["N1"])
            diagnostics.update(loc_diag)
        residual, form = residual_coeffs(c, xi, mags, ctx)
        rec = Reconstruction1D(
            xi_tilde=xi,
            magnitudes_tilde=mags,
            residual=residual,
            d=d,
            known_jump=known_jump is not None,
            diagnostics=diagnostics,
            _form=form,
        )
        diagnostics["imag_residue"] = max(
            float(abs(rec._form.value(-mp.pi + mp.pi * q / 4).imag))
            for q in range(8)
        )
        return rec
