"""Reconstruction of a 1D piecewise-smooth function from Fourier data.

The pipeline separates a single interior jump (location + kernel magnitudes
up to order d) from a smooth remainder using only the coefficients
c_k, |k| <= M:

1. scaled moments k^(d+1) c_k, formed exactly (:func:`moments`); the
   paper's mtilde_k = 2pi (ik)^(d+1) c_k differs by a factor common to all k;
2. a branch hint from :func:`_localize`, the root nearest the unit circle
   of the annihilation polynomial on an index window k0 + j s, which is
   kappa^s for any k0: at half order d1 = floor(d/2) on the consecutive top
   window (s = 1), kept at float64 accuracy;
3. the same root at full order d on the decimated window (j+1)N_1
   (k0 = s = N_1), polished to working precision, the hint selecting one
   of its N_1 branches;
4. kernel magnitudes from a scaled Vandermonde system at the same nodes,
   whose right-hand side mtilde_k kappa^-k is built on fixed-point ints from
   the same moments and solved by the exact integer inverse of the Lagrange
   basis, one rounding per magnitude;
5. a residual coefficient vector representing the smooth remainder, kept
   as the fixed-point ints of the record's evaluation form and rounded at
   the record's precision when it is first read.

A real evaluation (:func:`evaluate`) computes the real part alone: one
Clenshaw chain over the folded series, not the two of a complex value.

The rows of a 2D grid have their only jump at the known period seam -pi:
:func:`solve_magnitudes_known_jump` solves their magnitudes without
localization, on d+1 decimated nodes jM_1, and the 2D row stage
(:mod:`fourier_edge.recon2d`) evaluates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

from mpmath import mp
from mpmath.libmp import (from_int, from_man_exp, mpf_mul, mpf_neg, mpf_pi,
                          mpf_sub, round_nearest, to_fixed)

from .kernels import bernoulli_coeffs
from .model1d import CoeffVector1D
from .numerics import (
    ArithmeticContext,
    _check_residual,
    _fixed_expj,
    _fixed_horner_pair,
    _fixed_pairs,
    _fixed_powers,
    _fixed_shift,
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
    """Scaled moments k^(order+1) c_k at the given indices, as raw (re, im)
    mpf pairs in the order of ``indices``, formed exactly from the mantissa
    of c_k (rounded to working precision only if it is wider).

    The paper's moment 2pi (ik)^(order+1) c_k differs by a factor common to
    every index: it moves no root of an annihilation polynomial, and
    :func:`solve_magnitudes` applies it in its phases.

    Parameters
    ----------
    c : CoeffVector1D
    indices : iterable of int
        Nonzero frequencies with |k| <= c.M.
    order : int
        Scaling order; the factor is k^(order+1).

    Raises
    ------
    ValueError
        If any index is 0 (the zero mode carries no jump information and the
        scaling is singular there) or outside the stored band, or if a
        coefficient is NaN or infinite, naming it.
    """
    idx = tuple(int(k) for k in indices)
    if any(k == 0 for k in idx):
        raise ValueError("moment index 0 is outside the scaling domain")
    with ctx.workprec():
        pairs = []
        for k in idx:
            (re, im), = _mpc_parts((c.c(k),), "coefficient c_", k)
            w = from_int(k ** (order + 1))
            pairs.append((mpf_mul(re, w), mpf_mul(im, w)))  # exact
        return tuple(pairs)


def _localize(c: CoeffVector1D, order: int, k0: int, step: int, hint,
              ctx: ArithmeticContext, polish: bool):
    """Jump from the annihilation polynomial of the window k0 + j step.

    The polynomial is sum_j (-1)^j C(order+1, j) mtilde_{k0+j step}
    u^(order+1-j), j = 0..order+1, on :func:`moments` at ``order``, its
    coefficients exact products.  kappa^step is a root for any k0, exact for
    a jump stack of order <= ``order`` with no smooth part on the window: the
    sum is the (order+1)-th difference of a polynomial of degree ``order`` in
    j.  Of the float64-level roots of :func:`poly_roots` the one nearest the
    unit circle, z, is kept; with ``polish`` it is refined by
    :func:`polish_root` under ``ctx.root_tol()``, else it must pass a
    residual bound sized for float64.  ``hint``, a kappa (None only when
    step = 1), picks the branch exp(i (arg z + 2pi r) / step) nearest it in
    angle, r = round((step arg hint - arg z) / 2pi) mod step; that branch
    lies within pi/step of the hint by construction (``branch_gap``), so a
    hint off by more picks a wrong one without notice.

    Returns (kappa, xi, diagnostics): kappa on the unit circle, xi =
    -arg(kappa) in [-pi, pi), and the step as ``N1``, | |z| - 1 | as
    ``circle_distance``, r as ``branch_index``, ``branch_gap``, ``hint_xi``,
    the Aberth sweeps as ``root_sweeps`` and, with ``polish``, the Newton
    steps as ``root_newton_steps``.  Raises LocalizationError naming a
    window not inside 1..M, or if no root lies within the circle band;
    RootFindingError if the root fails its residual bound; ValueError for a
    negative order, or for no hint while step > 1.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if k0 < 1 or k0 + (order + 1) * step > c.M:
        raise LocalizationError(f"window {k0} + j*{step}, j = 0..{order + 1},"
                                f" is not inside 1..M={c.M}")
    if hint is None and step > 1:
        raise ValueError(f"a hint must pick one of N1 = {step} branches")
    mom = moments(c, range(k0, k0 + (order + 2) * step, step), order, ctx)
    with ctx.workprec():
        coeffs = []
        for j, (re, im) in enumerate(reversed(mom)):  # u^j takes mom[-1 - j]
            w = from_int((-1) ** (order + 1 - j) * math.comb(order + 1, j))
            coeffs.append(mp.make_mpc((mpf_mul(re, w), mpf_mul(im, w))))
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
        theta = mp.arg(z)
        r, gap = 0, mp.mpf(0)
        if hint is not None:
            # candidate r lies 2pi (r - t) / step from the hint in angle
            t = (step * mp.arg(hint) - theta) / (2 * mp.pi)
            r = int(mp.nint(t))
            gap = 2 * mp.pi * abs(t - r) / step
            r %= step
        kappa = mp.expj((theta + 2 * mp.pi * r) / step)
        return kappa, _xi_of(kappa), {
            "N1": step,
            "circle_distance": float(dist),
            "branch_index": r,
            "branch_gap": float(gap),
            "hint_xi": None if hint is None else float(_xi_of(hint)),
            **root_diag,
        }


def _xi_of(kappa):
    """-arg(kappa), wrapped to the half-open [-pi, pi)."""
    xi = -mp.arg(kappa)
    return xi - 2 * mp.pi if xi >= mp.pi else xi


def half_order_localize(c: CoeffVector1D, d1: int, ctx: ArithmeticContext):
    """Branch hint: :func:`_localize` at order d1 on the d1+2 consecutive
    indices at the top of the band, k0 = M - d1 - 1, step 1.  Kernel orders
    above d1 perturb its moments by O(k0^-1) relatively, so the root is only
    a hint, and it is not polished: it picks one of N_1 branches 2pi/N_1
    apart, for which float64 is ample.  Returns (kappa_h, xi_h, diagnostics).
    """
    return _localize(c, d1, c.M - d1 - 1, 1, None, ctx, polish=False)


def full_order_localize(c: CoeffVector1D, d: int, hint, ctx: ArithmeticContext):
    """Jump location: :func:`_localize` at order d on the decimated indices
    (j+1)N_1, N_1 = floor(M / (d+2)), polished at full precision, with
    ``hint`` the kappa of :func:`half_order_localize` (None when N_1 = 1).
    Returns (kappa_tilde, xi_tilde, diagnostics).
    """
    N1 = c.M // (d + 2)
    return _localize(c, d, N1, N1, hint, ctx, polish=True)


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
    fixed point: the exact :func:`moments` k^(d+1) c_k, truncated once,
    times 2pi i^(d+1) kappa_tilde^-k from one step kappa_tilde^-N_1 and the
    power recurrence (exact signs at kappa_tilde = -1).
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
        scaled = moments(c, range(n1, (d + 1) * n1 + 1, n1), d, ctx)
        shift = _fixed_shift(scaled, wp)
        with mp.workprec(wp):
            step, = _fixed_pairs([(mp.mpc(kappa_tilde) ** -n1)._mpc_], wp)
        two_pi = to_fixed(mpf_pi(wp + 4), wp + 1)  # phase 2pi i^(d+1) at k = 0
        start = ((two_pi, 0), (0, two_pi), (-two_pi, 0), (0, -two_pi))[(d + 1) % 4]
        phases = _fixed_powers(start, step, d + 1, wp)
        rhs = [((br * pr - bi * pi_) >> wp, (br * pi_ + bi * pr) >> wp)
               for (br, bi), (pr, pi_) in zip(_fixed_pairs(scaled, shift), phases)]
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
    ctx: ArithmeticContext,
):
    """Magnitudes of a jump at the period seam x = -pi.

    :func:`solve_magnitudes` at kappa = -1 exactly, decimated at
    M_1 = floor(M / (d+1)) (indices jM_1, j = 1..d+1): the phases are the
    exact signs (-1)^k, where exp(i pi) of the rounded pi would be off by
    about k 2^-prec in the k-th phase.  Returns the d+1 magnitudes.

    Raises
    ------
    LocalizationError
        If M_1 < 1 (band too short for the order).
    """
    M1 = c.M // (d + 1)
    if M1 < 1:
        raise LocalizationError(
            f"known-jump decimation infeasible: M={c.M}, d={d}, M1={M1}"
        )
    return solve_magnitudes(c, d, -1, ctx, M1)


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
    the phases by the power recurrence with step exp(-i xi) (conjugated for
    k < 0), the kernel sums at k and -k by one paired Horner pass per k in
    u = 1/(ik) = -i/k, with 1/2pi folded into the magnitudes.

    Returns the record's :class:`_FixedForm`, built from the unrounded
    ints, so that large magnitudes cost its evaluation no digits.  Nothing
    is rounded here: the form's :meth:`~_FixedForm.residual` gives the
    CoeffVector1D on first read, c_0 as given and each other value rounded
    once to working precision.

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
        fixed = _fixed_pairs(parts, shift)
        stack = _fixed_pairs(scaled, shift)
        sr, si = _fixed_expj(xi, wp)
        phases = _fixed_powers((1 << wp, 0), (sr, -si), M, wp)  # exp(-ik xi)
        for k, (pr, pi_) in enumerate(phases, 1):
            plus, minus = _fixed_horner_pair(stack, k)
            for n, qi, (tr, ti) in ((k, pi_, plus), (-k, -pi_, minus)):
                cr, ci = fixed[n + M]
                fixed[n + M] = (cr - ((pr * tr - qi * ti) >> wp),
                                ci - ((pr * ti + qi * tr) >> wp))
        return _FixedForm(c, xi_tilde, magnitudes_tilde, (shift, fixed))


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
    phases = _fixed_powers((1 << wp, 0), _fixed_expj(t, wp), M, wp)
    for k, (pr, pi_) in enumerate(phases, 1):
        q = k
        for l in range(n):
            sums[l] += (pr if l % 2 else pi_) // q
            q *= k
    return [(1 if l % 4 in (0, 3) else -1) * (s * inv_two_pi >> (wp - 1))
            for l, s in enumerate(sums)]  # times 1/pi


def _phase(x, M: int) -> tuple:
    """(zr, zi, zp): e^{ix} of the raw mpf x at 2^zp, zp = M.bit_length() bits
    beyond the wp of a band-M series, which keep the (M^3/3) 2^-zp error that
    2cos(x) brings to :func:`_clenshaw` near x = 0, pi below M^2 2^-wp."""
    zp = mp.prec + _guard_bits(M) + M.bit_length()
    return (*_fixed_expj(x, zp), zp)


def _clenshaw(re: list, im: list, z: tuple) -> int:
    """Re sum_{k=1..M} b_k z^k at the scale of the b_k, given as int lists
    from k = M down to 1, for z of :func:`_phase`: Clenshaw's recurrence
    y_k = b_k + 2cos(x) y_{k+1} - y_{k+2} on each part, then y_1 z - y_2."""
    zr, zi, zp = z
    c = 2 * zr
    ar = br = 0  # y_{k+1}, y_{k+2}
    for b in re:
        ar, br = b + ((c * ar) >> zp) - br, ar
    ai = bi = 0
    for b in im:
        ai, bi = b + ((c * ai) >> zp) - bi, ai
    return ((ar * zr - ai * zi) >> zp) - br


# the parts a form evaluation computes and rounds: 0 is Re, 1 is Im
_PARTS = {"complex": (0, 1), "real": (0,), "imag": (1,)}


class _FixedForm:
    """Residual series plus kernel stack, prepared for evaluation at the
    working precision of its construction (``prec``).

    The residual c_-M..c_M and the stack sum_l A_l v_l, a polynomial of
    degree d+1 in u = wrap(x - xi) / 2pi whose coefficients
    sum_l A_l kernel_scale(l) b_{l+1,j} come from the exact Bernoulli
    tables, are held as Python-int fixed-point values at working precision
    plus guard bits, at one scale set by the largest coefficient or
    magnitude.  Without magnitudes it is the plain truncated series.  The
    series is held folded, exactly for any data: its Re and Im are Re c_0
    and Im c_0 plus Re sum_k b_k e^{ikx} on ``w``, b_k = c_k + conj(c_-k),
    and on ``v``, b_k = -i (c_k - conj(c_-k)), for k = M..1; the stack is
    held as its Re and its Im coefficients.  The form keeps its location
    and magnitudes as given, as ``xi_tilde`` and ``magnitudes_tilde``, and
    the magnitudes, as ``amps``, as fixed-point pairs at that scale.
    ``fixed``, (shift, pairs), gives the residual as fixed-point pairs
    c_-M..c_M at 2^shift in place of the values of ``residual``, whose c_0
    such a form keeps as ``c0_given``: :meth:`residual` rounds the pairs on
    first read.  A ``residual`` with a method ``fixed(mags, wp)``, a grid
    row of :mod:`fourier_edge.model2d`, gives those pairs itself, at the
    shift its values would get, or None to have its values read.

    Raises
    ------
    ValueError
        If xi, a coefficient or a magnitude is NaN or infinite, or if there
        are more than 16 magnitudes (the Bernoulli table ends at order 16).
    """

    __slots__ = ("prec", "wp", "shift", "M", "c0", "w", "v", "xi",
                 "inv_two_pi", "xi_tilde", "magnitudes_tilde", "amps",
                 "stack", "c0_given", "rounded")

    def __init__(self, residual: CoeffVector1D, xi=None, magnitudes=(),
                 fixed=None):
        self.prec = mp.prec
        self.M = M = residual.M
        self.wp = wp = mp.prec + _guard_bits(M)
        self.xi_tilde, self.magnitudes_tilde = xi, magnitudes
        self.c0_given = None if fixed is None else mp.mpc(residual.values[M])
        self.rounded = None
        mags = _mpc_parts(magnitudes, "magnitude A_", 0)
        if fixed is None and hasattr(residual, "fixed"):  # a grid row's ints
            fixed = residual.fixed(mags, wp)
        if fixed is None:
            parts = _mpc_parts(residual.values, "coefficient c_", -M)
            shift = _fixed_shift(parts + mags, wp)
            fixed = shift, _fixed_pairs(parts, shift)
        self.shift, pairs = fixed
        self.c0 = pairs[M]
        # lists of ints, not of pairs, keep a W3 row stage 0.4 MB smaller
        top, low = pairs[:M:-1], pairs[:M]  # c_M..c_1 and c_-M..c_-1
        self.w = ([a + c for (a, _), (c, _) in zip(top, low)],
                  [b - d for (_, b), (_, d) in zip(top, low)])
        self.v = ([b + d for (_, b), (_, d) in zip(top, low)],
                  [c - a for (a, _), (c, _) in zip(top, low)])
        self.xi = self.inv_two_pi = None
        self.amps = tuple(_fixed_pairs(mags, self.shift))
        self.stack = ((), ())
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
        self.stack = tuple(tuple(p[i] >> wp for p in reversed(stack))
                           for i in (0, 1))

    def value(self, x, sums=(), z=None, part="complex"):
        """Value at x, rounded once to working precision; caller holds
        the precision of the form.  An mpc; ``part`` "real" or "imag"
        computes that part alone and returns it as an mpf.

        One wrap u = (x - xi) / 2pi mod 1 of the exact difference, so u = 0
        at the anchor gives the right-sided limit; per part, integer Horner
        in u over its stack coefficients and :func:`_clenshaw` on its folded
        series, w_k for Re and v_k for Im, so a real value runs one chain.
        ``sums``, the partial sums S_M[v_l] of :func:`_partial_sums` at x
        and the form's xi, subtract sum_l A_l S_M[v_l] before the rounding,
        as the row stage does.  ``z`` is :func:`_phase` at x, if the caller
        took it.
        """
        try:
            parts = _PARTS[part]
        except KeyError:
            raise ValueError(f"part must be 'complex', 'real' or 'imag', "
                             f"got {part!r}") from None
        x = mp.mpf(x)._mpf_
        if not x[1] and x[2]:
            raise ValueError(f"non-finite evaluation point {mp.mpf(x)}")
        wp = self.wp
        u = 0
        if self.xi is not None:
            t = to_fixed(mpf_sub(x, self.xi), wp)
            u = (t * self.inv_two_pi >> wp) & ((1 << wp) - 1)
        z = z or _phase(x, self.M)
        out = []
        for i in parts:
            a = 0
            for c in self.stack[i]:
                a = ((a * u) >> wp) + c
            t = 0  # A_l at 2^shift times S_M[v_l] at 2^wp
            for amp, s in zip(self.amps, sums):
                t -= amp[i] * s
            a += (t >> wp) + self.c0[i] + _clenshaw(*(self.w, self.v)[i], z)
            out.append(from_man_exp(a, -self.shift, mp.prec, round_nearest))
        return mp.make_mpf(out[0]) if len(out) == 1 else mp.make_mpc(tuple(out))

    def residual(self) -> CoeffVector1D:
        """The residual of a form of fixed pairs: c_0 as given, every other
        value rounded once at the form's precision on the first call, and
        kept for the next."""
        if self.rounded is None:
            M, shift = self.M, self.shift
            vals = [self.c0_given] * (2 * M + 1)
            with mp.workprec(self.prec):
                # w and v hold c_k and conj(c_-k) by their sum and
                # difference, k = M..1: each part comes back exactly
                for k, wr, wi, vr, vi in zip(range(M, 0, -1), *self.w,
                                             *self.v):
                    vals[M + k] = _from_fixed((wr - vi) >> 1, (wi + vr) >> 1,
                                              shift)
                    vals[M - k] = _from_fixed((wr + vi) >> 1, (vr - wi) >> 1,
                                              shift)
            self.rounded = CoeffVector1D(M, tuple(vals))
        return self.rounded


class _ResidualField:
    """Data descriptor of :attr:`Reconstruction1D.residual`: the vector the
    record was built with, or, built with None, the residual of its form."""

    def __get__(self, rec, owner=None):
        if rec is None:
            raise AttributeError("residual")  # a field without a default
        res = rec.__dict__["residual"]
        return rec._form.residual() if res is None else res

    def __set__(self, rec, value):
        rec.__dict__["residual"] = value


@dataclass(frozen=True)
class Reconstruction1D:
    """Immutable result of a 1D reconstruction.

    ``magnitudes_tilde`` are mpc (near-real for real input data);
    ``residual`` is the smooth-part coefficient vector; ``diagnostics`` is a
    JSON-friendly dict (floats/ints/strings only).  :func:`evaluate_complex`
    uses ``_form``, kept if it was made by :func:`residual_coeffs` for these
    fields, else built from them under the precision then in force.
    :func:`reconstruct1d` builds a record with ``residual`` None, which
    reads its form's residual: rounded at the precision of the form on
    first read, then kept; None without such a form, or a residual that is
    not a CoeffVector1D, raises TypeError.  ``value(x, ctx)`` is the real
    part of the reconstruction at x, computed alone.
    """

    xi_tilde: object
    magnitudes_tilde: tuple
    residual: CoeffVector1D = _ResidualField()
    d: int
    diagnostics: dict = field(compare=False, default_factory=dict)
    _form: _FixedForm = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        form, res = self._form, self.__dict__["residual"]
        own = form is not None and form.c0_given is not None
        if not (isinstance(res, CoeffVector1D) or (res is None and own)):
            raise TypeError("residual must be a CoeffVector1D, or None with a "
                            f"form of residual_coeffs: got {type(res).__name__}")
        if (not own
                or (res is not None and res != form.residual())
                or form.xi_tilde != self.xi_tilde
                or form.magnitudes_tilde != self.magnitudes_tilde):
            form = _FixedForm(self.residual, self.xi_tilde,
                              self.magnitudes_tilde)
        object.__setattr__(self, "_form", form)

    def value(self, x, ctx: ArithmeticContext):
        """Real part of the reconstructed value (models are real)."""
        return evaluate_complex(self, x, ctx, part="real")


def _at_working_prec(rec: Reconstruction1D) -> Reconstruction1D:
    """``rec``, or a copy whose form is built at the working precision when
    the record's was built at another."""
    return rec if rec._form.prec == mp.prec else replace(rec, _form=None)


def evaluate_complex(rec: Reconstruction1D, x, ctx: ArithmeticContext,
                     part: str = "complex"):
    """Reconstructed value at x: residual series plus recovered kernel stack.

    An mpc; ``part`` "real" or "imag" computes that part alone, an mpf, on
    one Clenshaw chain where the complex value runs two (any other part
    raises ValueError).  Uses the record's fixed-point form, or a new one
    when the record was built at another precision than that of ``ctx``.
    """
    with ctx.workprec():
        return _at_working_prec(rec)._form.value(x, part=part)


def evaluate(rec: Reconstruction1D, x, ctx: ArithmeticContext):
    """Real part of the reconstructed value: ``rec.value(x, ctx)``, which
    computes it alone, on one Clenshaw chain."""
    return rec.value(x, ctx)


def imag_residue(rec: Reconstruction1D, ctx: ArithmeticContext) -> float:
    """Imaginary-residue probe, on demand: the largest |Im| of the record at
    -pi + pi q/4, q = 0..7, formed under ``ctx``; near 0 for real data.  A
    record built at another precision gets one form for all eight points."""
    with ctx.workprec():
        rec = _at_working_prec(rec)
        return max(float(abs(evaluate_complex(rec, -mp.pi + mp.pi * q / 4,
                                              ctx, part="imag")))
                   for q in range(8))


def reconstruct1d(
    c: CoeffVector1D,
    d: int,
    ctx: ArithmeticContext,
) -> Reconstruction1D:
    """One-call pipeline: localize the jump, solve magnitudes, residual.

    Parameters
    ----------
    c : CoeffVector1D
    d : int
        Reconstruction order (kernel stack height - 1).

    Raises
    ------
    ReconstructionError
        When d exceeds the kernel table (d <= 15), before any work.
    LocalizationError
        Propagated from the localization stages.
    """
    _check_order(d)
    with ctx.workprec():
        diagnostics = {"d": d}
        hint = None
        if c.M // (d + 2) > 1:  # N1 = 1 has one branch: no hint needed
            d1 = d // 2
            hint, _, half_diag = half_order_localize(c, d1, ctx)
            diagnostics.update(d1=d1, half_root_sweeps=half_diag["root_sweeps"])
        kappa, xi, loc_diag = full_order_localize(c, d, hint, ctx)
        mags = solve_magnitudes(c, d, kappa, ctx, loc_diag["N1"])
        diagnostics.update(loc_diag)
        return Reconstruction1D(
            xi_tilde=xi,
            magnitudes_tilde=mags,
            residual=None,  # the form's, rounded on first read
            d=d,
            diagnostics=diagnostics,
            _form=residual_coeffs(c, xi, mags, ctx),
        )
