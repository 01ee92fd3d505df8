"""Tests for one-dimensional jump localization and magnitude recovery.

Pure kernel-stack models are in the exact class of the method, so recovery
errors there are bounded only by working precision; tolerances below leave
several orders of headroom over what the pipeline actually achieves.
"""

import dataclasses
import hashlib
import math
import pickle
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from fourier_edge import (
    ArithmeticContext,
    CoeffVector1D,
    JumpModel1D,
    LocalizationError,
    Reconstruction1D,
    ReconstructionError,
    RootFindingError,
    TrigBackground,
    evaluate,
    reconstruct1d,
    synth_coeffs,
)
from fourier_edge import recon1d
from fourier_edge.kernels import v_fourier_coeff, v_kernel
from fourier_edge.model1d import eval_model
from fourier_edge.numerics import _guard_bits
from fourier_edge.recon1d import (
    evaluate_complex,
    full_order_localize,
    half_order_localize,
    imag_residue,
    moments,
    residual_coeffs,
    solve_magnitudes,
    solve_magnitudes_known_jump,
)


def _pure(xi, mags, M, ctx):
    return synth_coeffs(JumpModel1D(xi, tuple(mags)), M, ctx)


# -- moments -----------------------------------------------------------------

def test_moment_scaling_hand_value(ctx15):
    # k^(order+1) c_k as raw pairs: c_2 = 1 + 0.5i at order 1 gives 4 + 2i
    c = CoeffVector1D(2, (1, 1, 1, 1, mp.mpc(1, 0.5)))
    assert moments(c, [2], 1, ctx15) == (mp.mpc(4, 2)._mpc_,)
    # exact beyond working precision: 3^3 times a full 53-bit mantissa
    with ctx15.workprec():
        third = mp.mpf(1) / 3
    (re, im), = moments(CoeffVector1D(3, (0,) * 6 + (third,)), [3], 2, ctx15)
    assert re[3] > 53 and im == mp.zero._mpf_  # wider than 15 digits
    with mp.workprec(200):
        assert mp.mpf(re) == 27 * third


def test_moments_reject_zero_index(ctx15):
    c = CoeffVector1D(3, (0,) * 7)
    with pytest.raises(ValueError):
        moments(c, [0, 1], 2, ctx15)


def test_moments_reject_out_of_band(ctx15):
    c = CoeffVector1D(3, (0,) * 7)
    with pytest.raises(ValueError):
        moments(c, [4], 0, ctx15)


# -- localization ------------------------------------------------------------

def test_half_order_exact_when_stack_matches(ctx30):
    # a stack of order exactly d1 makes the true root exact; the hint keeps
    # its float64 root, and the full-order root is polished to precision
    with ctx30.workprec():
        c = _pure(0.7, (0.8, -0.3), 32, ctx30)
        kappa_h, xi_h, diag = half_order_localize(c, 1, ctx30)
        assert abs(xi_h - mp.mpf(0.7)) < 1e-13
        assert diag["circle_distance"] < 1e-13
        assert abs(abs(kappa_h) - 1) < mp.mpf(10) ** -28
        _, xi, diag = full_order_localize(c, 1, kappa_h, ctx30)
        assert abs(xi - mp.mpf(0.7)) < mp.mpf(10) ** -25
        assert diag["circle_distance"] < 1e-20


def test_half_order_is_a_usable_hint_at_reduced_order(ctx30):
    # stack order 3, localized at d1 = 1: perturbed but close
    with ctx30.workprec():
        c = _pure(-1.9, (1.0, 0.5, -0.7, 0.2), 64, ctx30)
        _, xi_h, _ = half_order_localize(c, 1, ctx30)
        assert abs(xi_h - mp.mpf(-1.9)) < 0.05


def test_half_order_band_too_short(ctx15):
    c = CoeffVector1D(2, (0,) * 5)
    with pytest.raises(LocalizationError):
        half_order_localize(c, 3, ctx15)


@pytest.mark.parametrize("d1", [0, 2])
def test_half_order_window_boundary(d1, ctx30):
    # the consecutive window M-d1-1..M fits from M = d1+2 on; at M = d1+1
    # its base k0 = 0 leaves the band, and the error names the window
    mags = (1.0, -0.4, 0.3)[:d1 + 1]
    with ctx30.workprec():
        c = _pure(0.7, mags, d1 + 2, ctx30)
        _, xi_h, diag = half_order_localize(c, d1, ctx30)
        assert abs(xi_h - mp.mpf(0.7)) < 1e-10 and diag["N1"] == 1
        short = _pure(0.7, mags, d1 + 1, ctx30)
    with pytest.raises(LocalizationError, match=re.escape(
            f"window 0 + j*1, j = 0..{d1 + 1}, is not inside 1..M={d1 + 1}")):
        half_order_localize(short, d1, ctx30)


@pytest.mark.parametrize("d", [0, 3])
def test_full_order_window_boundary(d, ctx30):
    # the decimated window (j+1)N1 fits from M = d+2 on, with N1 = 1 and
    # no hint; at M = d+1, N1 = 0 and both the stage and the pipeline name
    # the window
    mags = (1.0, -0.5, 0.25, 0.8)[:d + 1]
    with ctx30.workprec():
        c = _pure(-1.3, mags, d + 2, ctx30)
        _, xi, diag = full_order_localize(c, d, None, ctx30)
        rec = reconstruct1d(c, d, ctx30)
        assert diag["N1"] == rec.diagnostics["N1"] == 1
        assert abs(xi - mp.mpf(-1.3)) < mp.mpf(10) ** -20
        assert rec.xi_tilde == xi
        short = _pure(-1.3, mags, d + 1, ctx30)
    window = re.escape(
        f"window 0 + j*0, j = 0..{d + 1}, is not inside 1..M={d + 1}")
    with pytest.raises(LocalizationError, match=window):
        full_order_localize(short, d, None, ctx30)
    with pytest.raises(LocalizationError, match=window):
        reconstruct1d(short, d, ctx30)


def test_half_order_no_root_near_circle(ctx15):
    # single nonzero coefficient at the window base: annihilation polynomial
    # is a pure monomial, all roots at 0
    vals = [0.0] * 11
    vals[5 + 2] = 1.0  # k = 2 with M = 5: the window k0 = M - d1 - 1 = 2
    c = CoeffVector1D(5, tuple(vals))
    with pytest.raises(LocalizationError):
        half_order_localize(c, 2, ctx15)


def test_zero_data_raises(ctx15):
    c = CoeffVector1D(16, (0,) * 33)
    with pytest.raises(RootFindingError):
        half_order_localize(c, 1, ctx15)


def test_full_order_recovers_location(ctx30):
    with ctx30.workprec():
        c = _pure(2.1, (1.0, -0.5, 0.25, 0.8), 40, ctx30)
        hint, _, _ = half_order_localize(c, 1, ctx30)
        kappa, xi, diag = full_order_localize(c, 3, hint, ctx30)
        assert diag["N1"] == 8  # floor(40 / 5)
        assert abs(xi - mp.mpf(2.1)) < mp.mpf(10) ** -22
        assert abs(kappa - mp.expj(-mp.mpf(2.1))) < mp.mpf(10) ** -22
        assert 0 <= diag["branch_index"] < 8


@pytest.fixture(scope="module")
def c1_style_coeffs(ctx50):
    # a C1-style pure-jump model at the top order: d = 9, M = 200, 50 digits
    mags = (1.31, -0.72, 1.94, 0.25, -1.58, 0.66, -1.12, 1.47, -0.39, 0.83)
    with ctx50.workprec():
        return synth_coeffs(JumpModel1D(-2.4, mags), 200, ctx50)


def test_half_order_cluster_polish_needs_few_sweeps(c1_style_coeffs, ctx50):
    # at d1 = 4 the moments are nearly polynomial of degree d1 in k, so the
    # half-order root is a (d1+1)-fold cluster; from Newton-polygon starts
    # both float64 Aberth runs end in a few sweeps, and the hint is not
    # polished.  The counts are deterministic, so this guards the root
    # finder's cost without timing.
    rec = reconstruct1d(c1_style_coeffs, 9, ctx50)
    diag = rec.diagnostics
    assert diag["half_root_sweeps"] <= 16
    assert diag["root_sweeps"] <= 16


def test_full_order_root_polish_needs_few_sweeps(c1_style_coeffs, ctx50):
    # Newton from the float64 root converges quadratically: three steps
    # from about 1e-13 take it below 10^-55 at 60 working digits
    with ctx50.workprec():
        hint, _, _ = half_order_localize(c1_style_coeffs, 4, ctx50)
        _, xi, diag = full_order_localize(c1_style_coeffs, 9, hint, ctx50)
        assert abs(xi - mp.mpf(-2.4)) < mp.mpf(10) ** -25
    assert 1 <= diag["root_newton_steps"] <= 3


def test_float_hint_branch_gap_is_far_below_ambiguity(c1_style_coeffs, ctx50):
    # the float64 hint lies within about 1e-8 of the true branch, against a
    # tolerance of pi/N1
    rec = reconstruct1d(c1_style_coeffs, 9, ctx50)
    diag = rec.diagnostics
    assert diag["N1"] == 18
    assert diag["branch_gap"] / (math.pi / diag["N1"]) < 1e-6


def test_one_branch_skips_the_hint_without_changing_results(ctx30):
    # N1 = M // (d+2) = 1: reconstruct1d skips the half-order stage; the
    # hinted path must give the same bits
    d = 3
    with ctx30.workprec():
        c = _pure(1.1, (1.0, -0.5, 0.25, 0.8), 9, ctx30)
        rec = reconstruct1d(c, d, ctx30)
        assert rec.diagnostics["N1"] == 1
        assert "half_root_sweeps" not in rec.diagnostics
        assert rec.diagnostics["hint_xi"] is None
        hint, _, _ = half_order_localize(c, d // 2, ctx30)
        kappa, xi, diag = full_order_localize(c, d, hint, ctx30)
        mags = solve_magnitudes(c, d, kappa, ctx30, diag["N1"])
    assert xi._mpf_ == rec.xi_tilde._mpf_
    assert [m._mpc_ for m in mags] == [m._mpc_ for m in rec.magnitudes_tilde]
    with pytest.raises(ValueError, match="hint"):
        full_order_localize(_pure(1.1, (1.0,), 9, ctx30), 0, None, ctx30)


def _brute_force_branch(theta, n1, kappa_h):
    """The candidate exp(i (theta + 2pi r) / n1) nearest kappa_h in angle,
    by trying every r, and its angular gap."""
    best = None
    for r in range(n1):
        cand = mp.expj((theta + 2 * mp.pi * r) / n1)
        gap = abs(mp.arg(cand * mp.conj(kappa_h)))
        if best is None or gap < best[1]:
            best = (r, gap)
    return best


def test_closed_form_branch_matches_brute_force(ctx30):
    # many hints around the circle, and hints 1e-12 to either side of every
    # midpoint between two branches, where the choice flips
    with ctx30.workprec():
        c = _pure(-0.9, (1.0, 0.4), 24, ctx30)
        hint, _, _ = half_order_localize(c, 1, ctx30)
        kappa, _, diag = full_order_localize(c, 1, hint, ctx30)
        n1 = diag["N1"]
        theta = mp.arg(kappa ** n1)
        phases = [mp.mpf(j) / 7 for j in range(-22, 23)]
        for r in range(n1):
            mid = (theta + 2 * mp.pi * (r + mp.mpf(1) / 2)) / n1
            phases += [mid - mp.mpf(10) ** -12, mid + mp.mpf(10) ** -12]
        for phase in phases:
            probe = mp.expj(phase)
            _, _, got = full_order_localize(c, 1, probe, ctx30)
            r, gap = _brute_force_branch(theta, n1, probe)
            assert got["branch_index"] == r
            assert abs(got["branch_gap"] - float(gap)) < 1e-14


def test_full_order_needs_wide_enough_band(ctx15):
    with ctx15.workprec():
        c = _pure(0.3, (1.0,), 4, ctx15)
        hint, _, _ = half_order_localize(c, 0, ctx15)
    with pytest.raises(LocalizationError):
        full_order_localize(c, 3, hint, ctx15)  # M=4 < d+2


def test_branch_selection_follows_hint(ctx30):
    # N1 > 1 splits the root into branches; the hint must pick the true one
    with ctx30.workprec():
        for xi in (-2.9, -0.6, 0.05, 3.0):
            c = _pure(xi, (1.0, 0.4), 24, ctx30)
            hint, _, _ = half_order_localize(c, 1, ctx30)
            kappa, got, diag = full_order_localize(c, 1, hint, ctx30)
            assert diag["N1"] == 8
            assert abs(got - mp.mpf(xi)) < mp.mpf(10) ** -20


# -- magnitudes --------------------------------------------------------------

def test_magnitudes_with_exact_location(ctx30):
    truth = (1.5, -0.25, 0.75)
    with ctx30.workprec():
        c = _pure(1.0, truth, 30, ctx30)
        kappa = mp.expj(mp.mpf(-1))
        mags = solve_magnitudes(c, 2, kappa, ctx30, n1=7)
        for got, want in zip(mags, truth):
            assert abs(got - mp.mpf(want)) < mp.mpf(10) ** -22
            assert abs(got.imag) < mp.mpf(10) ** -22


def test_magnitudes_invalid_step(ctx15):
    c = CoeffVector1D(10, (0,) * 21)
    with pytest.raises(ValueError):
        solve_magnitudes(c, 2, 1, ctx15, n1=0)
    with pytest.raises(ValueError):
        solve_magnitudes(c, 2, 1, ctx15, n1=4)  # 3*4 > 10


def _seam_stack(mags, M, ctx):
    """Coefficients of a pure kernel stack at the period seam -pi, built at
    working precision (the float64 pi would shift every phase by k 1.2e-16)."""
    with ctx.workprec():
        seam = -mp.pi
        return CoeffVector1D(M, tuple(
            sum((mp.mpf(a) * v_fourier_coeff(l, seam, k, ctx)
                 for l, a in enumerate(mags)), mp.mpc(0))
            for k in range(-M, M + 1)
        ))


def test_known_jump_magnitudes(ctx30):
    truth = (0.9, 0.0, -1.1, 0.33)
    c = _seam_stack(truth, 39, ctx30)
    mags = solve_magnitudes_known_jump(c, 3, ctx30)
    assert len(mags) == 4
    with ctx30.workprec():
        for got, want in zip(mags, truth):
            assert abs(got - mp.mpf(want)) < mp.mpf(10) ** -22


def test_known_jump_solve_is_the_localized_solve(ctx30):
    # the seam solve is solve_magnitudes at kappa = -1 exactly and step
    # M1 = floor(M / (d+1)); both must give the same bits
    c = _seam_stack((0.4, -1.2, 0.05), 37, ctx30)
    mags = solve_magnitudes_known_jump(c, 2, ctx30)
    want = solve_magnitudes(c, 2, -1, ctx30, 12)  # floor(37 / 3)
    assert [a._mpc_ for a in mags] == [a._mpc_ for a in want]


def test_known_jump_infeasible(ctx15):
    # M1 = floor(3 / 4) = 0: no node fits the band
    c = _seam_stack((1.0, 0.5, 0.25, 0.125), 3, ctx15)
    with pytest.raises(LocalizationError, match="decimation infeasible"):
        solve_magnitudes_known_jump(c, 3, ctx15)


def _reference_magnitudes(c, d, kappa, n1, ref):
    """The system of solve_magnitudes for the same c and kappa, solved by
    mpmath's LU at ref's precision."""
    with ref.workprec():
        nodes = [(j + 1) * n1 for j in range(d + 1)]
        V = mp.matrix([[mp.mpf(k) ** l for l in range(d + 1)] for k in nodes])
        b = mp.matrix([
            2 * mp.pi * mp.mpc(0, k) ** (d + 1) * mp.mpc(c.c(k))
            / mp.mpc(kappa) ** k for k in nodes
        ])
        alpha = mp.lu_solve(V, b)
        return [mp.mpc(0, -1) ** (d - l) * alpha[d - l] for l in range(d + 1)]


def test_localized_solve_matches_a_higher_precision_solve(c1_style_coeffs, ctx50):
    # each magnitude is rounded once; rounding the right-hand side to working
    # precision first loses about 20 digits of the largest magnitude here,
    # where the top node carries k^(d+1) = 180^10 and the lowest order does
    # not
    with ctx50.workprec():
        hint, _, _ = half_order_localize(c1_style_coeffs, 4, ctx50)
        kappa, _, diag = full_order_localize(c1_style_coeffs, 9, hint, ctx50)
        got = solve_magnitudes(c1_style_coeffs, 9, kappa, ctx50, diag["N1"])
    assert diag["N1"] == 18
    ref = ArithmeticContext(120)
    want = _reference_magnitudes(c1_style_coeffs, 9, kappa, 18, ref)
    with ref.workprec():
        top = max(abs(w) for w in want)
        err = max(abs(mp.mpc(a) - w) for a, w in zip(got, want))
        assert err / top < 2e-51


# -- residual and end-to-end -------------------------------------------------

def test_residual_vanishes_for_exact_jump_part(ctx30):
    with ctx30.workprec():
        c = _pure(0.4, (1.0, -0.6), 16, ctx30)
        res = residual_coeffs(c, mp.mpf(0.4), (1.0, -0.6), ctx30).residual()
        worst = max(abs(res.c(k)) for k in range(-16, 17))
        assert worst < mp.mpf(10) ** -28


def _reference_residual(c, xi, mags):
    """The closed form of residual_coeffs, term by term in mpmath."""
    vals = []
    for k in range(-c.M, c.M + 1):
        ck = mp.mpc(c.c(k))
        if k != 0:
            phase = mp.expj(-k * mp.mpf(xi)) / (2 * mp.pi)
            ck -= phase * sum(
                mp.mpc(a) / mp.mpc(0, k) ** (l + 1) for l, a in enumerate(mags)
            )
        vals.append(ck)
    return vals


def _reference_series(c, x):
    return sum(
        (mp.mpc(c.c(k)) * mp.expj(k * mp.mpf(x)) for k in range(-c.M, c.M + 1)),
        mp.mpc(0),
    )


def _random_series_inputs(M, ctx, seed):
    """Decaying complex coefficients, ten order-one magnitudes, and a
    location drawn in (-pi, pi), all rounded to the working precision."""
    rng = random.Random(seed)
    with ctx.workprec():
        c = CoeffVector1D(M, tuple(
            mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) / (1 + abs(k)) ** 1.5
            for k in range(-M, M + 1)
        ))
        mags = tuple(
            mp.mpc(rng.uniform(-1, 1), rng.uniform(-1e-3, 1e-3)) for _ in range(10)
        )
        return c, mags, mp.mpf(rng.uniform(-3, 3))


@pytest.mark.parametrize("M, dps", [(16, 30), (144, 60), (200, 50), (2048, 30)])
def test_series_kernels_match_mpmath_reference(M, dps):
    # the fixed-point kernels against the closed forms evaluated at 40 more
    # digits, at a drawn location and at the seam -pi of the row stage
    ctx = ArithmeticContext(dps)
    ref = ArithmeticContext(dps + 40)
    c, mags, xi = _random_series_inputs(M, ctx, seed=M)
    with ctx.workprec():
        seam = -mp.pi
        x = mp.mpf("0.7")
    for anchor in (xi, seam):
        res = residual_coeffs(c, anchor, mags, ctx).residual()
        with ref.workprec():
            want = _reference_residual(c, anchor, mags)
            scale = max(1, max(abs(v) for v in c.values))
            tol = mp.mpf(10) ** -dps * scale
            assert max(abs(a - b) for a, b in zip(res.values, want)) <= tol
    with ctx.workprec():
        got = recon1d._FixedForm(c).value(x)
    with ref.workprec():
        assert abs(got - _reference_series(c, x)) <= tol


def test_series_kernels_are_pinned_bit_for_bit():
    # the raw outputs of residual_coeffs and of both fixed-point forms on
    # fixed inputs, hashed; the primitives these kernels share with the
    # generators may move or gain users only if every bit stays
    ctx = ArithmeticContext(50)
    c, mags, xi = _random_series_inputs(200, ctx, seed=7)
    digest = hashlib.sha256()
    with ctx.workprec():
        res = residual_coeffs(c, xi, mags, ctx).residual()
        forms = (recon1d._FixedForm(res, xi, mags), recon1d._FixedForm(c))
        values = [f.value(-mp.pi + 2 * mp.pi * (j + mp.mpf(1) / 3) / 16)
                  for j in range(16) for f in forms]
    for v in res.values + tuple(values):
        digest.update(repr(v._mpc_).encode())
    assert digest.hexdigest() == (
        "f72019989357677fa7da88bfe510288a16028c16274623d046e471acdfe9f9ab")


def _pinned_records(ctx):
    # seeded models with a smooth part of degree 3.  M = 12 at d = 5 has
    # N1 = 1 and no hint; the smooth part sits on its nodes 1..7, so the
    # root kept lies 0.22 off the circle.  M = 200 at d = 9 has N1 = 18, a
    # half-order hint, and no node in reach of the smooth part.
    rng = random.Random(25)
    for M, d in ((12, 5), (200, 9)):
        mags = tuple(rng.uniform(-2, 2) for _ in range(d + 1))
        smooth = TrigBackground(
            (rng.uniform(-1, 1),) + tuple(complex(rng.uniform(-1, 1),
                                                  rng.uniform(-1, 1)) / 4
                                          for _ in range(3)))
        model = JumpModel1D(rng.uniform(-3, 3), mags, smooth)
        yield reconstruct1d(synth_coeffs(model, M, ctx), d, ctx)


def test_reconstruct1d_is_pinned_bit_for_bit():
    # xi, magnitudes and every diagnostic of reconstruct1d on the pinned
    # records, hashed
    ctx = ArithmeticContext(50)
    digest = hashlib.sha256()
    for rec in _pinned_records(ctx):
        assert rec.diagnostics["N1"] == rec.residual.M // (rec.d + 2)
        digest.update(repr(rec.xi_tilde._mpf_).encode())
        for a in rec.magnitudes_tilde:
            digest.update(repr(a._mpc_).encode())
        digest.update(repr(sorted(rec.diagnostics.items())).encode())
    assert digest.hexdigest() == (
        "fc0c83e680d66ae1e2eb9b948de19d18f6e00c9d1ba4f8c78029f92900be80aa")


def test_series_kernels_accept_mixed_input_types(ctx30):
    # every entry goes through mp.mpc at working precision, whatever its type
    raw = (3, "0.1", 0.25, mp.mpf("-0.3"), mp.mpc("0.2", "-0.7"), 1 - 2j, "-2")
    with ctx30.workprec():
        rounded = tuple(mp.mpc(v) for v in raw)
        mixed = CoeffVector1D(3, raw)
        plain = CoeffVector1D(3, rounded)
        x = mp.mpf("-1.9")
        a = residual_coeffs(mixed, 0.4, (1, "0.5", mp.mpf(2)), ctx30)
        b = residual_coeffs(plain, 0.4, (mp.mpc(1), mp.mpc("0.5"), 2), ctx30)
        a, b = a.residual(), b.residual()
        assert [v._mpc_ for v in a.values] == [v._mpc_ for v in b.values]
        assert a.c(0) == mp.mpc(raw[3])  # c_0 passes through
        got = recon1d._FixedForm(mixed).value(x)
        assert got._mpc_ == recon1d._FixedForm(plain).value(x)._mpc_
    with mp.workdps(70):
        want = _reference_series(plain, x)
    assert abs(got - want) < mp.mpf(10) ** -29


@pytest.mark.parametrize("bad", [mp.nan, mp.inf, mp.mpc(0, -mp.inf), complex("nan")])
def test_non_finite_series_inputs_raise(bad, ctx30):
    # fixed-point conversion maps NaN and infinities to 0, so the kernels
    # must refuse them instead of returning plausible numbers
    with ctx30.workprec():
        c = _pure(0.4, (1.0, -0.6), 8, ctx30)
        vals = list(c.values)
        vals[8 + 3] = bad
        broken = CoeffVector1D(8, vals)
        with pytest.raises(ValueError, match="coefficient c_3"):
            residual_coeffs(broken, 0.4, (1.0, -0.6), ctx30)
        with pytest.raises(ValueError, match="magnitude A_1"):
            residual_coeffs(c, 0.4, (1.0, bad), ctx30)
        rec = reconstruct1d(c, 1, ctx30)
        with pytest.raises(ValueError, match="coefficient c_3"):
            evaluate_complex(dataclasses.replace(rec, residual=broken), 0.3, ctx30)
        # off the nodes, at the full-order node 2N1 (N1 = 2), and in the
        # half-order window 7..8: each is refused by name, not by the roots
        for k in (3, 4, 7):
            vals = list(c.values)
            vals[8 + k] = bad
            with pytest.raises(ValueError, match=f"coefficient c_{k}:"):
                reconstruct1d(CoeffVector1D(8, vals), 1, ctx30)


@pytest.mark.parametrize("bad", [mp.nan, -mp.inf])
def test_non_finite_location_or_point_raises(bad, ctx30):
    with ctx30.workprec():
        c = _pure(0.4, (1.0, -0.6), 8, ctx30)
        with pytest.raises(ValueError, match="non-finite"):
            residual_coeffs(c, bad, (1.0, -0.6), ctx30)
        rec = reconstruct1d(c, 1, ctx30)
        with pytest.raises(ValueError, match="non-finite"):
            evaluate_complex(rec, bad, ctx30)


@pytest.mark.parametrize("M", [1, 12, 144])
def test_partial_sums_match_the_closed_forms(M):
    # S_M[v_l] against the v_fourier_coeff partial sum at 40 more digits: at
    # the anchor, 1e-30 left of it, and mid-period (v_l itself is held by
    # test_evaluator_matches_kernel_and_series_reference)
    ctx, ref = ArithmeticContext(40), ArithmeticContext(80)
    with ctx.workprec():
        xi = -mp.pi
        points = [xi, xi - mp.mpf(10) ** -30, xi + mp.pi]
        wp = mp.prec + _guard_bits(M)
        got = [recon1d._partial_sums(x, xi, M, 16) for x in points]
    with ref.workprec():
        # the sums carry at least 25 guard bits over working precision
        tol = mp.mpf(10) ** -45
        for x, sums in zip(points, got):
            assert len(sums) == 16
            for l, s in enumerate(sums):
                want = sum(
                    v_fourier_coeff(l, xi, k, ref) * mp.expj(k * x)
                    for k in range(-M, M + 1)
                )
                assert abs(mp.mpf(s) / 2 ** wp - want) < tol, (l, x)


# -- evaluation ----------------------------------------------------------------

def _reference_value(rec, x, ref):
    """Kernel stack by v_kernel plus the mpmath series, at ref's precision."""
    with ref.workprec():
        stack = sum(
            (mp.mpc(a) * v_kernel(l, rec.xi_tilde, x, ref)
             for l, a in enumerate(rec.magnitudes_tilde)),
            mp.mpc(0),
        )
        return stack + _reference_series(rec.residual, x)


def _value_scale(rec):
    """max(1, max|c_k|, sum|A_l|): the scale of the evaluator's error bound."""
    return max(
        1,
        max(abs(mp.mpc(v)) for v in rec.residual.values),
        sum(abs(mp.mpc(a)) for a in rec.magnitudes_tilde),
    )


@pytest.mark.parametrize("d", [0, 9, 15])
@pytest.mark.parametrize("M, dps", [(16, 30), (200, 50)])
def test_evaluator_matches_kernel_and_series_reference(d, M, dps):
    # the fixed-point form against sum_l A_l v_kernel plus the series, both
    # at 40 more digits; at the anchor itself (the right-sided limit), just
    # left of it, at a generic point, and one period on
    ctx = ArithmeticContext(dps)
    ref = ArithmeticContext(dps + 40)
    c, _, xi = _random_series_inputs(M, ctx, seed=100 * d + M)
    rng = random.Random(d)
    with ctx.workprec():
        mags = tuple(
            mp.mpc(rng.uniform(-3, 3), rng.uniform(-0.1, 0.1)) for _ in range(d + 1)
        )
        for anchor in (xi, -mp.pi):
            rec = Reconstruction1D(anchor, mags, c, d)
            points = [anchor, anchor - mp.mpf(10) ** -(dps - 5), mp.mpf("1.9")]
            points += [x + 2 * mp.pi for x in points]
            tol = mp.mpf(10) ** -dps * _value_scale(rec)
            for x in points:
                got = evaluate_complex(rec, x, ctx)
                with ref.workprec():
                    assert abs(got - _reference_value(rec, x, ref)) <= tol


@pytest.mark.parametrize("kind", ["series", "record", "one-sided"])
@pytest.mark.parametrize("M, dps", [(200, 50), (2048, 30)])
def test_evaluator_holds_at_the_ends_of_the_period(kind, M, dps):
    # the recurrence's roundings grow most near x = 0 and pi, where
    # 2cos(x) is near +-2; the one-sided series (c_k = 0 for k < 0) pins
    # that folding c_k with conj(c_-k) assumes no symmetry of the data
    ctx = ArithmeticContext(dps)
    ref = ArithmeticContext(dps + 40)
    c, mags, xi = _random_series_inputs(M, ctx, seed=M + 1)
    with ctx.workprec():
        if kind == "one-sided":
            c = CoeffVector1D(M, (mp.mpc(0),) * M + c.values[M:])
        rec = Reconstruction1D(xi, mags if kind == "record" else (), c, 9)
        pi, eps = +mp.pi, mp.mpf(10) ** -(dps - 5)
        points = [mp.mpf(0), pi, -pi, eps, pi - eps]
        points += [x + 2 * pi for x in points]
        tol = mp.mpf(10) ** -dps * _value_scale(rec)
    for x in points:
        got = evaluate_complex(rec, x, ctx)
        with ref.workprec():
            assert abs(got - _reference_value(rec, x, ref)) <= tol, x


def test_imag_residue_is_the_probe_of_the_record(ctx30):
    # the probe evaluates the record through evaluate_complex at 8 points
    g = TrigBackground((0.3, 0.0, 0.15 - 0.1j))
    with ctx30.workprec():
        real = synth_coeffs(JumpModel1D(1.3, (1.0, 0.5, -0.2), g), 40, ctx30)
        # a complex-valued function: its probe reads O(1)
        skew = CoeffVector1D(40, tuple(v * mp.expj(0.3) for v in real.values))
        probes = [-mp.pi + mp.pi * q / 4 for q in range(8)]
    for c in (real, skew):
        rec = reconstruct1d(c, 2, ctx30)
        want = max(float(abs(evaluate_complex(rec, x, ctx30).imag)) for x in probes)
        assert imag_residue(rec, ctx30) == want
    assert want > 0.1
    # the M = 12, d = 5 input of the pin test returns xi 1.65 rad off, and
    # the probe is the signal that shows it; its M = 200 record is good
    ctx = ArithmeticContext(50)
    bad, good = (imag_residue(rec, ctx) for rec in _pinned_records(ctx))
    assert bad > 0.5 and good < 1e-40


def _record_and_points(ctx):
    g = TrigBackground((0.3, 0.0, 0.15 - 0.1j))
    with ctx.workprec():
        c = synth_coeffs(JumpModel1D(1.3, (1.0, 0.5, -0.2), g), 40, ctx)
        points = [mp.mpf(x) for x in ("-3.1", "-0.2", "1.3", "2.7")]
    return reconstruct1d(c, 2, ctx), points


def test_record_form_survives_pickle_and_replace(ctx30):
    rec, points = _record_and_points(ctx30)

    def bits(r):
        return [evaluate_complex(r, x, ctx30)._mpc_ for x in points]

    want = bits(rec)
    clone = pickle.loads(pickle.dumps(rec))
    # unpickled at the default precision, where a rebuilt form would differ
    assert mp.prec != rec._form.prec
    for name in recon1d._FixedForm.__slots__:
        assert getattr(clone._form, name) == getattr(rec._form, name), name
    assert bits(clone) == want
    # the residual is rounded on first read, before pickling or after
    assert clone._form.rounded is None and clone == rec
    read = pickle.loads(pickle.dumps(rec))
    assert read._form.rounded == rec.residual  # carried, not rounded again
    assert read == rec and bits(read) == want
    with ctx30.workprec():
        copy = CoeffVector1D(40, tuple(rec.residual.values))
    assert bits(dataclasses.replace(rec, residual=copy)) == want
    # other fields replaced keep the form; a record built from its fields
    # alone builds its own
    assert dataclasses.replace(rec, diagnostics={})._form is rec._form
    rebuilt = dataclasses.replace(rec, _form=None)
    assert rebuilt == rec and rebuilt._form.c0_given is None
    # a replaced residual is evaluated, not the form of the old one
    with ctx30.workprec():
        zero = CoeffVector1D(40, (mp.mpc(0),) * 81)
        stack_only = dataclasses.replace(rec, residual=zero)
    ref = ArithmeticContext(70)
    for x in points:
        got = evaluate_complex(stack_only, x, ctx30)
        with ref.workprec():
            assert abs(got - _reference_value(stack_only, x, ref)) < 1e-29


def test_record_evaluates_at_a_higher_precision_than_built():
    # a form is valid at the precision it was built at only: a 30-digit
    # record evaluated at 60 digits is exact to 60 digits in its own fields
    ctx30, ctx60 = ArithmeticContext(30), ArithmeticContext(60)
    rec, points = _record_and_points(ctx30)
    built = rec._form
    with ctx30.workprec():
        assert built.prec == mp.prec
    ref = ArithmeticContext(100)
    for x in points:
        got = evaluate_complex(rec, x, ctx60)
        with ref.workprec():
            err = abs(got - _reference_value(rec, x, ref))
            assert err <= mp.mpf(10) ** -60 * _value_scale(rec)
    assert rec._form is built  # the record's own form is left alone


def test_imag_residue_builds_at_most_one_form(monkeypatch):
    # at the record's precision the probe uses the record's form; at another
    # it builds one form for its eight points, and reads the same bits as
    # evaluate_complex does there
    ctx30, ctx60 = ArithmeticContext(30), ArithmeticContext(60)
    rec, _ = _record_and_points(ctx30)
    built, init = [], recon1d._FixedForm.__init__

    def counting(self, *args, **kwargs):
        built.append(mp.prec)
        init(self, *args, **kwargs)

    monkeypatch.setattr(recon1d._FixedForm, "__init__", counting)
    for ctx, forms in ((ctx30, 0), (ctx60, 1)):
        built.clear()
        got = imag_residue(rec, ctx)
        assert len(built) == forms, ctx
        with ctx.workprec():
            probes = [-mp.pi + mp.pi * q / 4 for q in range(8)]
        assert got == max(float(abs(evaluate_complex(rec, x, ctx).imag))
                          for x in probes)


def _assert_parts_match(rec, points, ctx):
    """Each part-selected evaluation of ``rec`` has the bits of that part of
    its complex value, at ``ctx``."""
    for x in points:
        whole = evaluate_complex(rec, x, ctx)
        for real in (evaluate(rec, x, ctx), rec.value(x, ctx),
                     evaluate_complex(rec, x, ctx, part="real")):
            assert real._mpf_ == whole.real._mpf_, x
        imag = evaluate_complex(rec, x, ctx, part="imag")
        assert imag._mpf_ == whole.imag._mpf_, x


@pytest.mark.parametrize("dps", [30, 45])
def test_part_evaluations_are_the_parts_of_the_complex_value(dps):
    # a real or an imaginary evaluation runs one chain of the two a complex
    # value runs: at the record's precision (30 digits) and through a form
    # built at another, on a record of reconstruct1d with magnitudes near
    # 1e10, on that record rebuilt from its fields, and on a form without
    # magnitudes, at the probe points of imag_residue and two more
    built, ctx = ArithmeticContext(30), ArithmeticContext(dps)
    rng = random.Random(28)
    mags = tuple(rng.choice((-1, 1)) * rng.uniform(0.5, 1) * 1e10
                 for _ in range(4))
    g = TrigBackground((0.3, 0.2 - 0.1j, -0.05j))
    with built.workprec():
        c = synth_coeffs(JumpModel1D(1.1, mags, g), 48, built)
    rec = reconstruct1d(c, 3, built)
    with ctx.workprec():
        assert max(abs(a) for a in rec.magnitudes_tilde) > 5e9
        points = [-mp.pi + mp.pi * q / 4 for q in range(8)]
        points += [mp.mpf("1.1"), mp.mpf("-0.37")]
        raw = recon1d._FixedForm(c)
        for x in points:
            whole = raw.value(x)
            assert raw.value(x, part="real")._mpf_ == whole.real._mpf_
            assert raw.value(x, part="imag")._mpf_ == whole.imag._mpf_
    for r in (rec, dataclasses.replace(rec, _form=None)):
        _assert_parts_match(r, points, ctx)


def _residual_pin_records(ctx):
    # the pinned records and the first W1 input of seed 1 (d = 9, M = 200,
    # 50 digits)
    records = list(_pinned_records(ctx))
    rng = random.Random(1)
    xi = -math.pi + 2 * math.pi * rng.random()
    while True:
        mags = tuple(rng.uniform(-2.0, 2.0) for _ in range(10))
        if max(abs(a) for a in mags) >= 0.25:
            break
    records.append(reconstruct1d(synth_coeffs(JumpModel1D(xi, mags), 200, ctx),
                                 9, ctx))
    return records


def _pin_points(ctx):
    with ctx.workprec():
        return [-mp.pi + 2 * mp.pi * (j + mp.mpf(0.5)) / 16 for j in range(16)]


def test_record_residual_is_pinned_bit_for_bit():
    # the residual of the records of _residual_pin_records, rounded on
    # read, hashed
    ctx = ArithmeticContext(50)
    records = _residual_pin_records(ctx)
    digest = hashlib.sha256()
    for rec in records:
        for v in rec.residual.values:
            digest.update(repr(v._mpc_).encode())
    assert digest.hexdigest() == (
        "1ba1a383a86f8c7c78a210b3a0ba35cfe8a47b40a804cbc0b6f9b24bff58b0a8")
    # their values at 16 points, at the records' precision and, through a
    # form built from the rounded residual, at 70 and at 30 digits
    digest = hashlib.sha256()
    for c in (ctx, ArithmeticContext(70), ArithmeticContext(30)):
        for rec in records:
            for x in _pin_points(c):
                digest.update(repr(evaluate_complex(rec, x, c)._mpc_).encode())
    assert digest.hexdigest() == (
        "3e6dd8a3b8fcbda343118432c4987b4ba80d6641eb823abb17afa07ef2676156")


def test_record_real_values_are_pinned_bit_for_bit():
    # the real parts of the same records at their own 50 digits, and every
    # part at 30 digits through a form built from the rounded residual: the
    # residual's rounding noise sits far below both
    ctx, low = ArithmeticContext(50), ArithmeticContext(30)
    records = _residual_pin_records(ctx)
    digest = hashlib.sha256()
    for rec in records:
        for x in _pin_points(ctx):
            digest.update(repr(evaluate_complex(rec, x, ctx, part="real")._mpf_)
                          .encode())
        for x in _pin_points(low):
            digest.update(repr(evaluate_complex(rec, x, low)._mpc_).encode())
    assert digest.hexdigest() == (
        "fe53c07e2c5586770e062f574cbc5bf35e566cbc72eff869c8358538e11452ce")


def test_residual_is_rounded_once_on_first_read(ctx30, monkeypatch):
    # reconstruct1d rounds no residual value; the first read rounds the 2M
    # values besides c_0, which is taken as given, and the second reads the
    # kept vector
    rounded, from_fixed = [], recon1d._from_fixed

    def counting(*args):
        rounded.append(mp.prec)
        return from_fixed(*args)

    monkeypatch.setattr(recon1d, "_from_fixed", counting)
    rec, _ = _record_and_points(ctx30)
    assert rounded == []
    with ctx30.workprec():
        prec = mp.prec
    first = rec.residual  # read at the default precision
    assert rounded == [prec] * 80  # at the record's precision
    assert rec.residual is first
    assert len(rounded) == 80


def test_tiny_c0_reads_back_exactly(ctx30):
    # c_0 = 1e-80 beside values and magnitudes of order 1 truncates to 0 at
    # the scale of the fixed pairs; the residual keeps it as given
    with ctx30.workprec():
        c = _pure(0.4, (1.0, -0.6), 16, ctx30)
        tiny = mp.mpc("1e-80")
        vals = list(c.values)
        vals[16] = tiny
        c = CoeffVector1D(16, vals)
        form = residual_coeffs(c, mp.mpf(0.4), (1.0, -0.6), ctx30)
        assert form.c0 == (0, 0)
    assert form.residual().c(0)._mpc_ == tiny._mpc_
    assert reconstruct1d(c, 1, ctx30).residual.c(0)._mpc_ == tiny._mpc_


def test_reconstruct_pure_model(ctx30):
    truth = (1.2, -0.4, 0.9, 0.15)
    with ctx30.workprec():
        c = _pure(-0.55, truth, 64, ctx30)
        rec = reconstruct1d(c, 3, ctx30)
        assert abs(rec.xi_tilde - mp.mpf(-0.55)) < mp.mpf(10) ** -20
        for got, want in zip(rec.magnitudes_tilde, truth):
            assert abs(got - mp.mpf(want)) < mp.mpf(10) ** -17
        assert rec.d == 3
        assert rec.diagnostics["N1"] == 12
        assert imag_residue(rec, ctx30) < 1e-17
        # residual of a pure model is numerically zero
        worst = max(abs(rec.residual.c(k)) for k in range(-64, 65))
        assert worst < mp.mpf(10) ** -16


def test_reconstruct_with_bandlimited_smooth_part(ctx30):
    """Bandlimited backgrounds leave the decimated moments untouched, so
    recovery is exact and pointwise evaluation reproduces the model."""
    g = TrigBackground((0.3, 0.0, 0.15 - 0.1j))
    m = JumpModel1D(1.3, (1.0, 0.5, -0.2), g)
    with ctx30.workprec():
        c = synth_coeffs(m, 40, ctx30)
        rec = reconstruct1d(c, 2, ctx30)
        assert abs(rec.xi_tilde - mp.mpf(1.3)) < mp.mpf(10) ** -20
        for x in ("-2.0", "0.9", "2.8"):
            want = eval_model(m, mp.mpf(x), ctx30)
            got = evaluate(rec, mp.mpf(x), ctx30)
            assert abs(got - want) < mp.mpf(10) ** -15
        v = evaluate_complex(rec, mp.mpf("0.9"), ctx30)
        assert abs(v.imag) < mp.mpf(10) ** -15


def test_reconstruct_validates_order(ctx15):
    c = CoeffVector1D(8, (0,) * 17)
    with pytest.raises(ValueError):
        reconstruct1d(c, -1, ctx15)
    # the kernel table ends at Bernoulli order 16: a typed failure, raised
    # before the zero data could fail localization
    with pytest.raises(ReconstructionError, match="d <= 15") as err:
        reconstruct1d(c, 16, ctx15)
    assert type(err.value) is ReconstructionError
    # a record built by hand with 17 magnitudes is refused by its form
    with pytest.raises(ValueError, match="Bernoulli table ends at order 16"):
        Reconstruction1D(0.5, (1,) * 17, c, 16)


@pytest.mark.parametrize("residual", [None, tuple(range(17))])
def test_record_without_a_residual_is_refused(residual):
    # a record built by hand needs a CoeffVector1D; None is the residual of
    # a form of residual_coeffs only
    with pytest.raises(TypeError, match="residual must be a CoeffVector1D"):
        Reconstruction1D(0.5, (1.0,), residual, 0)


def test_unknown_part_is_refused(ctx30):
    rec, _ = _record_and_points(ctx30)
    with pytest.raises(ValueError, match="'complex', 'real' or 'imag'.*'Real'"):
        evaluate_complex(rec, 0.3, ctx30, part="Real")


def test_shift_equivariance_single_case(ctx30):
    # modulating coefficients by exp(-iks) moves the jump by s
    s = 0.8
    with ctx30.workprec():
        c = _pure(0.2, (1.0, -0.3), 32, ctx30)
        shifted = CoeffVector1D(
            32,
            tuple(
                mp.mpc(c.c(k)) * mp.expj(-k * mp.mpf(s))
                for k in range(-32, 33)
            ),
        )
        a = reconstruct1d(c, 1, ctx30)
        b = reconstruct1d(shifted, 1, ctx30)
        assert abs(b.xi_tilde - (a.xi_tilde + mp.mpf(s))) < mp.mpf(10) ** -20
        for x, y in zip(a.magnitudes_tilde, b.magnitudes_tilde):
            assert abs(x - y) < mp.mpf(10) ** -18


def test_reconstruction_pickles(ctx15):
    # a record is plain data: a caller may store it or send it elsewhere
    with ctx15.workprec():
        c = _pure(0.1, (1.0,), 12, ctx15)
        rec = reconstruct1d(c, 0, ctx15)
    clone = pickle.loads(pickle.dumps(rec))
    assert clone.xi_tilde == rec.xi_tilde
    assert clone.magnitudes_tilde == rec.magnitudes_tilde
    assert clone.residual.values == rec.residual.values


def test_degenerate_stack_with_zero_low_order(ctx30):
    """A_0 = 0 makes the annihilation root multiple; accuracy honestly
    degrades to roughly eps^(1/multiplicity) but the pipeline still works."""
    with ctx30.workprec():
        c = _pure(0.5, (0.0, 1.0), 48, ctx30)
        rec = reconstruct1d(c, 1, ctx30)
        assert abs(rec.xi_tilde - mp.mpf(0.5)) < 1e-14  # double root
        c3 = _pure(0.5, (0.0, 0.0, 1.0), 48, ctx30)
        rec3 = reconstruct1d(c3, 2, ctx30)
        assert abs(rec3.xi_tilde - mp.mpf(0.5)) < 1e-8  # triple root


@settings(max_examples=25, deadline=None)
@given(
    st.floats(-3.1, 3.1),
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
)
def test_random_pure_models_recover_property(xi, mags):
    # |A_0| bounded below keeps the annihilation root simple; the zero
    # case is covered separately with its degraded tolerance
    assume(abs(mags[0]) >= 0.05)
    ctx = ArithmeticContext(precision_digits=20)
    d = len(mags) - 1
    with ctx.workprec():
        c = _pure(xi, mags, 48, ctx)
        rec = reconstruct1d(c, d, ctx)
        assert abs(rec.xi_tilde - mp.mpf(xi)) < 1e-10
        for got, want in zip(rec.magnitudes_tilde, mags):
            assert abs(got - mp.mpf(want)) < 1e-8
