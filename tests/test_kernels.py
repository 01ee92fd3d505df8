"""Kernel and Bernoulli-table tests.

mpmath's own bernoulli/bernpoly serve as an independent oracle for the
Fraction tables; jump structure is checked symbolically by differentiating
the exact coefficient tables, and Fourier data against slow quadrature.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from fourier_edge import (
    ArithmeticContext,
    BernoulliBasis,
    JumpModel1D,
    bernoulli_poly,
    v_fourier_coeff,
    v_kernel,
)
from fourier_edge.oracle import quadrature_oracle

# classical table values, kept literal on purpose
_KNOWN_NUMBERS = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


def test_bernoulli_numbers_against_classical_table():
    basis = BernoulliBasis(12)
    for n, want in _KNOWN_NUMBERS.items():
        assert basis.number(n) == want
    for n in (3, 5, 7, 9, 11):
        assert basis.number(n) == 0


def test_bernoulli_numbers_against_mpmath():
    basis = BernoulliBasis(16)
    with mp.workdps(40):
        for n in range(17):
            ours = basis.number(n)
            ref = mp.bernoulli(n)
            assert abs(mp.mpf(ours.numerator) / ours.denominator - ref) < mp.mpf(
                10
            ) ** -38


def test_bernoulli_poly_against_mpmath(ctx30):
    with ctx30.workprec():
        for n in (0, 1, 2, 5, 9, 12):
            for t in ("0.17", "0.5", "0.93", "-0.4", "1.6"):
                ours = bernoulli_poly(n, mp.mpf(t), ctx30)
                assert abs(ours - mp.bernpoly(n, mp.mpf(t))) < mp.mpf(10) ** -27


def test_bernoulli_poly_exact_for_rationals():
    # B_2(t) = t^2 - t + 1/6
    t = Fraction(1, 3)
    assert bernoulli_poly(2, t) == t * t - t + Fraction(1, 6)
    assert isinstance(bernoulli_poly(7, Fraction(2, 5)), Fraction)


def test_bernoulli_poly_beyond_shared_table():
    # n = 18 exercises the dedicated-basis path; classical value
    assert bernoulli_poly(18, Fraction(0)) == Fraction(43867, 798)


def test_endpoint_identity():
    # B_n(0) = B_n(1) except n = 1, where the gap is exactly 1
    for n in range(13):
        lhs = bernoulli_poly(n, Fraction(0))
        rhs = bernoulli_poly(n, Fraction(1))
        if n == 1:
            assert rhs - lhs == 1
        else:
            assert lhs == rhs


def test_zero_mean_of_periodized_polynomials():
    # integral of B_n over [0, 1] vanishes for n >= 1, done on exact tables
    basis = BernoulliBasis(14)
    for n in range(1, 15):
        total = sum(
            c / (j + 1) for j, c in enumerate(basis.poly_coeffs(n))
        )
        assert total == 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 12),
    st.fractions(min_value=-2, max_value=2, max_denominator=50),
)
def test_reflection_and_difference_identities(n, t):
    """B_n(1-t) = (-1)^n B_n(t) and B_n(t+1) - B_n(t) = n t^(n-1), exactly."""
    assert bernoulli_poly(n, 1 - t) == (-1) ** n * bernoulli_poly(n, t)
    if n >= 1:
        diff = bernoulli_poly(n, t + 1) - bernoulli_poly(n, t)
        assert diff == n * t ** (n - 1)


# -- jump structure of the periodized kernels --------------------------------

def _diff(coeffs):
    out = tuple((j * c for j, c in enumerate(coeffs)))[1:]
    return out if out else (Fraction(0),)


def _eval(coeffs, t):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def test_derivative_cascade_on_exact_tables():
    """The order-l kernel's l-th derivative jumps by exactly 1 at the anchor.

    Differentiation in x brings a (2pi)^-1 per order which cancels the
    kernel's (2pi)^l prefactor, so the check reduces to differencing the
    Bernoulli table at the period endpoints.  Lower derivatives must be
    continuous there.
    """
    basis = BernoulliBasis(12)
    for l in range(9):
        coeffs = basis.poly_coeffs(l + 1)
        for j in range(l):
            cj = coeffs
            for _ in range(j):
                cj = _diff(cj)
            assert _eval(cj, Fraction(0)) == _eval(cj, Fraction(1))
        cl = coeffs
        for _ in range(l):
            cl = _diff(cl)
        jump = Fraction(-1, math.factorial(l + 1)) * (
            _eval(cl, Fraction(0)) - _eval(cl, Fraction(1))
        )
        assert jump == 1


def test_v_kernel_value_jump_order_zero(ctx30):
    x0 = 0.3
    with ctx30.workprec():
        right = v_kernel(0, x0, x0, ctx30)
        assert abs(right - mp.mpf("0.5")) < mp.mpf(10) ** -28
        h = mp.mpf(10) ** -10
        left = v_kernel(0, x0, x0 - h, ctx30)
        # left limit -1/2 approached linearly in h
        assert abs(left + mp.mpf("0.5")) < 1e-9


def test_v_kernel_continuous_above_order_zero(ctx30):
    with ctx30.workprec():
        h = mp.mpf(10) ** -12
        for l in (1, 2, 5):
            at = v_kernel(l, -1.0, -1.0, ctx30)
            below = v_kernel(l, -1.0, -1.0 - h, ctx30)
            assert abs(at - below) < 1e-10


def test_v_kernel_periodicity(ctx15):
    with ctx15.workprec():
        for l in (0, 3):
            for x in (-2.5, 0.1, 1.9):
                a = v_kernel(l, 0.7, x, ctx15)
                b = v_kernel(l, 0.7, x + 2 * mp.pi, ctx15)
                assert abs(a - b) < 1e-13


def _u_profile(n, y):
    """Two-branch Bernoulli profile over the doubled period [-2pi, 2pi).

    B_{n+1}((y + 2pi)/2pi) on [-2pi, 0) and B_{n+1}(y/2pi) on [0, 2pi),
    after wrapping y into [-2pi, 2pi); mpmath's bernpoly keeps it
    independent of the kernel tables.  Caller holds the precision.
    """
    ym = mp.mpf(y)
    ym -= 4 * mp.pi * mp.floor((ym + 2 * mp.pi) / (4 * mp.pi))
    u = (ym + 2 * mp.pi) / (2 * mp.pi) if ym < 0 else ym / (2 * mp.pi)
    return mp.bernpoly(n + 1, u)


def test_u_kernel_jump_only_at_order_zero(ctx30):
    # eval2d reads the kernels across the curve at offsets from the anchor;
    # at the anchor only order 0 jumps: from -B_1(1) = -1/2 to -B_1(0) = 1/2
    with ctx30.workprec():
        assert abs(v_kernel(0, 0, 0, ctx30) - mp.mpf("0.5")) < mp.mpf(10) ** -28
        h = mp.mpf(10) ** -8
        for x0 in (mp.mpf(0), mp.mpf("1.3")):
            jump = v_kernel(0, x0, x0, ctx30) - v_kernel(0, x0, x0 - h, ctx30)
            assert abs(jump - 1) < 1e-7
            for n in (1, 2, 4):
                gap = v_kernel(n, x0, x0, ctx30) - v_kernel(n, x0, x0 - h, ctx30)
                assert abs(gap) < 1e-7


def test_u_kernel_is_periodization_of_v(ctx15):
    # both branches of the profile glue into one 2pi-periodic function; with
    # the kernel scale attached, the profile at offset t is v anchored at x0
    # and read at x0 + t
    with ctx15.workprec():
        for n in (0, 1, 3):
            scale = -((2 * mp.pi) ** n) / mp.factorial(n + 1)
            for x0 in (0.0, 1.3):
                for t in (-5.9, -3.0, -0.4, 0.0, 1.7, 6.0):
                    got = v_kernel(n, x0, mp.mpf(x0) + t, ctx15)
                    assert abs(scale * _u_profile(n, t) - got) < 1e-13


def test_fourier_coeff_zero_mode_and_symmetry(ctx15):
    with ctx15.workprec():
        assert v_fourier_coeff(2, 0.4, 0, ctx15) == 0
        # real kernel: conjugate symmetry across k
        for l, k in ((0, 3), (2, 7)):
            a = v_fourier_coeff(l, 0.4, k, ctx15)
            b = v_fourier_coeff(l, 0.4, -k, ctx15)
            assert abs(a - mp.conj(b)) < 1e-14


def test_fourier_coeff_against_quadrature(ctx15):
    for l, x0, k in ((0, 0.0, 1), (1, 0.5, 4), (2, -2.0, 9), (3, 1.2, 2)):
        mags = tuple([0.0] * l + [1.0])
        m = JumpModel1D(x0, mags)
        with ctx15.workprec():
            ref = quadrature_oracle(m, k, ctx15, nodes=2048)
            got = v_fourier_coeff(l, x0, k, ctx15)
            assert abs(got - ref) < 1e-10


def test_kernel_order_validation(ctx15):
    with pytest.raises(ValueError):
        v_kernel(-1, 0.0, 1.0, ctx15)
    with pytest.raises(ValueError):
        v_fourier_coeff(-1, 0.0, 3, ctx15)
