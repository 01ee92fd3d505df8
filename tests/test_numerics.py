"""Unit tests for the arithmetic substrate.

Oracles: repeated forward differencing for the annihilation sum, naive
power sums for polynomial evaluation, exact integer Vandermonde matrices
rebuilt from scratch for the solver, exact ``Fraction`` sums for the
fixed-point Horner kernel, and mpmath phases for the power recurrence.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest

from fourier_edge import ArithmeticContext, RootFindingError
from fourier_edge import numerics
from fourier_edge.numerics import (
    _horner,
    annihilation_sum,
    poly_roots,
    polish_root,
    vandermonde_solve,
)


# -- context -----------------------------------------------------------------

def test_context_rejects_low_precision():
    with pytest.raises(ValueError):
        ArithmeticContext(precision_digits=10)


def test_context_derived_tolerances():
    ctx = ArithmeticContext(precision_digits=20)
    # default residual tolerance leaves 8 digits of slack
    assert float(ctx.root_tol()) == pytest.approx(1e-12, rel=1e-10)


def test_workprec_sets_and_restores_dps():
    before = mp.dps
    ctx = ArithmeticContext(precision_digits=44)
    with ctx.workprec():
        assert mp.dps == 44
    assert mp.dps == before


# -- combinatorics -----------------------------------------------------------

def _forward_difference_oracle(l, d):
    """(d+1)-fold differencing of j -> (j+1)^l, with alternating signs."""
    seq = [(j + 1) ** l for j in range(d + 2)]
    for _ in range(d + 1):
        seq = [seq[i] - seq[i + 1] for i in range(len(seq) - 1)]
    return seq[0]


def test_annihilation_sum_vanishes_below_order():
    for d in range(13):
        for l in range(d + 1):
            assert annihilation_sum(l, d) == 0


def test_annihilation_sum_first_nonzero_value():
    # first non-vanishing order carries the factorial, sign alternating
    for d in range(13):
        assert annihilation_sum(d + 1, d) == (-1) ** (d + 1) * math.factorial(
            d + 1
        )


@given(st.integers(0, 14), st.integers(0, 10))
def test_annihilation_sum_matches_differencing(l, d):
    assert annihilation_sum(l, d) == _forward_difference_oracle(l, d)


def test_annihilation_sum_domain():
    with pytest.raises(ValueError):
        annihilation_sum(-1, 3)
    with pytest.raises(ValueError):
        annihilation_sum(2, -1)


# -- polynomials -------------------------------------------------------------

def test_roots_drop_trailing_zeros():
    ctx = ArithmeticContext()
    (r,), _ = poly_roots([1, 2, 0, 0], ctx)
    assert abs(r + 0.5) < 1e-15
    assert poly_roots([3, 0], ctx) == ([], 0)
    with pytest.raises(RootFindingError):
        poly_roots([0, 0], ctx)


def test_poly_call_matches_power_sum(ctx15):
    coeffs = [1.5, -2.0, 0.25, 3j]
    with ctx15.workprec():
        for z in (mp.mpc(0.3, -1.2), mp.mpc(2), mp.mpc(0)):
            p, _ = _horner([mp.mpc(c) for c in coeffs], z)
            direct = sum(mp.mpc(c) * z ** j for j, c in enumerate(coeffs))
            assert abs(p - direct) < 1e-13
    # exact for exact types
    assert _horner([5, 4, 3, 2], 1)[0] == 14


def test_poly_derivative_rule(ctx15):
    coeffs = [1.5, -2.0, 0.25, 3j]
    with ctx15.workprec():
        for z in (mp.mpc(0.3, -1.2), mp.mpc(2), mp.mpc(0)):
            _, dp = _horner([mp.mpc(c) for c in coeffs], z)
            # coefficient rule: (c_j z^j)' = j c_j z^(j-1)
            slope = sum(j * mp.mpc(c) * z ** (j - 1) for j, c in enumerate(coeffs) if j)
            assert abs(dp - slope) < 1e-13
    # exact for exact types; a constant has zero derivative
    assert _horner([5, 4, 3, 2], 1)[1] == 4 + 6 + 6
    assert _horner([7], 3) == (7, 0)


def _assert_root_sets_match(got, want, tol):
    # greedy closest-pair matching; plain sorting misorders near-ties like
    # an exact 0 against a root with real part -1e-37
    remaining = list(got)
    assert len(remaining) == len(want)
    for w in want:
        best = min(remaining, key=lambda g: abs(g - w))
        assert abs(best - w) < tol
        remaining.remove(best)


def _polished(coeffs, ctx):
    """Every root of poly_roots, polished at full precision."""
    roots, _ = poly_roots(coeffs, ctx)
    return [polish_root(coeffs, r, ctx)[0] for r in roots]


def _expand(roots):
    """Coefficients of prod (z - r), ascending, expanded term by term."""
    coeffs = [mp.mpc(1)]
    for r in roots:
        nxt = [mp.mpc(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c
            nxt[j] -= r * c
        coeffs = nxt
    return coeffs


def test_roots_of_expanded_product(ctx30):
    with ctx30.workprec():
        true = [mp.mpc(1, 1), mp.mpc(-2, 0.5), mp.mpc(0.25, -3)]
        coeffs = _expand(true)
        roots, _ = poly_roots(coeffs, ctx30)
        _assert_root_sets_match(roots, true, 1e-13)  # float64 level
        _assert_root_sets_match(_polished(coeffs, ctx30), true, mp.mpf(10) ** -25)


@pytest.mark.parametrize("dps", [15, 30, 60])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_roots_of_exact_multiple_root(q, dps):
    # a q-fold root is only determined to about eps^(1/q); Newton from each
    # float64 cluster root must still get there and pass the residual gate,
    # not stop early or raise.  It converges linearly, at rate 1 - 1/q, from
    # float64 accuracy: under 3 (dps + 10) steps for q <= 5
    ctx = ArithmeticContext(precision_digits=dps)
    with ctx.workprec():
        a = mp.mpc(1, 0.5)
        coeffs = _expand([a] * q + [mp.mpc(-2)])
        roots, _ = poly_roots(coeffs, ctx)
        cluster = sorted(roots, key=lambda r: abs(r - a))[:q]
        floor = 100 * mp.mpf(10) ** (-mp.mpf(dps + 10) / q)
        for r in cluster:
            polished, steps = polish_root(coeffs, r, ctx)
            assert abs(polished - a) < floor
            assert steps <= 3 * (dps + 10)


def test_roots_zero_factoring(ctx15):
    # z^2 (z - 1): the zero roots come out exactly
    roots, _ = poly_roots([0, 0, -1, 1], ctx15)
    assert len(roots) == 3
    zeros = [r for r in roots if r == 0]
    assert len(zeros) == 2
    (one,) = [r for r in roots if r != 0]
    assert abs(one - 1) < 1e-12


def test_roots_trivial_degrees(ctx15):
    assert poly_roots([4], ctx15) == ([], 0)
    with pytest.raises(RootFindingError):
        poly_roots([0], ctx15)  # zero polynomial
    with ctx15.workprec():
        (r,), _ = poly_roots([-3, 2], ctx15)
        assert abs(r - mp.mpf(3) / 2) < 1e-14


def test_roots_deterministic(ctx15):
    p = [1, 0.5, -2, 1j, 1]
    a = poly_roots(p, ctx15)
    b = poly_roots(p, ctx15)
    assert a == b
    assert polish_root(p, a[0][0], ctx15) == polish_root(p, b[0][0], ctx15)


def _sweep_types(monkeypatch):
    """List that receives the number type of each Aberth run."""
    kinds = []
    real = numerics._sweep

    def spy(coeffs, logs, exp):
        kinds.append(type(coeffs[0]))
        return real(coeffs, logs, exp)

    monkeypatch.setattr(numerics, "_sweep", spy)
    return kinds


def test_roots_invariant_under_extreme_coefficient_scaling(ctx30, monkeypatch):
    # 1e400 and 1e-400 lie outside float64; the float sweeps divide by the
    # largest modulus first, so they still run in float64
    with ctx30.workprec():
        true = [mp.mpc(0.5), mp.mpc(3, 1), mp.mpc(0, -40), mp.mpc(1000),
                mp.mpc(-2, -0.25)]
        coeffs = _expand(true)
        plain = _polished(coeffs, ctx30)
        _assert_root_sets_match(plain, true, mp.mpf(10) ** -24)
        for scale in (mp.mpf("1e400"), mp.mpf("1e-400")):
            scaled = [c * scale for c in coeffs]
            kinds = _sweep_types(monkeypatch)
            roots = _polished(scaled, ctx30)
            assert kinds == [complex]
            _assert_root_sets_match(roots, plain, mp.mpf(10) ** -24)


def test_roots_fall_back_to_circle_start(ctx30, monkeypatch):
    # z^2 + 1e-400: the constant term flushes to zero in float64, where the
    # polynomial becomes z^2 with coincident roots at 0, so the sweeps run
    # on mpc values, from the circle of radius 1e-200 the Newton polygon
    # gives, and the roots pass the full-precision gate
    with ctx30.workprec():
        coeffs = [mp.mpc("1e-400"), mp.mpc(0), mp.mpc(1)]
        kinds = _sweep_types(monkeypatch)
        roots, sweeps = poly_roots(coeffs, ctx30)
        assert kinds == [type(mp.mpc(0))]
        assert len(roots) == 2 and sweeps >= 1
        for r in roots:
            assert abs(abs(r) - mp.mpf("1e-200")) < mp.mpf("1e-210")
            polished, _ = polish_root(coeffs, r, ctx30)  # raises on a bad root
            assert abs(polished) < mp.mpf(10) ** -30


def test_coincident_iterates_raise_root_finding_error(ctx15, monkeypatch):
    # coincident starts divide by zero in the Aberth correction: float64
    # gives up, and the mpc sweeps raise
    monkeypatch.setattr(numerics, "_hull_starts", lambda logs, exp: [exp(1j)] * 2)
    with pytest.raises(RootFindingError, match="coincide"):
        poly_roots([-4, 0, 1], ctx15)


def test_newton_polygon_starts_cover_wide_root_moduli(ctx30):
    # roots from 1e-6 to 1e6: one start circle per hull edge puts a start
    # near each modulus, where a single circle of radius about 1e6 would not
    with ctx30.workprec():
        true = [mp.mpf(10) ** e * mp.expjpi(mp.mpf(e) / 7) for e in range(-6, 7, 2)]
        coeffs = _expand(true)
        roots, sweeps = poly_roots(coeffs, ctx30)
        for r, t in zip(sorted(roots, key=abs), sorted(true, key=abs)):
            assert abs(r - t) < 1e-13 * abs(t)
        assert sweeps <= 8


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        min_size=1,
        max_size=5,
        unique=True,
    )
)
# the log|c_j| of this product are collinear up to rounding at j = 0, 2, 4:
# two Newton-polygon edges of one circle once put two starts a rounding
# error apart, and both sweeps ended on -1j
@example(pairs=[(0, -1), (1, 2), (-1, -1), (-1, -2)])
def test_roots_recover_integer_lattice_products(pairs):
    # integer-lattice roots are pairwise separated by >= 1, a benign case
    ctx = ArithmeticContext(precision_digits=25)
    with ctx.workprec():
        true = [mp.mpc(a, b) for a, b in pairs]
        roots = _polished(_expand(true), ctx)
        _assert_root_sets_match(roots, true, mp.mpf(10) ** -18)


def test_hull_starts_merge_edges_of_one_circle():
    # (z + i)(z - 1 - 2i)(z + 1 + i)(z + 1 + 2i) has |c_1| = 5 sqrt 5,
    # |c_3| = sqrt 5 and c_4 = 1, collinear in log up to rounding: one edge
    # (1, 4) of three starts on the circle of radius sqrt 5, not two edges
    # whose starts meet at the same point
    true = [complex(a, b) for a, b in [(0, -1), (1, 2), (-1, -1), (-1, -2)]]
    cs = [complex(c) for c in _expand([mp.mpc(r) for r in true])]
    # scaled as poly_roots scales them; the rounding then keeps vertex 3
    top = max(abs(c) for c in cs)
    logs = [math.log(abs(c / top)) for c in cs]
    starts = numerics._hull_starts(logs, cmath.exp)
    assert len(starts) == 4
    radii = sorted(abs(z) for z in starts)
    assert radii[1:] == pytest.approx([math.sqrt(5)] * 3, rel=1e-12)
    gaps = [abs(a - b) for i, a in enumerate(starts) for b in starts[i + 1:]]
    assert min(gaps) > 1


# -- scaled Vandermonde systems ----------------------------------------------

def _vandermonde_matrix(d, base):
    """Exact integer matrix with entries ((j+1) base)^l, rebuilt from scratch."""
    return [
        [((j + 1) * base) ** l for l in range(d + 1)] for j in range(d + 1)
    ]


def test_vandermonde_solver_recovers_exact_integer_solutions(ctx30):
    for d in (0, 1, 3, 6):
        for base in (1, 2, 5):
            truth = [(-1) ** l * (l + 2) for l in range(d + 1)]
            V = _vandermonde_matrix(d, base)
            rhs = [
                (sum(V[j][l] * truth[l] for l in range(d + 1)), 0)
                for j in range(d + 1)
            ]
            sol = vandermonde_solve(d, base, rhs, 0, ctx30)
            with ctx30.workprec():
                for got, want in zip(sol, truth):
                    assert abs(got - want) < mp.mpf(10) ** -25


def test_vandermonde_inverse_is_exact():
    """Residuals of the solved system vanish exactly for Fraction inputs.

    Uses a rational right-hand side, truncated to fixed point; the solver's
    exact inverse means the only other error is the final rounding.
    """
    d, base = 4, 2
    ctx = ArithmeticContext(precision_digits=15)
    V = _vandermonde_matrix(d, base)
    truth = [Fraction(1, l + 1) for l in range(d + 1)]
    rhs_exact = [
        sum(Fraction(V[j][l]) * truth[l] for l in range(d + 1))
        for j in range(d + 1)
    ]
    shift = 64
    sol = vandermonde_solve(
        d, base,
        [((r.numerator << shift) // r.denominator, 0) for r in rhs_exact],
        shift, ctx,
    )
    with ctx.workprec():
        # inverse entries grow like (d+1)! and amplify rhs truncation, which
        # 64 bits keep far below the 15-digit rounding
        for got, want in zip(sol, truth):
            assert abs(got - mp.mpf(want.numerator) / want.denominator) < 2e-11


def test_unit_vandermonde_inverse_times_powers_is_diagonal():
    # over the kernel table's orders, in integers: numerators times
    # [(j+1)^m] give diag(den_l), and each row's denominator is the least
    for d in range(16):
        nums, dens = numerics._unit_vandermonde_inverse(d)
        for l, (row, den) in enumerate(zip(nums, dens)):
            assert den > 0 and math.gcd(den, *row) == 1
            for m in range(d + 1):
                got = sum(n * (j + 1) ** m for j, n in enumerate(row))
                assert got == (den if m == l else 0), (d, l, m)


def test_vandermonde_validation():
    ctx = ArithmeticContext()
    with pytest.raises(ValueError):
        vandermonde_solve(-1, 2, [], 0, ctx)
    with pytest.raises(ValueError):
        vandermonde_solve(2, 0, [(1, 0), (2, 0), (3, 0)], 0, ctx)
    with pytest.raises(ValueError):
        vandermonde_solve(2, 1, [(1, 0), (2, 0)], 0, ctx)  # wrong length


# -- integer rounding ---------------------------------------------------------

@st.composite
def _parts_to_round(draw):
    """(m, e, prec): a mantissa of 1 to 600 bits, or 0, either sign, with up
    to 64 trailing zero bits, and prec None or 53..400; one draw in three
    an exact tie at prec bits, its kept bits of either parity."""
    prec = draw(st.none() | st.integers(53, 400))
    if prec is not None and draw(st.integers(0, 2)) == 0:
        kept = 2 * draw(st.integers(1 << (prec - 2), (1 << (prec - 1)) - 1))
        m = 2 * (kept + draw(st.integers(0, 1))) + 1  # kept bits, then half
    else:
        bits = draw(st.integers(0, 600))
        m = draw(st.integers(1 << bits >> 1, (1 << bits) - 1))
    m <<= draw(st.integers(0, 64))
    return -m if draw(st.booleans()) else m, draw(st.integers(-1100, 1100)), prec


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_parts_to_round())
@example((0, 7, 100))
@example((0, -3, None))
@example((-(2 ** 53 + 1), 5, 53))  # a tie, rounded down to an even mantissa
@example((2 ** 53 + 3, -9, 53))  # a tie, rounded up to an even mantissa
@example(((1 << 600) - 1, 0, 400))  # rounds up to a power of two
def test_round_int_is_mpmath_rounding(case):
    m, e, prec = case
    raw = (from_man_exp(m, e, prec, round_nearest) if prec
           else from_man_exp(m, e))
    sign, man, exp, _ = raw
    assert numerics._round_int(m, e, prec) == (-man if sign else man, exp)


# -- fixed-point Horner kernel and power recurrence --------------------------

def _exact_series(stack, u_sign, n):
    """sum_l B_l (u_sign * -i/n)^(l+1) of a fixed-point stack B_0..B_d, as
    an exact (re, im) pair of Fractions."""
    re = im = Fraction(0)
    for l, (br, bi) in enumerate(stack):
        # (-i)^(l+1) as (real, imag), times u_sign^(l+1)
        pr, pi = ((1, 0), (0, -1), (-1, 0), (0, 1))[(l + 1) % 4]
        scale = Fraction(u_sign ** (l + 1), n ** (l + 1))
        re += (br * pr - bi * pi) * scale
        im += (br * pi + bi * pr) * scale
    return re, im


def test_fixed_horner_kernels_against_exact_sums():
    # both outputs of the paired pass lie within 3 units of the exact sum at
    # u and at -u, at the stack's scale
    rng = random.Random(27)
    for d in range(16):
        stack = [(rng.randint(-2 ** 200, 2 ** 200), rng.randint(-2 ** 200, 2 ** 200))
                 for _ in range(d + 1)]
        for n in range(1, 41):
            plus, minus = numerics._fixed_horner_pair(stack, n)
            for u_sign, got in ((1, plus), (-1, minus)):
                want = _exact_series(stack, u_sign, n)
                assert all(abs(g - w) <= 3 for g, w in zip(got, want)), (d, n)
    assert numerics._fixed_horner_pair([], 5) == ((0, 0), (0, 0))


def test_fixed_powers_against_expj():
    # start exp(ikx) for k = 1..count lies within 3k units of 2^-wp of the
    # mpmath value, for an exact start that is not 1 and steps of either
    # sign: each step floors each part once (under sqrt 2 units in modulus)
    # and carries the error of the fixed step (under 1.5 sqrt 2 units) times
    # |start| < 1.  The largest error seen here is 1.03k units.
    wp, count = 200, 300
    with mp.workprec(wp + 40):
        start = mp.mpc("0.625", "-0.375")
        fixed_start = numerics._fixed_pairs([start._mpc_], wp)[0]
        unit = mp.mpf(2) ** -wp
        for x in (mp.mpf("0.7"), -mp.pi / 3, mp.mpf("3.1")):
            step = numerics._fixed_expj(x._mpf_, wp)
            powers = numerics._fixed_powers(fixed_start, step, count, wp)
            assert len(powers) == count
            for k, (pr, pi) in enumerate(powers, 1):
                err = abs(mp.mpc(pr, pi) * unit - start * mp.expj(k * x))
                assert err <= 3 * k * unit, (x, k)
    assert numerics._fixed_powers((1, 2), (3, 4), 0, 10) == []

