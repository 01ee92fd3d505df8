"""Tests for 2D models, their Fourier grids, and the grid file format.

Grid synthesis is validated against the slow 2D quadrature oracle and, for
slices, against direct 1D integration of the pointwise model.
"""

import gc
import hashlib
import math
import re
import sys
import tracemalloc

import pytest
from mpmath import mp
from mpmath.libmp import fzero

from fourier_edge import (
    ArithmeticContext,
    Background2D,
    CoeffGrid2D,
    Curve,
    Model2D,
    TrigBackground,
    coeff_grid,
    eval2d,
    load_grid,
    reconstruct_field,
    save_grid,
)
from fourier_edge.kernels import v_fourier_coeff, v_kernel
from fourier_edge.model2d import _trapezoid_grid, slice_coeff_exact
from fourier_edge.oracle import quadrature2d_oracle

_TRIG_CURVE = Curve("trig", (0.2, 0.15 + 0.1j))
_BG = Background2D(
    ((TrigBackground((0.1, 0.2j)), TrigBackground((0.3, -0.1))),)
)


def _trig_model():
    return Model2D(
        d_model=1,
        magnitudes=(1.0, 0.5),
        curve=_TRIG_CURVE,
        background=_BG,
    )


# -- curve -------------------------------------------------------------------

def test_curve_validation():
    with pytest.raises(ValueError):
        Curve("spline")
    with pytest.raises(ValueError):
        Curve("identity", (0.1,))
    with pytest.raises(ValueError):
        Curve("trig", ())
    # b_0 is the curve's mean, real like a TrigBackground's g_0; its
    # imaginary part was dropped and the curve read 0.4 at x = 0
    with pytest.raises(ValueError, match="b_0 must be real"):
        Curve("trig", (0.2 + 0.5j, 0.1))
    assert Curve("trig", (0.2 + 0j, 0.1)).coeffs[0] == 0.2
    # a NaN or infinite b_k sent every slice through Model2D.slice's edge
    # branch, with the jump at -pi: eval2d read numbers, and coeff_grid a
    # plausible grid
    for coeffs, k in (((mp.nan, 0.1), 0), ((0.2, math.inf), 1),
                      ((0.2, 0.1, complex(0, math.nan)), 2), ((0.2, "-inf"), 1)):
        with pytest.raises(ValueError, match=f"non-finite curve coefficient b_{k}"):
            Curve("trig", coeffs)


def test_identity_curve(ctx15):
    c = Curve("identity")
    with ctx15.workprec():
        assert c.xi(1.25, ctx15) == mp.mpf(1.25)
    assert c.slope_bound() == 1.0


def test_trig_curve_eval_and_slope_bound(ctx30):
    c = _TRIG_CURVE
    with ctx30.workprec():
        for x in ("-1.5", "0.0", "2.4"):
            xm = mp.mpf(x)
            # mp.mpf(0.2), not mp.mpf("0.2"): the curve stores the float
            want = mp.mpf(0.2) + 2 * (
                mp.mpc(0.15, 0.1) * mp.expj(xm)
            ).real
            assert abs(c.xi(xm, ctx30) - want) < mp.mpf(10) ** -28
        # bound holds on a sample of derivative values
        h = mp.mpf(10) ** -8
        for x in ("-3.0", "-0.7", "1.1", "2.9"):
            xm = mp.mpf(x)
            deriv = (c.xi(xm + h, ctx30) - c.xi(xm - h, ctx30)) / (2 * h)
            assert abs(deriv) <= c.slope_bound() + 1e-6


# -- background --------------------------------------------------------------

def test_background_eval_matches_coefficient_synthesis(ctx15):
    with ctx15.workprec():
        for x, y in ((0.3, -1.0), (-2.0, 2.5)):
            direct = mp.mpc(0)
            for wx in range(-1, 2):
                for wy in range(-1, 2):
                    direct += _BG.coeff2d(wx, wy) * mp.expj(wx * x + wy * y)
            assert abs(direct.imag) < 1e-13
            assert abs(_BG.eval(x, y, ctx15) - direct.real) < 1e-13


def test_background_slice_row_consistency(ctx15):
    # the smooth part of a slice is the background at that x
    smooth = _trig_model().slice(0.9, ctx15).smooth
    with ctx15.workprec():
        x, y = 0.9, -0.4
        synth = mp.mpc(0)
        for wy in range(-1, 2):
            synth += smooth.coeff(wy) * mp.expj(wy * y)
        assert abs(synth.real - _BG.eval(x, y, ctx15)) < 1e-13


def test_background_type_checking():
    with pytest.raises(TypeError):
        Background2D(((TrigBackground((1.0,)), 3.0),))


# -- model -------------------------------------------------------------------

def test_canonical_model_shape():
    m = Model2D.canonical(11)
    assert m.d_model == 11
    assert m.magnitudes == (TrigBackground((1,)),) * 12
    assert m.curve.kind == "identity"
    assert m.background == Background2D(())


def test_every_model_part_is_a_trig_polynomial():
    # constant profiles are degree-0 polynomials and a missing background
    # or smooth part is the empty sum or zero polynomial, from construction
    prof = TrigBackground((0.5, 0.25j))
    for m in (Model2D(2, (2.0, prof, "0.1"), _TRIG_CURVE),
              Model2D(2, (1, prof, 0.5), Curve("identity"), None),
              Model2D(2, (prof, prof, prof), Curve("identity"), _BG)):
        assert all(isinstance(p, TrigBackground) for p in m.magnitudes)
        assert isinstance(m.background, Background2D)
    assert m.background is _BG and m.magnitudes[0] is prof
    assert Model2D(1, (2.0, "0.1"), _TRIG_CURVE).magnitudes == (
        TrigBackground((2.0,)), TrigBackground(("0.1",)))
    assert Model2D(0, (1,), Curve("identity")).background.terms == ()
    with pytest.raises(ValueError, match="g_0 must be real"):
        Model2D(1, (1.0, 0.5 + 0.1j), Curve("identity"))
    with pytest.raises(TypeError, match="Background2D"):
        Model2D(0, (1.0,), Curve("identity"), TrigBackground((0.3,)))


def test_model_magnitude_count_must_match():
    with pytest.raises(ValueError):
        Model2D(2, (1.0, 1.0), Curve("identity"))


def test_magnitude_profiles(ctx15):
    prof = TrigBackground((0.5, 0.25))
    m = Model2D(1, (2.0, prof), Curve("identity"))
    with ctx15.workprec():
        assert m.magnitude_value(0, 1.0, ctx15) == 2
        want = mp.mpf("0.5") + 2 * (mp.mpf("0.25") * mp.cos(mp.mpf(1)))
        assert abs(m.magnitude_value(1, 1.0, ctx15) - want) < 1e-14
        assert m.magnitudes[0].coeff(0) == 2
        assert m.magnitudes[0].coeff(3) == 0
        assert m.magnitudes[1].coeff(-1) == mp.mpc(0.25)


# -- grids -------------------------------------------------------------------

def test_grid_shape_and_indexing():
    vals = tuple(
        tuple(complex(wx, wy) for wy in range(-1, 2)) for wx in range(-2, 3)
    )
    g = CoeffGrid2D(2, 1, vals)
    assert g.c(-2, -1) == complex(-2, -1)
    assert g.c(1, 0) == complex(1, 0)
    with pytest.raises(ValueError):
        g.c(3, 0)
    row = g.row(1)
    assert row.M == 2
    assert row.c(-2) == complex(-2, 1) and row.c(2) == complex(2, 1)
    # -2 would read row 1 by negative indexing, 2 lies past the end
    for wy in (-2, 2):
        with pytest.raises(ValueError, match=rf"row {wy} outside grid"):
            g.row(wy)
    with pytest.raises(ValueError):
        CoeffGrid2D(2, 1, vals[:3])


def test_grid_entries_of_every_type_keep_their_exact_value():
    # the grid holds each part as ints; c(), row() and values make the mpc of
    # the value given, which a reader then rounds at its own precision: the
    # digest of those readings is the one of a grid holding the entries as
    # given
    with mp.workdps(50):
        third = mp.mpf(1) / 3
    with mp.workdps(20):
        nan_part = mp.mpc(mp.mpf(2) / 7, mp.nan)
    g = CoeffGrid2D(2, 0, ((0,), (1.5,), (0.1 + 0.3j,), (third,), (nan_part,)))
    assert g.c(1, 0)._mpc_ == (third._mpf_, fzero)  # 50 digits, unrounded
    assert g.c(2, 0)._mpc_ == nan_part._mpc_
    digest = hashlib.sha256()
    for dps in (20, 60):
        with mp.workdps(dps):
            for wx in range(-2, 3):
                for v in (g.c(wx, 0), g.row(0).c(wx), g.values[wx + 2][0]):
                    digest.update(repr(mp.mpc(v)._mpc_).encode())
    assert digest.hexdigest() == ("9ecc434fb44347b73ee7140755c2fd0a"
                                  "fa4c2e625e27481a14b2028395c76b7b")
    # a decimal string has a value only at a precision: refused, not guessed
    for entry in ("0.1", b"0.1"):
        with pytest.raises(TypeError, match="grid entry .* is not an int"):
            CoeffGrid2D(0, 0, ((entry,),))


def test_slice_of_a_curve_inside_the_period_is_its_parts(ctx30):
    # the curve value and the profile values, bit for bit
    for m in (Model2D.canonical(5), _trig_model()):
        with ctx30.workprec():
            for x in (-2.5, 0.3, mp.mpf("1.7")):
                s = m.slice(x, ctx30)
                assert s.xi._mpf_ == m.curve.xi(x, ctx30)._mpf_
                assert [a._mpf_ for a in s.magnitudes] == [
                    m.magnitude_value(l, x, ctx30)._mpf_
                    for l in range(m.d_model + 1)]


def test_slice_of_a_curve_that_leaves_the_period(ctx30):
    # xi(x) = 2.9 + cos x rises above pi for cos x > 0.24; the slice jump is
    # wrapped, and the truth is the kernels anchored at the unwrapped xi(x)
    tol = mp.mpf(10) ** -(ctx30.precision_digits - 3)
    for bg in (None, _BG):
        m = Model2D(1, (1.0, TrigBackground((0.5, 0.1j))),
                    Curve("trig", (2.9, 0.5)), bg)
        with ctx30.workprec():
            for x in (2.5, -1.0, 0.3):
                xi = m.curve.xi(x, ctx30)
                s = m.slice(x, ctx30)
                assert -mp.pi <= s.xi < mp.pi
                mags = [m.magnitude_value(l, x, ctx30) for l in range(2)]
                for y in (-3.0, -0.5, 1.0, 3.1):
                    want = m.background.eval(x, y, ctx30) + sum(
                        a * v_kernel(l, xi, y, ctx30) for l, a in enumerate(mags))
                    assert abs(eval2d(m, x, y, ctx30) - want) < tol
                for wy in (-2, 0, 1, 3):
                    want = sum((p.eval(x, ctx30) * q.coeff(wy)
                                for p, q in m.background.terms), mp.mpc(0))
                    want += sum(a * v_fourier_coeff(l, xi, wy, ctx30)
                                for l, a in enumerate(mags))
                    assert abs(slice_coeff_exact(m, x, wy, ctx30) - want) < tol
        assert xi > mp.pi  # x = 2.5 stays inside, the last x = 0.3 leaves


def test_slice_jump_that_wraps_onto_pi_is_minus_pi(ctx15):
    # constant curves at the floats next to 5pi: at 53 bits the wrap of one
    # of them rounds onto the edge, which the 1D model refuses, so -pi is
    # stored
    b, wrapped = 5 * math.pi, []
    for _ in range(8):
        b = math.nextafter(b, 0)
    for _ in range(17):
        s = Model2D(0, (1.0,), Curve("trig", (b,))).slice(0.3, ctx15)
        with ctx15.workprec():
            assert -mp.pi <= s.xi < mp.pi
            wrapped.append(s.xi == -mp.pi)
        b = math.nextafter(b, math.inf)
    assert any(wrapped)


def test_eval2d_jump_across_curve(ctx30):
    # crossing the curve from below changes the value by A_0(x)
    m = _trig_model()
    with ctx30.workprec():
        x = mp.mpf("0.6")
        xi = m.curve.xi(x, ctx30)
        h = mp.mpf(10) ** -9
        jump = eval2d(m, x, xi, ctx30) - eval2d(m, x, xi - h, ctx30)
        assert abs(jump - 1) < 1e-7


def test_slice_coeff_against_direct_y_integration():
    m = _trig_model()
    ctx = ArithmeticContext(precision_digits=20)
    with ctx.workprec():
        x = mp.mpf("0.8")
        xi = m.curve.xi(x, ctx)
        for wy in (0, 1, 3):
            ref = mp.quad(
                lambda y: eval2d(m, x, y, ctx) * mp.expj(-wy * y),
                [-mp.pi, xi, mp.pi],
            ) / (2 * mp.pi)
            got = slice_coeff_exact(m, x, wy, ctx)
            assert abs(got - ref) < 1e-15


def test_closed_form_grid_is_anti_diagonal(ctx15):
    # constant profiles concentrate the spectrum on wx + wy = 0; note the
    # all-ones stack cancels exactly at |wy| = 1 (sum of i^-(l+1) over a
    # full period), so only off-diagonal entries are asserted zero
    grid = coeff_grid(Model2D.canonical(3), 4, 2, ctx15)
    assert grid.diagnostics["method"] == "closed-form"
    for wx in range(-4, 5):
        for wy in range(-2, 3):
            if wy == 0 or wx != -wy:
                assert grid.c(wx, wy) == 0
    with ctx15.workprec():
        # hand value at wy = 2: sum_l (2i)^-(l+1) / 2pi
        want = sum(mp.mpc(0, 2) ** -(l + 1) for l in range(4)) / (2 * mp.pi)
        assert abs(grid.c(-2, 2) - want) < 1e-14
        assert grid.c(-1, 1) == 0  # the period-sum cancellation


def test_closed_form_grid_against_x_quadrature(ctx15):
    """Cross-checks grid entries against composite GL integration in x of
    the exact slice coefficients, an independent path through the algebra."""
    import numpy as np

    m = Model2D.canonical(3)
    grid = coeff_grid(m, 4, 2, ctx15)
    t, w = np.polynomial.legendre.leggauss(32)
    with ctx15.workprec():
        for wx, wy in ((1, -1), (-2, 2), (1, 1), (0, 2)):
            acc = mp.mpc(0)
            panels = 16
            h = 2 * mp.pi / panels
            for p in range(panels):
                mid = -mp.pi + p * h + h / 2
                for ti, wi in zip(t, w):
                    x = mid + h / 2 * mp.mpf(ti)
                    acc += mp.mpf(wi) * slice_coeff_exact(
                        m, x, wy, ctx15
                    ) * mp.expj(-wx * x)
            ref = acc * h / 2 / (2 * mp.pi)
            assert abs(grid.c(wx, wy) - ref) < 1e-10


def test_closed_form_grid_with_band_limited_profiles(ctx30):
    # profiles with several nonzero coefficients fill more than the
    # anti-diagonal; for the identity curve the x-integrand of each entry is
    # a trig polynomial, so a 32-node trapezoid sum of the exact slice
    # coefficients is exact to roundoff
    m = Model2D(
        2,
        (TrigBackground((0.5, 0.25j, -0.1)), 0.75, TrigBackground((0, 0.3))),
        Curve("identity"),
        _BG,
    )
    grid = coeff_grid(m, 5, 3, ctx30)
    with ctx30.workprec():
        xs = [-mp.pi + 2 * mp.pi * t / 32 for t in range(32)]
        for wx in range(-5, 6):
            for wy in range(-3, 4):
                ref = sum(
                    slice_coeff_exact(m, x, wy, ctx30) * mp.expj(-wx * x)
                    for x in xs
                ) / 32
                assert abs(grid.c(wx, wy) - ref) < 1e-27
        assert grid.c(-5, -3) == 0  # q = -8 is outside every profile's band


_THREE_TERMS = Background2D((
    (TrigBackground((0.1, 0.2j, 1 / 9, -0.05)),
     TrigBackground((0.3, -0.1, 0.2 + 1j / 11))),
    (TrigBackground((0.4, 1 / 3, 0, 0.3 - 0.2j)),
     TrigBackground((0, 1 / 7 + 0.25j, -0.15))),
    (TrigBackground((-0.2, 0.125j, 0.6j, 1 / 13)),
     TrigBackground((0.7, 1 / 3, 0.45j, 0.1))),
))
_BAND_PROFILES = (TrigBackground((0.5, 0.25j, -0.1)), 0.75)


def test_closed_form_background_is_coeff2d_bit_for_bit(ctx30):
    # the grid finds each background term's support once and adds the
    # products there after rounding the kernel part; every entry must still
    # be the kernel part plus Background2D.coeff2d, bit for bit, in and out
    # of the bands
    bg, profiles = _THREE_TERMS, _BAND_PROFILES
    with_bg = coeff_grid(Model2D(1, profiles, Curve("identity"), bg), 6, 3, ctx30)
    bare = coeff_grid(Model2D(1, profiles, Curve("identity")), 6, 3, ctx30)
    only_bg = coeff_grid(Model2D(1, (0, 0), Curve("identity"), bg), 6, 3, ctx30)
    with ctx30.workprec():
        for wx in range(-6, 7):
            for wy in range(-3, 4):
                want = bg.coeff2d(wx, wy)
                assert only_bg.c(wx, wy)._mpc_ == want._mpc_
                assert with_bg.c(wx, wy)._mpc_ == (bare.c(wx, wy) + want)._mpc_


def test_closed_form_grid_matches_mpc_closed_form_at_higher_precision():
    # the fixed-point kernel against the mpc closed form at 80 digits, which
    # shares no code with it; the profile spectra decay as 0.5^q out to
    # q = 154, over 46 orders of magnitude, which a grid converted at one
    # scale for every q could not follow to 1e-58
    M, N = 150, 4
    m = _dense_model(M, N)
    grid = coeff_grid(m, M, N, ArithmeticContext(60))
    with mp.workdps(80):
        for wx in range(-M, M + 1):
            for wy in range(-N, N + 1):
                ref = m.background.coeff2d(wx, wy)
                if wy:
                    ref += sum(
                        m.magnitudes[l].coeff(wx + wy)
                        / (2 * mp.pi * mp.mpc(0, wy) ** (l + 1))
                        for l in range(m.d_model + 1)
                    )
                assert abs(grid.c(wx, wy) - ref) <= mp.mpf("1e-58") * abs(ref)


@pytest.mark.parametrize("profiles, background, name", [
    ((1.0, TrigBackground((0.5, math.inf))), None,
     "coefficient at q=-1 of profile A_1"),
    ((math.nan, 0.5), None, "coefficient at q=0 of profile A_0"),
    ((1.0, 0.5), Background2D(((TrigBackground((0.1,)),
                                TrigBackground((0.3, math.nan))),)),
     "background term 0 coefficient q_1"),
    # two bad ones: the first in (q, l) order, A_1's at q = -2, not A_0's at -1
    ((TrigBackground((1.0, math.nan)), TrigBackground((0.5, 0.25, math.inf))),
     None, "coefficient at q=-2 of profile A_1"),
])
def test_closed_form_grid_refuses_non_finite_inputs(profiles, background, name,
                                                    ctx15):
    m = Model2D(1, profiles, Curve("identity"), background)
    with pytest.raises(ValueError, match=f"non-finite {name}"):
        coeff_grid(m, 3, 2, ctx15)


def test_closed_form_grid_is_pinned_bit_for_bit():
    # every entry of three identity-curve grids, hashed: a dense model with
    # no zero entry, the band-limited profiles under the three-term
    # background, and the canonical stack of twelve orders
    ctx = ArithmeticContext(50)
    digest = hashlib.sha256()
    for m, M, N in ((_dense_model(48, 6), 48, 6),
                    (Model2D(1, _BAND_PROFILES, Curve("identity"), _THREE_TERMS),
                     6, 3),
                    (Model2D.canonical(11), 64, 8)):
        for col in coeff_grid(m, M, N, ctx).values:
            for v in col:
                digest.update(repr(v._mpc_).encode())
    assert digest.hexdigest() == (
        "f710beb10018e6887b306f770eaa13498cfda683496e80572f7a146fd7ed9ed5")


def _mixed_model():
    """A model whose coefficients take every form one may: int, float,
    complex, decimal string and an 80-digit mpc, which a read rounds.  The
    spectrum at |q| = 3 spans 60 orders, 0.3 for A_0 down to 1e-60 for A_2."""
    with mp.workdps(80):
        wide = mp.mpc(mp.pi, -mp.e) / 7
    profiles = (TrigBackground((3, 0.1, -2.5 - 0.75j, "0.3", wide)),
                TrigBackground(("-1.7", wide, 4, 1e-3j)),
                TrigBackground((0, 0, 0, "1e-60")))
    background = Background2D((
        (TrigBackground(("0.4", 1.5 - 0.25j, wide, 7)),
         TrigBackground((0.3, "0.1", 2j))),
        (TrigBackground((1, "-0.6")), TrigBackground((-0.2, wide))),
    ))
    return Model2D(2, profiles, Curve("identity"), background)


def test_closed_form_grid_reads_every_coefficient_type_bit_for_bit():
    # every entry of the mixed model at 15 and 50 digits, on four shapes
    # (M = 0, N = 0 and N = 1 among them), hashed; then a background whose
    # product p_1 q_1 mpc_mul rounds off the exact value: |b d| lies more
    # than prec + 4 bits below |a c|, and mpf_add counts it as one unit
    # below them, which rounds the real part to the other neighbour.  The
    # digest was taken from grids made with mpc arithmetic throughout.
    digest = hashlib.sha256()
    for digits in (15, 50):
        for M, N in ((6, 3), (0, 3), (6, 0), (6, 1)):
            grid = coeff_grid(_mixed_model(), M, N, ArithmeticContext(digits))
            for col in grid.values:
                for v in col:
                    digest.update(repr(v._mpc_).encode())
    ctx = ArithmeticContext(50)
    with ctx.workprec():
        p = mp.mpc("0.82867755619713929853", "0.49143858892522923573e-26")
        q = mp.mpc("0.64573986613185814126", "-0.72499448127615294539e-26")
    bg = Background2D(((TrigBackground((0, p)), TrigBackground((0, q))),))
    grid = coeff_grid(Model2D(0, (0,), Curve("identity"), bg), 1, 1, ctx)
    with ctx.workprec():
        for wx in (-1, 0, 1):
            for wy in (-1, 0, 1):
                assert grid.c(wx, wy)._mpc_ == bg.coeff2d(wx, wy)._mpc_
    for col in grid.values:
        for v in col:
            digest.update(repr(v._mpc_).encode())
    assert digest.hexdigest() == (
        "fa2d46f43bd68f0663b47b615966f1ed60fda7c1804a3df2ad4c4f4d045e57de")


def test_closed_form_grid_makes_no_mpc_per_entry(ctx30):
    # synthesis runs on ints from the coefficients read to the parts it
    # stores: it may make an mpc for a coefficient it reads (here each is a
    # decimal string, which mp.mpc reads), never for an entry.  Every one of
    # the 41 x 9 entries has a background part, so mpc arithmetic per entry
    # would make over 800 mpc here, against the model's 30 coefficients
    M, N = 20, 4
    bg = Background2D(((TrigBackground(tuple(f"0.{k + 1}" for k in range(M + 1))),
                        TrigBackground(tuple(f"0.{k + 3}" for k in range(N + 1)))),))
    m = Model2D(1, ("0.5", TrigBackground(("0.25", "0.1", "0.2"))),
                Curve("identity"), bg)
    read = (sum(len(p.coeffs) for p in m.magnitudes)
            + sum(len(p.coeffs) + len(q.coeffs) for p, q in bg.terms))
    makers = {mp.mpc.__new__.__code__, mp.make_mpc.__func__.__code__}
    made = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code in makers:
            made.append(frame.f_code.co_name)

    before = sys.getprofile()
    sys.setprofile(count)
    try:
        grid = coeff_grid(m, M, N, ctx30)
    finally:
        sys.setprofile(before)
    assert grid.c(M, N) != 0
    assert read == 30 and len(made) <= read, len(made)


def test_doubling_error_is_the_full_doubled_grid_value(ctx30):
    # the probes are recomputed alone at 2T nodes; they must give the same
    # doubling error as the whole grid at 2T (the C6 model)
    m = Model2D(
        2,
        (1.0, TrigBackground((0.5, 0.25j)), 0.75),
        _TRIG_CURVE,
        _BG,
    )
    M, N = 8, 4
    grid = coeff_grid(m, M, N, ctx30)
    T = 8 * max(M, math.ceil(N * max(1.0, m.curve.slope_bound())), 1)
    dense = _trapezoid_grid(m, range(-M, M + 1), range(-N, N + 1), ctx30, 2 * T)
    probes = [(M, N), (-3, -1), (1, 1), (0, 2)]
    with ctx30.workprec():
        worst = max(
            abs(grid.c(wx, wy) - dense[wx + M][wy + N]) for wx, wy in probes
        )
    assert grid.diagnostics["doubling_error"] == float(worst)
    assert grid.diagnostics["doubling_error"] < 1e-25


@pytest.mark.slow
def test_trapezoid_grid_against_oracle(ctx15):
    m = _trig_model()
    grid = coeff_grid(m, 4, 2, ctx15)
    assert grid.diagnostics["method"] == "trapezoid"
    assert grid.diagnostics["doubling_error"] < 1e-12
    entries = [(0, 1), (2, -1), (1, 0), (-3, 2)]
    with ctx15.workprec():
        refs = quadrature2d_oracle(m, entries, ctx15)
        for (wx, wy), ref in zip(entries, refs):
            assert abs(grid.c(wx, wy) - ref) < 1e-8


@pytest.mark.slow
def test_oracle_on_pure_background(ctx15):
    m = Model2D(0, (0.0,), Curve("identity"), _BG)
    entries = [(0, 0), (1, -1), (1, 1)]
    with ctx15.workprec():
        refs = quadrature2d_oracle(m, entries, ctx15)
        for (wx, wy), ref in zip(entries, refs):
            assert abs(ref - _BG.coeff2d(wx, wy)) < 1e-10


def test_oracle_node_floor(ctx15):
    with pytest.raises(ValueError):
        quadrature2d_oracle(Model2D.canonical(1), [(0, 1)], ctx15, nodes=128)


def _sign(lines):
    """File text of ``lines`` with its sha256 trailer, as save_grid ends it."""
    body = "".join(line + "\n" for line in lines)
    return body + f"sha256 {hashlib.sha256(body.encode()).hexdigest()}\n"


def _flip_hex_digit(line):
    """``line`` with the last mantissa digit of its real part changed."""
    at = line.index("p", line.index(", ", line.index(", ") + 1))
    digit = format((int(line[at - 1], 16) + 1) % 16, "x")
    return line[:at - 1] + digit + line[at:]


def test_grid_round_trip(tmp_path, ctx30):
    m = _trig_model()
    grid = coeff_grid(m, 3, 2, ctx30)
    path = tmp_path / "grid.fec"
    save_grid(grid, path, 30)
    first = path.read_text().splitlines()[0]
    assert first.startswith("{") and '"M": 3' in first and '"format": 2' in first
    back = load_grid(path)
    assert back.M == 3 and back.N == 2
    for wx in range(-3, 4):
        for wy in range(-2, 3):
            # both parts' raw (sign, mantissa, exponent, bitcount), bit for bit
            assert back.c(wx, wy)._mpc_ == grid.c(wx, wy)._mpc_


def test_save_grid_rounds_once_to_the_header_precision(tmp_path):
    with mp.workdps(50):
        v = mp.mpc(1, 2) / 3
    path = tmp_path / "grid.fec"
    save_grid(CoeffGrid2D(0, 0, ((v,),)), path, 20)
    with mp.workdps(20):
        assert load_grid(path).c(0, 0)._mpc_ == (+v)._mpc_ != v._mpc_


def test_save_grid_bytes_for_parts_finer_and_coarser_than_the_header(tmp_path):
    # entries finer than the header precision are rounded, coarser ones and
    # plain numbers are written as they are; the trailer pins every byte
    with mp.workdps(50):
        fine = mp.mpc(1, 2) / 3
        mixed = mp.mpc(mp.mpf(1) / 7, "0.25")
        neg = -mp.mpc(mp.pi, mp.e)
    with mp.workdps(10):
        coarse = mp.mpc(1, 2) / 3
    values = ((fine, mixed, 0), (neg, coarse, 1.5),
              (-2, 0.1 + 0.3j, mp.mpc(0, -3)))
    path = tmp_path / "grid.fec"
    save_grid(CoeffGrid2D(1, 1, values), path, 20)
    lines = path.read_text().splitlines()
    assert lines[2] == "-1, 0, 249249249249249249p-72, 1p-2"
    assert lines[5] == "0, 0, 1555555555p-38, 1555555555p-37"
    assert lines[-1] == ("sha256 07321e23ea043d4a1d7849cc4a7f95e7"
                         "cff7eb6afb0c3ec2b7311968c5d1a571")


def test_load_grid_refuses_edited_files(tmp_path, ctx15):
    path = tmp_path / "grid.fec"
    save_grid(coeff_grid(_trig_model(), 3, 2, ctx15), path, 15)
    header, *lines, trailer = path.read_text().splitlines()
    edits = {
        "body digit": [header, *lines[:7], _flip_hex_digit(lines[7]), *lines[8:]],
        "header M": [header.replace('"M": 3', '"M": 4'), *lines],
    }
    for body in edits.values():
        path.write_text("\n".join([*body, trailer]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: sha256 checksum")):
            load_grid(path)
    path.write_text("\n".join([header, *lines]) + "\n")
    with pytest.raises(ValueError, match="not a sha256 trailer"):
        load_grid(path)


def test_load_grid_refuses_decimal_files(tmp_path):
    # format 1: a header without "format" and full-precision decimal parts;
    # and first lines that are no format-2 header, refused before the checksum
    path = tmp_path / "grid.fec"
    body = "0, 0, 1.00000000000000, 0.0\n"
    no_header = "line 1 is not a JSON header with integer M, N and precision"
    headers = {
        '{"M": 0, "N": 0, "precision": 15}': "grid file format 1 .*re-run generate",
        '{"format": 2, "M": 0, "precision": 15}': no_header,
        '{"format": 2, "M": 0, "N": 0, "precision": 1.5}': no_header,
        "format 2, M 0, N 0": no_header,
        "[2, 0, 0, 15]": no_header,
        '{"format": 2, "M": -1, "N": 0, "precision": 15}':
            "header M=-1, N=0 must be >= 0",
        # written before save_grid refused it, such a file loaded with
        # 1-bit entries under "precision": 0
        '{"format": 2, "M": 0, "N": 0, "precision": 0}':
            "header precision=0 must be >= 15",
        '{"format": 2, "M": 0, "N": 0, "precision": 14}':
            "header precision=14 must be >= 15",
    }
    for header, message in headers.items():
        path.write_text(f"{header}\n{body}")
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + message):
            load_grid(path)


@pytest.mark.parametrize("digits", [0, -5, 14, 15.0, True, "20"])
def test_save_grid_refuses_a_precision_below_the_context_floor(tmp_path, digits):
    # precision 0 wrote 1-bit entries (-0.0298 as -0.03125)
    path = tmp_path / "grid.fec"
    with pytest.raises(ValueError, match=re.escape(
            f"precision_digits must be an int >= 15, got {digits!r}")):
        save_grid(CoeffGrid2D(0, 0, ((mp.mpf("-0.0298"),),)), path, digits)
    assert not path.exists()


def test_save_grid_refuses_non_finite_entries(tmp_path):
    values = ((0, 1, 2), (3, 4, 5), (mp.mpc(6, mp.nan), 7, 8))
    with pytest.raises(ValueError, match=r"grid entry \(1, -1\) is not finite"):
        save_grid(CoeffGrid2D(1, 1, values), tmp_path / "grid.fec", 15)


def test_load_grid_normalises_even_mantissas(tmp_path):
    # save_grid writes odd mantissas, which load as they stand; a hand-written
    # even or zero mantissa must load normalised, or mpmath arithmetic on it
    # goes wrong
    path = tmp_path / "grid.fec"
    header = '{"format": 2, "M": 0, "N": 1, "precision": 15}'
    path.write_text(_sign([header, "0, -1, -c0p-8, 0p5", "0, 0, 3p-1, -18p2",
                           "0, 1, -1p0, 0p0"]))
    grid = load_grid(path)
    with mp.workdps(15):
        want = (mp.mpc("-0.75", 0), mp.mpc("1.5", -96), mp.mpc(-1, 0))
    for wy, v in zip((-1, 0, 1), want):
        assert grid.c(0, wy)._mpc_ == v._mpc_
    assert grid.c(0, -1)._mpc_[0] == (1, 3, -2, 2)
    assert grid.c(0, 0)._mpc_[1] == (1, 3, 5, 2)
    with mp.workdps(15):
        assert grid.c(0, 0) * 2 == mp.mpc(3, -192)


@pytest.mark.parametrize("entry", [
    "0, 1, 3p0", "0, 1, zzp-3, 1p0", "0, 1, 3, 1p0", "0, 1, 1p2.5, 1p0",
], ids=["three fields", "non-hex mantissa", "no p", "non-integer exponent"])
def test_load_grid_names_the_line_of_a_malformed_entry(tmp_path, ctx15, entry):
    # the file is signed again, so the parser, not the checksum, refuses it
    path = tmp_path / "grid.fec"
    save_grid(coeff_grid(Model2D.canonical(1), 3, 2, ctx15), path, 15)
    header, *lines, _ = path.read_text().splitlines()  # 7 * 5 = 35 entries
    assert lines[18].startswith("0, 1, ")  # line 20 of the file
    lines[18] = entry
    path.write_text(_sign([header, *lines]))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: line 20 is not 'omega_x, omega_y, re, im'")):
        load_grid(path)


def test_load_grid_requires_every_entry_once(tmp_path, ctx15):
    path = tmp_path / "grid.fec"
    save_grid(coeff_grid(Model2D.canonical(1), 3, 2, ctx15), path, 15)
    header, *lines, _ = path.read_text().splitlines()  # 7 * 5 = 35 entries
    cases = {
        "17 missing, 0 duplicate and 0 out-of-range": lines[:18],
        "0 missing, 1 duplicate and 0 out-of-range": lines + lines[4:5],
        "0 missing, 0 duplicate and 1 out-of-range": lines + ["4, 0, 1p0, 0p0"],
    }
    for message, body in cases.items():
        path.write_text(_sign([header, *body]))
        with pytest.raises(ValueError, match=message):
            load_grid(path)


def _dense_model(M, N, d_model=3):
    """Identity-curve model whose grid has no zero entry."""
    with mp.workdps(30):
        def spectrum(a0, phi):
            return TrigBackground(tuple(
                mp.mpf(a0) * mp.mpf(0.5) ** k * mp.expj(phi * k)
                for k in range(M + N + 1)))

        profiles = tuple(spectrum(1 / (1 + l), 0.3 + l) for l in range(d_model + 1))
        background = Background2D(((spectrum(0.4, -1.1), TrigBackground((0.3,))),))
    return Model2D(d_model, profiles, Curve("identity"), background)


def test_reconstruction_from_a_saved_grid_is_the_in_memory_one(tmp_path, ctx30):
    grid = coeff_grid(_dense_model(16, 4), 16, 4, ctx30)
    path = tmp_path / "grid.fec"
    save_grid(grid, path, 30)
    xs, ys = (-1.3, 0.4, 2.2), (-3.0, -0.5, 1.0, 2.9)
    got, want = (reconstruct_field(g, 3, 2, xs, ctx30) for g in (load_grid(path), grid))
    assert not got.failures and not got.psi.degraded
    for x in xs:
        a, b = got.slices[x], want.slices[x]
        assert a.xi_tilde._mpf_ == b.xi_tilde._mpf_
        assert [m._mpc_ for m in a.magnitudes_tilde] == [
            m._mpc_ for m in b.magnitudes_tilde]
        assert [a.value(y, ctx30)._mpf_ for y in ys] == [
            b.value(y, ctx30)._mpf_ for y in ys]


def test_save_grid_bytes_of_a_dense_grid(tmp_path):
    # every entry of this grid is nonzero; grid files are pinned byte for
    # byte, whatever holds the entries in memory
    path = tmp_path / "grid.fec"
    save_grid(coeff_grid(_dense_model(8, 3), 8, 3, ArithmeticContext(30)),
              path, 30)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "22e5abf00b6eddd0355f8ca1c356b799ce7a4df6e0910fe855d996d7f03754b4")


def test_load_grid_keeps_ints_not_mpc(tmp_path):
    # a dense grid of the benchmark's size, N = 12 and M = 144: its 7225
    # entries held as mpc kept 3.0-3.3 MB under tracemalloc (peak 3.07-3.33
    # MB); held as the ints of their parts they keep 1.0 MB (peak 1.06 MB)
    path = tmp_path / "grid.fec"
    grid = coeff_grid(_dense_model(144, 12, 11), 144, 12, ArithmeticContext(60))
    save_grid(grid, path, 60)
    del grid
    gc.collect()
    tracemalloc.start()
    try:
        grid = load_grid(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.c(144, 12) != 0
    assert kept < 2.0e6 and peak < 3.07e6, (kept, peak)
