"""Tests for 2D models, their Fourier grids, and the grid file format.

Grid synthesis is validated against the slow 2D quadrature oracle and, for
slices, against direct 1D integration of the pointwise model.
"""

import hashlib
import math
import re

import pytest
from mpmath import mp

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
    with ctx15.workprec():
        x, y = 0.9, -0.4
        synth = mp.mpc(0)
        for wy in range(-1, 2):
            synth += _BG.slice_row(x, wy, ctx15) * mp.expj(wy * y)
        assert abs(synth.real - _BG.eval(x, y, ctx15)) < 1e-13


def test_background_type_checking():
    with pytest.raises(TypeError):
        Background2D(((TrigBackground((1.0,)), 3.0),))


# -- model -------------------------------------------------------------------

def test_canonical_model_shape():
    m = Model2D.canonical(11)
    assert m.d_model == 11
    assert m.magnitudes == (1,) * 12
    assert m.curve.kind == "identity"
    assert m.background is None


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
        assert m.magnitude_coeff(0, 0) == 2
        assert m.magnitude_coeff(0, 3) == 0
        assert m.magnitude_coeff(1, -1) == mp.mpc(0.25)


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
    with pytest.raises(ValueError):
        CoeffGrid2D(2, 1, vals[:3])


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


def test_closed_form_background_is_coeff2d_bit_for_bit(ctx30):
    # the grid converts each background term's coefficients once per wx and
    # per wy and adds their products after rounding the kernel part; every
    # entry must still be the kernel part plus Background2D.coeff2d, bit for
    # bit, in and out of the bands
    tb = TrigBackground
    bg = Background2D((
        (tb((0.1, 0.2j, 1 / 9, -0.05)), tb((0.3, -0.1, 0.2 + 1j / 11))),
        (tb((0.4, 1 / 3, 0, 0.3 - 0.2j)), tb((0, 1 / 7 + 0.25j, -0.15))),
        (tb((-0.2, 0.125j, 0.6j, 1 / 13)), tb((0.7, 1 / 3, 0.45j, 0.1))),
    ))
    profiles = (TrigBackground((0.5, 0.25j, -0.1)), 0.75)
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
                        m.magnitude_coeff(l, wx + wy)
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
])
def test_closed_form_grid_refuses_non_finite_inputs(profiles, background, name,
                                                    ctx15):
    m = Model2D(1, profiles, Curve("identity"), background)
    with pytest.raises(ValueError, match=f"non-finite {name}"):
        coeff_grid(m, 3, 2, ctx15)


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
    }
    for header, message in headers.items():
        path.write_text(f"{header}\n{body}")
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + message):
            load_grid(path)


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
        assert [m._mpc_ for m in a.recon.magnitudes_tilde] == [
            m._mpc_ for m in b.recon.magnitudes_tilde]
        assert [a.value(y, ctx30)._mpf_ for y in ys] == [
            b.value(y, ctx30)._mpf_ for y in ys]
