"""Two-stage 2D pipeline tests.

The canonical identity-curve model keeps every grid row one-sparse, which
makes the row stage exact to working precision; slice-stage tolerances
below come from measured behavior with a wide margin.
"""

import pytest
from mpmath import mp

from fourier_edge import (
    ArithmeticContext,
    CoeffGrid2D,
    LocalizationError,
    Model2D,
    coeff_grid,
    reconstruct_field,
)
from fourier_edge import recon1d, recon2d
from fourier_edge.kernels import v_fourier_coeff
from fourier_edge.model1d import CoeffVector1D
from fourier_edge.model2d import slice_coeff_exact
from fourier_edge.recon1d import evaluate_complex, reconstruct1d
from fourier_edge.recon2d import (
    reconstruct_psi_set,
    reconstruct_slice,
    slice_coeff_vector,
    truncated_baseline,
    truncated_slice,
)
from test_model2d import _dense_model
from test_recon1d import _reference_magnitudes


@pytest.fixture(scope="module")
def ctx40():
    return ArithmeticContext(precision_digits=40)


@pytest.fixture(scope="module")
def canonical_grid(ctx40):
    # N = 12, M = 144: smallest sweep geometry with a non-degenerate slice
    # stage at order 9
    return coeff_grid(Model2D.canonical(11), 144, 12, ctx40)


def test_row_stage_reconstructs_all_rows(canonical_grid, ctx40):
    psi = reconstruct_psi_set(canonical_grid, 9, ctx40)
    assert not psi.degraded
    assert set(psi.rows) == set(range(-12, 13))


def test_row_values_match_exact_slices(canonical_grid, ctx40):
    m = Model2D.canonical(11)
    psi = reconstruct_psi_set(canonical_grid, 9, ctx40)
    with ctx40.workprec():
        for wy in (-5, 1, 12):
            for x in ("-2.1", "0.7"):
                want = slice_coeff_exact(m, mp.mpf(x), wy, ctx40)
                got = psi.row_value(wy, mp.mpf(x), ctx40)
                # one-sparse rows put the row stage in its exact class
                assert abs(got - want) < mp.mpf(10) ** -30


def test_degraded_rows_fall_back_to_raw_series(ctx40):
    # M = 4 cannot host the order-9 known-jump decimation, so every row
    # degrades and row_value must equal the plain truncated series
    grid = coeff_grid(Model2D.canonical(11), 4, 3, ctx40)
    psi = reconstruct_psi_set(grid, 9, ctx40)
    assert set(psi.degraded) == set(range(-3, 4))
    assert all("LocalizationError" in r for r in psi.degraded.values())
    with ctx40.workprec():
        x = mp.mpf("0.4")
        for wy in (-2, 1):
            row = grid.row(wy)
            direct = sum(
                mp.mpc(row.c(k)) * mp.expj(k * x) for k in range(-4, 5)
            )
            assert abs(psi.row_value(wy, x, ctx40) - direct) < mp.mpf(10) ** -35


def test_slice_vector_matches_exact_coefficients(canonical_grid, ctx40):
    m = Model2D.canonical(11)
    psi = reconstruct_psi_set(canonical_grid, 9, ctx40)
    with ctx40.workprec():
        vec = slice_coeff_vector(psi, mp.mpf("1.1"), ctx40)
        assert vec.M == 12
        for wy in range(-12, 13):
            want = slice_coeff_exact(m, mp.mpf("1.1"), wy, ctx40)
            assert abs(vec.c(wy) - want) < mp.mpf(10) ** -30


def test_slice_reconstruction_accuracy(canonical_grid, ctx40):
    psi = reconstruct_psi_set(canonical_grid, 9, ctx40)
    sl = reconstruct_slice(psi, 1.1, 9, ctx40)
    with ctx40.workprec():
        # fitting order 9 to the order-11 stack leaves a location plateau
        # near 1e-7 at N = 12 (measured 7.6e-8) and magnitude errors that
        # scale like N^(l-10): sharp at the bottom of the stack, order one
        # at the top
        assert abs(sl.xi_tilde - mp.mpf(1.1)) < 1e-6
        assert abs(sl.magnitudes_tilde[0] - 1) < 1e-4
        assert abs(sl.magnitudes_tilde[2] - 1) < 1e-2
        assert abs(sl.magnitudes_tilde[9] - 1) < 50


def test_slice_stage_requires_wide_band(ctx40):
    # N = 8 < d + 2 = 11: no decimation step available
    grid = coeff_grid(Model2D.canonical(11), 64, 8, ctx40)
    psi = reconstruct_psi_set(grid, 9, ctx40)
    with pytest.raises(LocalizationError):
        reconstruct_slice(psi, 1.1, 9, ctx40)


def test_field_reconstruction_and_diagnostics(canonical_grid, ctx40):
    fld = reconstruct_field(
        canonical_grid, d_psi=9, d=9, x_points=(0.7, 1.1), ctx=ctx40
    )
    assert not fld.failures
    assert sorted(fld.slices) == [0.7, 1.1]
    for x, s in fld.slices.items():
        assert abs(s.xi_tilde - x) < 1e-6  # identity curve
    assert not fld.psi.degraded


def test_field_warns_when_underresolved(ctx40):
    grid = coeff_grid(Model2D.canonical(11), 8, 4, ctx40)
    with pytest.warns(UserWarning, match="under-resolved"):
        reconstruct_field(grid, d_psi=9, d=2, x_points=(), ctx=ctx40)


def test_failed_slices_are_contained(ctx40):
    # zero grid: the slice stage cannot localize anything, but the call
    # must return with the failure recorded instead of raising
    zero = CoeffGrid2D(
        12, 3, tuple(tuple(0 for _ in range(7)) for _ in range(25))
    )
    fld = reconstruct_field(zero, d_psi=1, d=1, x_points=(0.5,), ctx=ctx40)
    assert not fld.slices
    assert set(fld.failures) == {0.5}


def test_orders_beyond_the_kernel_table_are_contained(ctx40):
    # d = 16 needs Bernoulli order 17; the row stage degrades every row and
    # the slice stage records a failed slice instead of stopping
    grid = coeff_grid(Model2D.canonical(3), 40, 6, ctx40)
    psi = reconstruct_psi_set(grid, 16, ctx40)
    assert not psi.rows and set(psi.degraded) == set(range(-6, 7))
    assert all("d <= 15" in why for why in psi.degraded.values())
    fld = reconstruct_field(grid, d_psi=3, d=16, x_points=(0.5,), ctx=ctx40)
    assert not fld.psi.degraded and not fld.slices
    assert "d <= 15" in fld.failures[0.5]


@pytest.mark.parametrize("error", [TypeError, ValueError, ZeroDivisionError])
def test_programming_errors_propagate(error, ctx40, monkeypatch):
    # only ReconstructionError (and, per slice, RootFindingError) is
    # contained; any other exception is a bug and must not turn into a
    # degraded row or a failed slice, including the ValueError and
    # ArithmeticError families that a broad handler would catch
    grid = coeff_grid(Model2D.canonical(5), 9, 3, ctx40)

    def broken(*args, **kwargs):
        raise error("broken")

    with monkeypatch.context() as m:
        m.setattr(recon2d, "solve_magnitudes_known_jump", broken)
        with pytest.raises(error):
            reconstruct_psi_set(grid, 1, ctx40)
    monkeypatch.setattr(recon2d, "reconstruct_slice", broken)
    with pytest.raises(error):
        reconstruct_field(grid, d_psi=1, d=1, x_points=(0.5,), ctx=ctx40)


@pytest.mark.parametrize(
    "model", [Model2D.canonical(5), _dense_model(9, 3)], ids=["canonical", "dense"]
)
def test_truncated_baseline_equals_dense_sum(model, ctx40):
    # the canonical grid is one-sparse in each row; the dense one has no zero
    grid = coeff_grid(model, 9, 3, ctx40)
    with ctx40.workprec():
        x, y = mp.mpf("1.3"), mp.mpf("-0.9")
        dense = mp.mpc(0)
        for wx in range(-9, 10):
            for wy in range(-3, 4):
                dense += mp.mpc(grid.c(wx, wy)) * mp.expj(wx * x + wy * y)
        got = truncated_baseline(grid, x, y, ctx40)
        assert abs(got - dense.real) < mp.mpf(10) ** -35
        # the per-x form serves every y of the slice, bit for bit
        raw = truncated_slice(grid, x, ctx40)
        for y in ("-3.1", "-0.9", "0", "2.2"):
            want = truncated_baseline(grid, x, mp.mpf(y), ctx40)
            assert raw.value(mp.mpf(y)).real._mpf_ == want._mpf_


def test_degraded_row_fallback_refuses_non_finite_entries(ctx40):
    # a NaN in a degraded row would read as 0 in the fixed-point series
    grid = coeff_grid(Model2D.canonical(11), 4, 3, ctx40)
    values = [list(col) for col in grid.values]
    values[4 + 2][3 + 1] = mp.nan  # (wx, wy) = (2, 1)
    psi = reconstruct_psi_set(CoeffGrid2D(4, 3, values), 9, ctx40)
    assert 1 in psi.degraded
    with pytest.raises(ValueError, match="coefficient c_2"):
        psi.row_value(1, 0.4, ctx40)
    psi.row_value(2, 0.4, ctx40)  # the other rows still evaluate
    with pytest.raises(ValueError, match="coefficient c_2"):
        truncated_baseline(psi.grid, 0.4, -1.2, ctx40)


@pytest.fixture(scope="module")
def seam_heavy_grid():
    # dense identity-curve model (a_{l,k} = a_{l,0} 0.5^k e^{i phi k}): its
    # rows carry seam magnitudes up to about 7e10 at N = 12, M = 144
    return coeff_grid(_dense_model(144, 12, 11), 144, 12, ArithmeticContext(60))


def test_row_stage_holds_working_precision_at_large_seam_magnitudes(
        seam_heavy_grid):
    # the same grid's row stage at 100 digits is the reference; residual
    # coefficients rounded at 60 digits lose about eight digits here (5e-52)
    ctx, ref = ArithmeticContext(60), ArithmeticContext(100)
    psi = reconstruct_psi_set(seam_heavy_grid, 9, ctx)
    exact = reconstruct_psi_set(seam_heavy_grid, 9, ref)
    assert not psi.degraded
    with ctx.workprec():
        assert max(abs(a) for r in psi.rows.values()
                   for a in r.magnitudes_tilde) > 1e10
    for x in (-3.0, 0.7, 2.5):
        got = slice_coeff_vector(psi, x, ctx)
        want = slice_coeff_vector(exact, x, ref)
        with ref.workprec():
            err = max(abs(mp.mpc(a) - b) for a, b in zip(got.values, want.values))
            assert err < mp.mpf(10) ** -57


@pytest.fixture(scope="module")
def seam_heavy_reference(seam_heavy_grid):
    # the row stage of the same grid at 100 digits
    return reconstruct_psi_set(seam_heavy_grid, 9, ArithmeticContext(100))


def test_row_magnitudes_are_rounded_once(seam_heavy_grid, seam_heavy_reference):
    # the exact-sign integer solve of every row against the 100-digit row
    # stage, relative to the row's largest magnitude; an mpc solve at the
    # rounded pi reads 2.0e-60 here
    ctx, ref = ArithmeticContext(60), ArithmeticContext(100)
    psi = reconstruct_psi_set(seam_heavy_grid, 9, ctx)
    with ref.workprec():
        for wy, row in psi.rows.items():
            want = seam_heavy_reference.rows[wy].magnitudes_tilde
            top = max(abs(a) for a in want)
            err = max(abs(mp.mpc(a) - b)
                      for a, b in zip(row.magnitudes_tilde, want))
            assert err / top < 2e-61, wy


def test_localized_slice_solve_matches_a_higher_precision_solve(
        seam_heavy_grid):
    # the slice solve at the localized kappa against an LU solve of the same
    # data at 120 digits; an mpc solve reads about 1e-51 here
    ctx, ref = ArithmeticContext(60), ArithmeticContext(120)
    psi = reconstruct_psi_set(seam_heavy_grid, 9, ctx)
    for x in (-2.0, 0.7, 2.5):
        vec = slice_coeff_vector(psi, x, ctx)
        kappa, _, diag = recon1d.full_order_localize(vec, 9, None, ctx)
        got = recon1d.solve_magnitudes(vec, 9, kappa, ctx, diag["N1"])
        want = _reference_magnitudes(vec, 9, kappa, diag["N1"], ref)
        with ref.workprec():
            top = max(abs(w) for w in want)
            err = max(abs(mp.mpc(a) - w) for a, w in zip(got, want))
            assert err / top < 2e-61, x


def test_jump_known_record_holds_working_precision_at_large_seam_magnitudes(
        seam_heavy_grid, seam_heavy_reference):
    # the record's form is built from the unrounded residual: rounding the
    # residual of the row with max|A_l| 6.8e10 to 60 digits read 7.7e-52
    ctx, ref = ArithmeticContext(60), ArithmeticContext(100)
    with ctx.workprec():
        seam = -mp.pi
    rec = reconstruct1d(seam_heavy_grid.row(-12), 9, ctx, known_jump=seam)
    for x in (-3.0, 0.7, 2.5):
        got = evaluate_complex(rec, x, ctx)
        want = seam_heavy_reference.row_value(-12, x, ref)
        with ref.workprec():
            assert abs(mp.mpc(got) - want) < mp.mpf(10) ** -57, x


def _seam_surrogate(M, ctx):
    """C3's seam row: an order-11 stack at -pi plus a spike at k = 4."""
    with ctx.workprec():
        seam = -mp.pi
        vals = []
        for k in range(-M, M + 1):
            c = sum((mp.mpf("0.7") ** l * v_fourier_coeff(l, seam, k, ctx)
                     for l in range(12)), mp.mpc(0))
            vals.append(c + (mp.mpc("0.3", "0.2") if k == 4 else 0))
        return CoeffVector1D(M, tuple(vals))


def test_row_values_match_the_jump_known_1d_pipeline(seam_heavy_grid):
    # psi.row_value against evaluate_complex of reconstruct1d at the seam,
    # the path C3 certifies, within one rounding of the largest stack term
    ctx = ArithmeticContext(60)
    row = _seam_surrogate(256, ctx)
    surrogate = CoeffGrid2D(256, 0, tuple((v,) for v in row.values))
    cases = [(surrogate, 0), (seam_heavy_grid, -12), (seam_heavy_grid, 0),
             (seam_heavy_grid, 7)]
    with ctx.workprec():
        seam = -mp.pi
        xs = [seam, seam + mp.mpf(10) ** -50, seam - mp.mpf("0.01"),
              mp.mpf("0.7"), mp.mpf("2.9")]
    for grid, wy in cases:
        psi = reconstruct_psi_set(grid, 9, ctx)
        rec = reconstruct1d(grid.row(wy), 9, ctx, known_jump=seam)
        mags = psi.rows[wy].magnitudes_tilde
        assert [a._mpc_ for a in mags] == [a._mpc_ for a in rec.magnitudes_tilde]
        with ctx.workprec():
            tol = mp.mpf(10) ** -60 * max(1, sum(abs(a) for a in mags))
            for x in xs:
                got = psi.row_value(wy, x, ctx)
                assert abs(got - evaluate_complex(rec, x, ctx)) <= tol, (wy, x)
    # read at another precision, both rebuild their forms at that one (a
    # 60-digit row form would meet 40-digit partial sums at the wrong scale)
    low = ArithmeticContext(40)
    got = psi.row_value(wy, xs[3], low)
    with low.workprec():
        tol = mp.mpf(10) ** -40 * max(1, sum(abs(a) for a in mags))
        assert abs(got - evaluate_complex(rec, xs[3], low)) <= tol


def test_field_computes_one_residual_per_slice(canonical_grid, ctx40,
                                               monkeypatch):
    # the row stage evaluates the raw rows with their seam stacks and the
    # shared partial sums: residual vectors are built by the slice stage
    # only, once per x
    calls = []
    original = recon1d.residual_coeffs

    def spy(*args, **kwargs):
        calls.append(args[0].M)
        return original(*args, **kwargs)

    monkeypatch.setattr(recon1d, "residual_coeffs", spy)
    xs = (-2.0, 0.7, 1.1)
    fld = reconstruct_field(canonical_grid, 9, 9, xs, ctx40)
    assert sorted(fld.slices) == sorted(xs)
    assert calls == [12] * len(xs)


def test_row_stage_refuses_a_negative_order(ctx40):
    # the order check of reconstruct1d: a ValueError propagates, while an
    # order beyond the kernel table degrades each row (see above)
    grid = coeff_grid(Model2D.canonical(3), 40, 6, ctx40)
    with pytest.raises(ValueError, match="d must be >= 0"):
        reconstruct_psi_set(grid, -1, ctx40)
    with pytest.raises(ValueError, match="d must be >= 0"):
        reconstruct1d(grid.row(0), -1, ctx40)
