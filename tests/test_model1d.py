"""Model synthesis tests: trig backgrounds, jump models, coefficient vectors.

The closed-form synthesizer is checked against slow Gauss-Legendre
quadrature of the pointwise model.  A few coefficients of one fixed model
are frozen as literals; they were produced by the quadrature path at 4096
nodes and are stable to ~1e-20 under node doubling.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from fourier_edge import (
    ArithmeticContext,
    CoeffVector1D,
    JumpModel1D,
    TrigBackground,
    eval_model,
    synth_coeffs,
)
from fourier_edge.kernels import v_fourier_coeff
from fourier_edge.oracle import quadrature_oracle

# fixed reference model for the frozen-value checks
_FROZEN_MODEL = JumpModel1D(
    0.5, (1.25, -0.5), TrigBackground((0.2, 0.05 + 0.125j))
)
# quadrature results, 25 digits
_FROZEN_COEFFS = {
    0: ("0.2", "0.0"),
    3: (
        "-0.06552298657776337394467184",
        "-0.01351069847898294691837957",
    ),
    7: (
        "0.008448609902403394945286497",
        "0.02718427370593759642921276",
    ),
}


def test_trig_background_requires_real_mean():
    with pytest.raises(ValueError):
        TrigBackground((0.1 + 0.2j, 0.3))
    with pytest.raises(ValueError):
        TrigBackground(())


def test_trig_background_coeff_symmetry(ctx15):
    g = TrigBackground((0.5, 0.1 - 0.2j, 0.3j))
    assert g.bandwidth == 2
    with ctx15.workprec():
        for k in (1, 2):
            assert g.coeff(-k) == mp.conj(g.coeff(k))
        assert g.coeff(5) == 0
        assert g.coeff(-9) == 0


def test_trig_background_eval_matches_exponential_sum(ctx30):
    g = TrigBackground((0.5, 0.1 - 0.2j, 0.3j))
    with ctx30.workprec():
        for x in ("-2.2", "0.0", "1.31"):
            xm = mp.mpf(x)
            direct = sum(
                g.coeff(k) * mp.expj(k * xm) for k in range(-2, 3)
            )
            assert abs(direct.imag) < mp.mpf(10) ** -28
            assert abs(g.eval(xm, ctx30) - direct.real) < mp.mpf(10) ** -28


def test_jump_model_validation():
    with pytest.raises(ValueError):
        JumpModel1D(3.5, (1.0,))
    with pytest.raises(ValueError):
        JumpModel1D(math.pi, (1.0,))
    assert JumpModel1D(-math.pi, (1.0,)).d == 0
    assert JumpModel1D(0.0, ()).d == -1  # smooth-only
    # the location is compared with pi at its own precision: within 1e-20
    # of pi is inside at 50 digits, where a float rounding read it as pi
    with mp.workdps(50):
        tiny = mp.mpf(10) ** -20
        inside = mp.pi - tiny
        outside = (mp.pi + tiny, -mp.pi - tiny)
    assert JumpModel1D(inside, (1.0,)).xi == inside
    assert JumpModel1D(-inside, (1.0,)).xi == -inside
    for xi in outside:  # also when the caller is back at 15 digits
        with pytest.raises(ValueError, match="outside"):
            JumpModel1D(xi, (1.0,))
    with mp.workdps(50), pytest.raises(ValueError, match="outside"):
        JumpModel1D(+mp.pi, (1.0,))  # pi itself, at 50 digits


def test_decimal_string_location_is_compared_at_its_digits():
    # pi = 3.14159265358979323846264338327950288419...; at 53 bits both
    # strings read as pi, and the one below it was refused
    below = "3.14159265358979323846264338327950288"
    above = "3.14159265358979323846264338327950289"
    for xi in (below, "-" + below):
        m = JumpModel1D(xi, (1.0, 0.5))
        assert m.xi == xi
    for xi in (above, "-" + above):
        with pytest.raises(ValueError, match="outside"):
            JumpModel1D(xi, (1.0,))
    ctx = ArithmeticContext(50)
    c = synth_coeffs(JumpModel1D(below, (1.0, 0.5)), 4, ctx)
    with ctx.workprec():
        want = (v_fourier_coeff(0, below, 3, ctx)
                + 0.5 * v_fourier_coeff(1, below, 3, ctx))
        assert abs(c.c(3) - want) < mp.mpf(10) ** -48


def test_smooth_part_is_a_trig_polynomial(ctx30):
    # no smooth part is the zero polynomial, stored as one
    zero = TrigBackground((0,))
    assert JumpModel1D(0.3, (1.0,)).smooth == zero
    assert JumpModel1D(0.3, (1.0,), None).smooth == zero
    g = TrigBackground((0.25, 0.1))
    assert JumpModel1D(0.3, (1.0,), g).smooth is g
    with ctx30.workprec():
        bare, none = (eval_model(JumpModel1D(0.3, (1.0,), s), 1.0, ctx30)
                      for s in (zero, None))
        assert bare._mpf_ == none._mpf_


def test_coeff_vector_shape_and_indexing():
    v = CoeffVector1D(2, (1, 2, 3, 4, 5))
    assert v.c(-2) == 1 and v.c(0) == 3 and v.c(2) == 5
    with pytest.raises(ValueError):
        v.c(3)
    with pytest.raises(ValueError):
        CoeffVector1D(2, (1, 2, 3))
    with pytest.raises(ValueError):
        CoeffVector1D(-1, ())


def test_eval_model_jump_size(ctx30):
    # order-0 magnitude is the value jump; check by straddling the location
    m = JumpModel1D(0.35, (1.2,), TrigBackground((0.25, 0.1)))
    with ctx30.workprec():
        h = mp.mpf(10) ** -9
        right = eval_model(m, mp.mpf("0.35"), ctx30)
        left = eval_model(m, mp.mpf("0.35") - h, ctx30)
        assert abs((right - left) - mp.mpf("1.2")) < 1e-7


def test_eval_model_right_continuous_at_jump(ctx30):
    m = JumpModel1D(-1.0, (0.7, -0.4))
    with ctx30.workprec():
        h = mp.mpf(10) ** -12
        at = eval_model(m, -1.0, ctx30)
        right = eval_model(m, -1.0 + h, ctx30)
        assert abs(at - right) < 1e-10


def test_synth_exact_conjugate_symmetry(ctx15):
    c = synth_coeffs(_FROZEN_MODEL, 12, ctx15)
    with ctx15.workprec():
        for k in range(1, 13):
            assert c.c(-k) == mp.conj(c.c(k))  # exact, built by mirroring
        assert c.c(0).imag == 0


def test_synth_zero_mode_is_background_mean(ctx15):
    with ctx15.workprec():
        c = synth_coeffs(_FROZEN_MODEL, 4, ctx15)
        assert abs(c.c(0) - mp.mpf(0.2)) < 1e-15
        pure = synth_coeffs(JumpModel1D(0.5, (1.0, 2.0)), 4, ctx15)
        assert pure.c(0) == 0


def test_synth_matches_frozen_quadrature_values(ctx30):
    c = synth_coeffs(_FROZEN_MODEL, 8, ctx30)
    with ctx30.workprec():
        for k, (re, im) in _FROZEN_COEFFS.items():
            want = mp.mpc(mp.mpf(re), mp.mpf(im))
            # 1e-15 leaves room for the oracle's float64-weight floor
            assert abs(c.c(k) - want) < 1e-15


def test_synth_matches_live_quadrature(ctx15):
    m = JumpModel1D(-0.8, (0.9, 0.0, 0.3), TrigBackground((0.0, 0.2j)))
    c = synth_coeffs(m, 10, ctx15)
    with ctx15.workprec():
        for k in (1, 2, 5, 10):
            ref = quadrature_oracle(m, k, ctx15)
            assert abs(c.c(k) - ref) < 1e-12


def test_synth_matches_mpc_closed_form_at_higher_precision():
    # the fixed-point kernel against v_fourier_coeff at 70 digits, which
    # shares no code with it: C1-style stacks at d = 9, M = 200, 50 digits,
    # and a stack with only its top order, whose sum falls like k^-10
    # below the largest magnitude
    ctx, ref_ctx = ArithmeticContext(50), ArithmeticContext(70)
    rng = random.Random(5)
    models = [
        JumpModel1D(rng.uniform(-3.0, 3.0),
                    tuple(rng.uniform(-2.0, 2.0) for _ in range(10)))
        for _ in range(2)
    ] + [JumpModel1D(-2.9, (0,) * 9 + (1.5,))]
    for m in models:
        c = synth_coeffs(m, 200, ctx)
        with ref_ctx.workprec():
            for k in range(1, 201):
                ref = sum(mp.mpf(a) * v_fourier_coeff(l, m.xi, k, ref_ctx)
                          for l, a in enumerate(m.magnitudes))
                assert abs(c.c(k) - ref) <= mp.mpf("1e-48") * abs(ref)
                assert c.c(-k) == mp.conj(c.c(k))
        assert c.c(0) == 0


@pytest.mark.parametrize("model, name", [
    (JumpModel1D(0.5, (1.0, math.nan)), "magnitude A_1"),
    (JumpModel1D(0.5, (math.inf,)), "magnitude A_0"),
    (JumpModel1D(0.5, (1.0,), TrigBackground((0.1, 0.2, math.nan))),
     "background coefficient g_2"),
])
def test_synth_refuses_non_finite_inputs(model, name, ctx15):
    with pytest.raises(ValueError, match=f"non-finite {name}"):
        synth_coeffs(model, 4, ctx15)


def test_smooth_only_model_reduces_to_trig_coeffs(ctx15):
    g = TrigBackground((0.4, 0.1 + 0.3j, -0.2j))
    m = JumpModel1D(0.0, (), g)
    c = synth_coeffs(m, 5, ctx15)
    with ctx15.workprec():
        for k in range(-5, 6):
            assert abs(c.c(k) - g.coeff(k)) < 1e-15


def test_quadrature_oracle_on_pure_trig(ctx15):
    # validates the oracle itself on a case with exactly known coefficients
    g = TrigBackground((0.3, -0.25 + 0.15j))
    m = JumpModel1D(0.0, (), g)
    with ctx15.workprec():
        for k in (-1, 0, 1, 2):
            ref = quadrature_oracle(m, k, ctx15)
            assert abs(ref - g.coeff(k)) < 1e-12


def test_quadrature_oracle_rejects_small_node_counts(ctx15):
    with pytest.raises(ValueError):
        quadrature_oracle(_FROZEN_MODEL, 1, ctx15, nodes=256)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(-3.0, 3.0),
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
)
def test_synth_quadrature_agreement_property(xi, mags):
    # random pure-jump models; both coefficient paths must agree
    ctx = ArithmeticContext(precision_digits=15)
    m = JumpModel1D(xi, tuple(mags))
    with ctx.workprec():
        c = synth_coeffs(m, 3, ctx)
        for k in (1, 3):
            ref = quadrature_oracle(m, k, ctx)
            assert abs(c.c(k) - ref) < 1e-11
