"""Float64-node Gauss-Legendre quadrature oracles, split at the jump.

They check the closed-form synthesis of model1d and model2d independently,
for the tests and ``cli verify``; numpy is needed only here.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp

from .model1d import JumpModel1D, eval_model
from .model2d import Model2D, eval2d
from .numerics import ArithmeticContext

_GL32 = np.polynomial.legendre.leggauss(32)


def _composite_gl(f, a, b, nodes: int):
    """Composite 32-point Gauss-Legendre of f over [a, b] under caller prec."""
    panels = max(1, math.ceil(nodes / 32))
    t, w = _GL32
    a = mp.mpf(a)
    b = mp.mpf(b)
    h = (b - a) / panels
    half = h / 2
    acc = mp.mpc(0)
    for p in range(panels):
        mid = a + p * h + half
        for ti, wi in zip(t, w):
            acc += mp.mpf(wi) * f(mid + half * mp.mpf(ti))
    return acc * half


def quadrature_oracle(
    m: JumpModel1D, k: int, ctx: ArithmeticContext, nodes: int = 1024
):
    """Independent (1/2pi) integral of f(x) exp(-ikx) over one period.

    Splits the period at the jump so each segment is smooth, then applies
    composite 32-point Gauss-Legendre with roughly `nodes` points total
    (at least 1024).  Float64 node locations; accuracy ~1e-14, far beyond
    the 1e-8/1e-10 oracle tolerances this backs.
    """
    if nodes < 1024:
        raise ValueError(f"nodes must be >= 1024, got {nodes}")
    with ctx.workprec():
        xi = mp.mpf(m.xi)
        pi = mp.pi

        def g(x):
            return eval_model(m, x, ctx) * mp.expj(-k * x)

        segs = [(-pi, xi), (xi, pi)] if -pi < xi else [(-pi, pi)]
        total = mp.mpc(0)
        for lo, hi in segs:
            if hi > lo:
                frac = float((hi - lo) / (2 * pi))
                total += _composite_gl(g, lo, hi, max(32, round(nodes * frac)))
        return total / (2 * pi)


_ORACLE_CACHE: dict = {}


def _oracle_nodes(m: Model2D, ctx: ArithmeticContext, nodes: int):
    """Cached 2D quadrature nodes/weights/values with a y-split at the curve."""
    key = (m, nodes, ctx.precision_digits)
    hit = _ORACLE_CACHE.get(key)
    if hit is not None:
        return hit
    t32, w32 = _GL32
    with ctx.workprec():
        pi = mp.pi
        x_panels = max(1, nodes // 32)
        hx = 2 * pi / x_panels
        entries = []
        for px in range(x_panels):
            for ti, wi in zip(t32, w32):
                x = -pi + px * hx + hx / 2 * (1 + mp.mpf(ti))
                wx_weight = mp.mpf(wi) * hx / 2
                xi = m.curve.xi(x, ctx)
                # wrap the split point into the base period
                xi = xi - 2 * pi * mp.floor((xi + pi) / (2 * pi))
                inner = []
                segs = [(-pi, xi), (xi, pi)] if -pi < xi < pi else [(-pi, pi)]
                for lo, hi in segs:
                    frac = float((hi - lo) / (2 * pi))
                    y_panels = max(1, round(nodes * frac / 32))
                    hy = (hi - lo) / y_panels
                    for py in range(y_panels):
                        for tj, wj in zip(t32, w32):
                            y = lo + py * hy + hy / 2 * (1 + mp.mpf(tj))
                            wy_weight = mp.mpf(wj) * hy / 2
                            inner.append((y, wy_weight, eval2d(m, x, y, ctx)))
                entries.append((x, wx_weight, inner))
    out = (entries, {})
    _ORACLE_CACHE[key] = out
    return out


def quadrature2d_oracle(
    m: Model2D, wx: int, wy: int, ctx: ArithmeticContext, nodes: int = 512
):
    """Independent double integral for one grid entry.

    Gauss-Legendre panels on both axes with the y-range split at the curve,
    ~`nodes` points per axis (>= 512).  Model values are cached per
    (model, nodes, precision), and inner y-sums are cached per wy, so
    verifying a batch of entries costs one model sweep plus cheap sums.
    """
    if nodes < 512:
        raise ValueError(f"nodes must be >= 512, got {nodes}")
    entries, inner_cache = _oracle_nodes(m, ctx, nodes)
    with ctx.workprec():
        key = wy
        sums = inner_cache.get(key)
        if sums is None:
            sums = [
                sum(
                    (wyw * fv * mp.expj(-wy * y) for y, wyw, fv in inner),
                    mp.mpc(0),
                )
                for _, _, inner in entries
            ]
            inner_cache[key] = sums
        total = mp.mpc(0)
        for (x, wxw, _), s in zip(entries, sums):
            total += wxw * s * mp.expj(-wx * x)
        return total / (4 * mp.pi ** 2)
