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


def _gl_nodes(lo, hi, panels: int):
    """(node, weight) pairs of composite 32-point Gauss-Legendre on [lo, hi],
    under caller precision."""
    h = (hi - lo) / panels
    for p in range(panels):
        for t, w in zip(*_GL32):
            yield lo + p * h + h / 2 * (1 + mp.mpf(t)), mp.mpf(w) * h / 2


def quadrature2d_oracle(
    m: Model2D, entries, ctx: ArithmeticContext, nodes: int = 512
) -> list:
    """Independent double integrals for a batch of grid entries.

    ``entries`` is a list of (wx, wy); one value is returned per entry.
    Gauss-Legendre panels on both axes with the y-range split at the curve,
    ~`nodes` points per axis (>= 512).  The model is evaluated once per node;
    each x node keeps only its inner y-sums, one per distinct wy, so a batch
    costs one model sweep plus cheap sums and holds the model values of one
    x node at a time.
    """
    if nodes < 512:
        raise ValueError(f"nodes must be >= 512, got {nodes}")
    with ctx.workprec():
        pi = mp.pi
        x_nodes = []
        sums = {wy: [] for _, wy in entries}
        for x, x_weight in _gl_nodes(-pi, pi, max(1, nodes // 32)):
            xi = m.curve.xi(x, ctx)
            # wrap the split point into the base period
            xi = xi - 2 * pi * mp.floor((xi + pi) / (2 * pi))
            inner = []
            segs = [(-pi, xi), (xi, pi)] if -pi < xi < pi else [(-pi, pi)]
            for lo, hi in segs:
                y_panels = max(1, round(nodes * float((hi - lo) / (2 * pi)) / 32))
                for y, y_weight in _gl_nodes(lo, hi, y_panels):
                    inner.append((y, y_weight, eval2d(m, x, y, ctx)))
            x_nodes.append((x, x_weight))
            for wy, per_x in sums.items():
                terms = (wyw * fv * mp.expj(-wy * y) for y, wyw, fv in inner)
                per_x.append(sum(terms, mp.mpc(0)))
        out = []
        for wx, wy in entries:
            total = mp.mpc(0)
            for (x, wxw), s in zip(x_nodes, sums[wy]):
                total += wxw * s * mp.expj(-wx * x)
            out.append(total / (4 * mp.pi ** 2))
        return out
