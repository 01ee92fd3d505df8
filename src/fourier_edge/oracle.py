"""Float64-node Gauss-Legendre quadrature oracles, split at the jump.

They check the closed-form synthesis of model1d and model2d independently,
for the tests and ``cli verify``; numpy is needed only here.  Both rest on
one transform of a 1D model split at its jump: the 2D oracle applies it to
the slice ``Model2D.slice(x)`` at each x node.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp

from .model1d import JumpModel1D, eval_model
from .model2d import Model2D
from .numerics import ArithmeticContext

_GL32 = np.polynomial.legendre.leggauss(32)


def _gl_nodes(lo, hi, panels: int):
    """(node, weight) pairs of composite 32-point Gauss-Legendre on [lo, hi],
    under caller precision."""
    h = (hi - lo) / panels
    for p in range(panels):
        for t, w in zip(*_GL32):
            yield lo + p * h + h / 2 * (1 + mp.mpf(t)), mp.mpf(w) * h / 2


def _composite_gl(f, a, b, nodes: int):
    """Composite 32-point Gauss-Legendre of f over [a, b] under caller prec."""
    panels = max(1, math.ceil(nodes / 32))
    return sum((w * f(x) for x, w in _gl_nodes(mp.mpf(a), mp.mpf(b), panels)),
               mp.mpc(0))


def _split_transform(m: JumpModel1D, ks, ctx: ArithmeticContext, nodes: int):
    """(1/2pi) integral of f(y) exp(-iky) over one period for each k in
    ``ks``, under caller precision: the period is split at the jump, and each
    smooth segment gets composite 32-point Gauss-Legendre on its share of
    about ``nodes`` points (32 at least).  f is evaluated once per node."""
    xi, pi = mp.mpf(m.xi), mp.pi
    values = []  # (node, weight * f(node))
    for lo, hi in [(-pi, xi), (xi, pi)] if -pi < xi else [(-pi, pi)]:
        share = max(32, round(nodes * float((hi - lo) / (2 * pi))))
        for y, w in _gl_nodes(lo, hi, math.ceil(share / 32)):
            values.append((y, w * eval_model(m, y, ctx)))
    return [sum((wf * mp.expj(-k * y) for y, wf in values), mp.mpc(0)) / (2 * pi)
            for k in ks]


def quadrature_oracle(
    m: JumpModel1D, k: int, ctx: ArithmeticContext, nodes: int = 1024
):
    """Independent (1/2pi) integral of f(x) exp(-ikx) over one period: the
    split transform on about `nodes` points (at least 1024).  Float64 node
    locations; accuracy ~1e-14, far beyond the 1e-8/1e-10 oracle tolerances
    this backs.
    """
    if nodes < 1024:
        raise ValueError(f"nodes must be >= 1024, got {nodes}")
    with ctx.workprec():
        return _split_transform(m, (k,), ctx, nodes)[0]


def quadrature2d_oracle(
    m: Model2D, entries, ctx: ArithmeticContext, nodes: int = 512
) -> list:
    """Independent double integrals for a batch of grid entries (wx, wy),
    one value per entry: Gauss-Legendre panels in x with ~`nodes` points
    (>= 512), and at each x node the split transform of the slice
    ``m.slice(x)`` for every distinct wy, summed over x.  So the curve and
    the profiles are evaluated once per x node.
    """
    if nodes < 512:
        raise ValueError(f"nodes must be >= 512, got {nodes}")
    with ctx.workprec():
        wys = sorted({wy for _, wy in entries})
        rows = [(x, w, dict(zip(wys, _split_transform(m.slice(x, ctx), wys,
                                                      ctx, nodes))))
                for x, w in _gl_nodes(-mp.pi, mp.pi, max(1, nodes // 32))]
        return [sum((w * row[wy] * mp.expj(-wx * x) for x, w, row in rows),
                    mp.mpc(0)) / (2 * mp.pi) for wx, wy in entries]
