"""In-memory span recorder for the traced benchmark run.

`Recorder.install` rebinds the public names of the traced functions in every
``fourier_edge`` module that holds them, so each call between layers passes
through a wrapper that records one span.  The package source is not touched;
`uninstall` puts the original functions back.

A span is (name, start, end, parent, op).  Spans are kept in memory and
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional

# (module, function) pairs whose calls become spans, named "module.function".
TRACED = (
    ("numerics", "poly_roots"),
    ("numerics", "vandermonde_solve"),
    ("kernels", "v_kernel"),
    ("model1d", "synth_coeffs"),
    ("recon1d", "moments"),
    ("recon1d", "half_order_localize"),
    ("recon1d", "full_order_localize"),
    ("recon1d", "solve_magnitudes"),
    ("recon1d", "solve_magnitudes_known_jump"),
    ("recon1d", "residual_coeffs"),
    ("recon1d", "evaluate_complex"),
    ("recon1d", "reconstruct1d"),
    ("model2d", "coeff_grid"),
    ("model2d", "save_grid"),
    ("model2d", "load_grid"),
    ("model2d", "eval2d"),
    ("recon2d", "reconstruct_psi_set"),
    ("recon2d", "slice_coeff_vector"),
    ("recon2d", "reconstruct_slice"),
    ("recon2d", "reconstruct_field"),
    ("recon2d", "truncated_baseline"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root span
    op: int
    error: Optional[str] = None


class Recorder:
    """Collects spans from one process; not thread-safe (the run is serial)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        """Record a span; a root span (empty stack) must carry an op id."""
        parent = self._stack[-1] if self._stack else -1
        if op is None:
            op = self.spans[parent].op if parent >= 0 else -1
        idx = len(self.spans)
        sp = Span(name, time.perf_counter(), 0.0, parent, op)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self, package) -> None:
        """Rebind every traced function in all loaded modules of `package`."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package.__name__
                                  or n.startswith(package.__name__ + "."))
        ]
        for mod_name, fn_name in TRACED:
            home = sys.modules[f"{package.__name__}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def self_times(self) -> list:
        """Self time of every span: duration minus its direct children's."""
        out = [sp.end - sp.start for sp in self.spans]
        for sp in self.spans:
            if sp.parent >= 0:
                out[sp.parent] -= sp.end - sp.start
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")
