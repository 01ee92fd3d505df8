"""Experiment driver: generate grids, reconstruct, report convergence slopes.

Subcommands
-----------
generate      synthesize Fourier grids for a sweep of band limits and save
              them (plus the ground-truth model) under the output directory
reconstruct   run the two-stage pipeline on saved grids, compare against the
              stored truth, and append one metrics row per band limit
report        fit log-log slopes through the metrics and write a JSON report
verify        re-check a random sample of saved grid entries against the
              slow 2D quadrature oracle

All file formats are plain text: grids are format 2 (a JSON header line, one
CSV line per entry with hex-mantissa parts, and a `sha256` trailer), models
and reports JSON, metrics commented CSV.  Runs are deterministic: the only
randomness is the seeded sampler inside `verify`.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path
from typing import Optional

from mpmath import mp

from .model1d import TrigBackground
from .model2d import (
    Background2D,
    CoeffGrid2D,
    Curve,
    Model2D,
    coeff_grid,
    eval2d,
    load_grid,
    save_grid,
)
from .numerics import ArithmeticContext
from .oracle import quadrature2d_oracle
from .recon2d import reconstruct_field, truncated_slice

METRICS_HEADER = "# fourier-edge metrics v1"
# curve metrics skip slices within this distance of the period edge x = +-pi
BOUNDARY_COLLAR = math.pi / 64


@dataclass
class ExperimentConfig:
    """Everything one experiment run needs, JSON-serializable.

    M defaults to N^2 per sweep entry unless ``override_M`` is set.  Sweep
    entries with N < d + 2 cannot run the slice stage at order d; they are
    recorded as degenerate rows rather than rejected up front.
    """

    model: dict = field(
        default_factory=lambda: {"kind": "canonical", "d_model": 11}
    )
    d_psi: int = 9
    d: int = 9
    sweep_N: tuple = (8, 12, 16, 24, 32)
    override_M: Optional[int] = None
    x_points: tuple = (1.1,)
    y_count: int = 512
    precision_digits: int = 60
    exclusion_radius: float = math.pi / 8
    out_dir: str = "out"

    def __post_init__(self) -> None:
        self.sweep_N = tuple(int(n) for n in self.sweep_N)
        self.x_points = tuple(float(x) for x in self.x_points)
        if self.y_count < 8:
            raise ValueError("y_count must be >= 8")
        if self.precision_digits < 15:
            raise ValueError("precision_digits must be >= 15")
        if not 0 <= self.exclusion_radius < math.pi:
            raise ValueError("exclusion_radius outside [0, pi)")
        for name in ("d_psi", "d"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.override_M is not None and self.override_M < 1:
            raise ValueError(f"override_M must be >= 1, got {self.override_M}")
        if not self.sweep_N:
            raise ValueError("sweep_N must name at least one N")
        if any(n < 1 for n in self.sweep_N):
            raise ValueError(f"sweep_N entries must be >= 1, got {self.sweep_N}")
        if not all(-math.pi <= x < math.pi for x in self.x_points):
            raise ValueError(f"x_points outside [-pi, pi): {self.x_points}")

    def M_for(self, N: int) -> int:
        return self.override_M if self.override_M is not None else N * N

    def ctx(self) -> ArithmeticContext:
        return ArithmeticContext(self.precision_digits)

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        extra = set(data) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**data)

    def to_json(self) -> dict:
        return asdict(self)


# -- model (de)serialization -------------------------------------------------

def _cpx_list(values) -> list:
    return [
        v if isinstance(v, str) else [complex(v).real, complex(v).imag]
        for v in values
    ]


def _cpx_from_json(data) -> tuple:
    return tuple(v if isinstance(v, str) else complex(*v) for v in data)


def _trig_from_json(data) -> TrigBackground:
    return TrigBackground(_cpx_from_json(data))


def model_to_json(m: Model2D) -> dict:
    """JSON form of a model; a profile or coefficient given as a decimal
    string is written unchanged, so the truth keeps every digit of it at any
    precision."""
    mags = []
    for prof in m.magnitudes:
        if isinstance(prof, TrigBackground):
            mags.append({"coeffs": _cpx_list(prof.coeffs)})
        elif isinstance(prof, str):
            mags.append(prof)
        else:
            mags.append(float(prof))
    out = {
        "d_model": m.d_model,
        "curve": {"kind": m.curve.kind, "coeffs": _cpx_list(m.curve.coeffs)},
        "magnitudes": mags,
        "background": None,
    }
    if m.background is not None:
        out["background"] = [
            [_cpx_list(p.coeffs), _cpx_list(q.coeffs)]
            for p, q in m.background.terms
        ]
    return out


def model_from_json(data: dict) -> Model2D:
    curve = Curve(data["curve"]["kind"], _cpx_from_json(data["curve"]["coeffs"]))
    mags = [
        _trig_from_json(prof["coeffs"]) if isinstance(prof, dict) else prof
        for prof in data["magnitudes"]
    ]
    background = None
    if data.get("background"):
        background = Background2D(
            tuple(
                (_trig_from_json(p), _trig_from_json(q))
                for p, q in data["background"]
            )
        )
    return Model2D(data["d_model"], tuple(mags), curve, background)


def model_from_config(cfg: ExperimentConfig) -> Model2D:
    choice = cfg.model
    if choice.get("kind") == "canonical":
        return Model2D.canonical(choice.get("d_model", 11))
    if choice.get("kind") == "custom":
        return model_from_json(choice["definition"])
    raise ValueError(f"unknown model kind {choice.get('kind')!r}")


# -- metrics -----------------------------------------------------------------

@dataclass
class MetricsRow:
    """One sweep entry's error metrics (floats; NaN for degenerate rows)."""

    N: int
    M: int
    delta_xi: float
    delta_A: tuple
    delta_F: float
    delta_T: float
    seconds: float

    def csv(self) -> str:
        cells = [str(self.N), str(self.M), repr(self.delta_xi)]
        cells += [repr(a) for a in self.delta_A]
        cells += [repr(self.delta_F), repr(self.delta_T), f"{self.seconds:.3f}"]
        return ",".join(cells)


def metrics_columns(d: int) -> str:
    names = ["N", "M", "delta_xi"]
    names += [f"delta_A_{l}" for l in range(d + 1)]
    names += ["delta_F", "delta_T", "seconds"]
    return ",".join(names)


def _circle_gap(a, b):
    """Angular distance |a - b| on the circle, caller holds precision."""
    g = mp.mpf(a) - mp.mpf(b)
    two_pi = 2 * mp.pi
    g = g - two_pi * mp.floor((g + mp.pi) / two_pi)
    return abs(g)


def compute_metrics(
    model: Model2D,
    grid: CoeffGrid2D,
    cfg: ExperimentConfig,
    N: int,
) -> MetricsRow:
    """Run the pipeline on one grid and compare against the model truth.

    The row is all NaN when N < d + 2, when a slice failed, or when every
    row of the row stage degraded (the slices would then come from raw
    truncated series, not from the method).  A metric that measured no
    point (every x in the boundary collar, or every y excluded) is NaN too.
    """
    ctx = cfg.ctx()
    t0 = time.monotonic()

    def nan_row():
        nan = float("nan")
        return MetricsRow(
            N, grid.M, nan, (nan,) * (cfg.d + 1), nan, nan,
            time.monotonic() - t0,
        )

    if N < cfg.d + 2:
        return nan_row()
    fld = reconstruct_field(grid, cfg.d_psi, cfg.d, cfg.x_points, ctx)
    if not fld.psi.rows:
        return nan_row()
    with ctx.workprec():
        collar = mp.mpf(BOUNDARY_COLLAR)
        excl = mp.mpf(cfg.exclusion_radius)
        d_xi, d_F, d_T = [], [], []
        d_A = [[] for _ in range(cfg.d + 1)]
        ys = [-mp.pi + 2 * mp.pi * j / cfg.y_count for j in range(cfg.y_count)]
        for x in cfg.x_points:
            if float(abs(mp.mpf(x))) > float(mp.pi - collar):
                continue  # boundary collar: curve metrics unreliable there
            s = fld.slices.get(float(x))
            if s is None:
                return nan_row()
            xi_true = model.curve.xi(x, ctx)
            # compare on the circle: the curve value is a torus coordinate
            d_xi.append(_circle_gap(s.recon.xi_tilde, xi_true))
            for l in range(cfg.d + 1):
                a_true = model.magnitude_value(l, x, ctx)
                a_rec = mp.mpc(s.recon.magnitudes_tilde[l])
                d_A[l].append(abs(a_rec - a_true))
            raw = truncated_slice(grid, x, ctx)
            for y in ys:
                if _circle_gap(y, s.recon.xi_tilde) < excl:
                    continue
                truth = eval2d(model, x, y, ctx)
                d_F.append(abs(s.value(y, ctx) - truth))
                d_T.append(abs(raw.value(y).real - truth))

        def worst(errs):
            return float(max(errs)) if errs else float("nan")

        return MetricsRow(
            N,
            grid.M,
            worst(d_xi),
            tuple(worst(a) for a in d_A),
            worst(d_F),
            worst(d_T),
            time.monotonic() - t0,
        )


# -- slope fitting -----------------------------------------------------------

def fit_loglog(points) -> tuple:
    """(slope, intercept, n_points) of log(err) vs log(N), fitted on the
    n_points >= 3 positive finite errors."""
    clean = [
        (math.log(n), math.log(e))
        for n, e in points
        if e > 0 and math.isfinite(e)
    ]
    if len(clean) < 3:
        raise ValueError(
            f"refusing slope fit: {len(clean)} usable points (need >= 3)"
        )
    xs = [p[0] for p in clean]
    ys = [p[1] for p in clean]
    n = len(clean)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, ybar - slope * xbar, n


# -- file plumbing -----------------------------------------------------------

def _grid_path(out: Path, N: int) -> Path:
    return out / f"grid_N{N}.fec"


def _check_metrics_order(path: Path, cfg: ExperimentConfig) -> None:
    """ValueError unless the metrics file is new or has the columns of order
    cfg.d; rows of another order would shift under its column names."""
    if path.exists() and read_metrics(path)[0] != metrics_columns(cfg.d).split(","):
        raise ValueError(
            f"{path} holds the metrics of an order other than d={cfg.d}"
        )


def _append_metrics(path: Path, cfg: ExperimentConfig, rows, notes=()) -> None:
    """Append rows to the metrics file, writing its header when it is new.

    A file of another order raises ValueError before anything is written.
    """
    _check_metrics_order(path, cfg)
    fresh = not path.exists()
    with open(path, "a") as fh:
        if fresh:
            fh.write(METRICS_HEADER + "\n")
            fh.write(metrics_columns(cfg.d) + "\n")
        for note in notes:
            fh.write(f"# {note}\n")
        for row in rows:
            fh.write(row.csv() + "\n")


def read_metrics(path: Path) -> tuple:
    """(column names, list of float-row dicts); comment lines skipped.

    Raises ValueError, naming the file, on a bad header or a ragged row.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if len(lines) < 2 or lines[0] != METRICS_HEADER:
        raise ValueError(f"{path} is not a metrics file (bad header)")
    columns = lines[1].split(",")
    rows = []
    for lineno, ln in enumerate(lines[2:], start=3):
        if not ln or ln.startswith("#"):
            continue
        cells = ln.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"{path}: line {lineno} has {len(cells)} cells "
                             f"for {len(columns)} columns")
        rows.append(
            {c: (int(v) if c in ("N", "M") else float(v))
             for c, v in zip(columns, cells)}
        )
    return columns, rows


# -- subcommands -------------------------------------------------------------

def cmd_generate(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = model_from_config(cfg)
    ctx = cfg.ctx()
    (out / "model2d.json").write_text(
        json.dumps(
            {"model": model_to_json(model), "config": cfg.to_json()}, indent=2
        )
    )
    for N in cfg.sweep_N:
        M = cfg.M_for(N)
        t0 = time.monotonic()
        grid = coeff_grid(model, M, N, ctx)
        save_grid(grid, _grid_path(out, N), cfg.precision_digits)
        print(
            f"generate: N={N} M={M} -> {_grid_path(out, N).name} "
            f"({time.monotonic() - t0:.1f}s, {grid.diagnostics.get('method')})"
        )
    return 0


def _load_model(out: Path) -> Model2D:
    return model_from_json(json.loads((out / "model2d.json").read_text())["model"])


def cmd_reconstruct(cfg: ExperimentConfig) -> int:
    """One metrics row per sweep entry, appended to metrics.csv once the
    whole sweep has run, so a refusal leaves every file as it was."""
    out = Path(cfg.out_dir)
    model = _load_model(out)
    _check_metrics_order(out / "metrics.csv", cfg)
    rows = []
    notes = []
    for N in cfg.sweep_N:
        grid = load_grid(_grid_path(out, N))
        stored = grid.diagnostics["precision"]
        if stored < cfg.precision_digits:
            raise ValueError(
                f"{_grid_path(out, N)} is stored at {stored} digits, below "
                f"the {cfg.precision_digits} digits of this run"
            )
        row = compute_metrics(model, grid, cfg, N)
        rows.append(row)
        if N < cfg.d + 2:
            notes.append(
                f"N={N} degenerate: slice stage needs N >= d+2 = {cfg.d + 2}"
            )
        print(f"reconstruct: N={N} M={row.M} "
              f"delta_xi={row.delta_xi:.3e} delta_F={row.delta_F:.3e} "
              f"({row.seconds:.1f}s)")
    _append_metrics(out / "metrics.csv", cfg, rows, notes)
    return 0


def cmd_report(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    columns, rows = read_metrics(out / "metrics.csv")
    # keep the latest row per N (the metrics file is append-only)
    latest = {r["N"]: r for r in rows}
    rows = [latest[n] for n in sorted(latest)]
    fits = {}
    failures = {}
    for metric in columns:
        if metric in ("N", "M", "seconds"):
            continue
        pts = [(r["N"], r[metric]) for r in rows]
        try:
            slope, intercept, n = fit_loglog(pts)
            fits[metric] = dict(
                metric=metric, slope=slope, intercept=intercept, n_points=n
            )
        except ValueError as exc:
            failures[metric] = str(exc)
    report = {"fits": fits, "refused": failures, "d": cfg.d}
    (out / "report.json").write_text(json.dumps(report, indent=2))
    for metric, f in fits.items():
        print(f"report: {metric} slope {f['slope']:+.2f} over {f['n_points']} points")
    for metric, why in failures.items():
        print(f"report: {metric}: {why}")
    return 0


def cmd_verify(cfg: ExperimentConfig, entries: int = 16) -> int:
    out = Path(cfg.out_dir)
    model = _load_model(out)
    grid = load_grid(_grid_path(out, min(cfg.sweep_N)))
    ctx = ArithmeticContext(15)
    rng = random.Random(1729)
    cap_x = min(grid.M, 16)
    picks = [
        (rng.randint(-cap_x, cap_x), rng.randint(-grid.N, grid.N))
        for _ in range(entries)
    ]
    worst = 0.0
    with ctx.workprec():
        refs = quadrature2d_oracle(model, picks, ctx)
        for (wx, wy), ref in zip(picks, refs):
            err = float(abs(grid.c(wx, wy) - ref))
            worst = max(worst, err)
            status = "ok" if err <= 1e-8 else "FAIL"
            print(f"verify: ({wx:+3d},{wy:+3d}) |stored - oracle| = {err:.2e} {status}")
    print(f"verify: worst deviation {worst:.2e}")
    return 0 if worst <= 1e-8 else 1


# -- argument parsing --------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fourier-edge",
        description="piecewise-smooth Fourier reconstruction experiments",
    )
    p.add_argument("--config", type=Path, help="JSON config file")
    p.add_argument("--precision", type=int, help="override working digits")
    p.add_argument("--out", type=Path, help="output directory")
    p.add_argument(
        "--exclusion-radius", type=float, help="error-metric exclusion radius"
    )
    p.add_argument("--override-M", type=int, help="fixed M instead of N^2")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", help="synthesize and store grids")
    sub.add_parser("reconstruct", help="run pipeline, append metrics")
    sub.add_parser("report", help="fit slopes, write report")
    v = sub.add_parser("verify", help="re-check grid entries vs quadrature")
    v.add_argument("--entries", type=int, default=16)
    return p


def load_config(args) -> ExperimentConfig:
    """The config file (or the defaults) with the flags applied on top.

    Flags pass the same validation as config keys: ValueError otherwise.
    """
    if args.config is not None:
        cfg = ExperimentConfig.from_json(json.loads(Path(args.config).read_text()))
    else:
        cfg = ExperimentConfig()
    flags = {
        "precision_digits": args.precision,
        "out_dir": None if args.out is None else str(args.out),
        "exclusion_radius": args.exclusion_radius,
        "override_M": args.override_M,
    }
    # replace() runs __post_init__ again on the overridden values
    return replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = load_config(args)
    if args.command == "generate":
        return cmd_generate(cfg)
    if args.command == "reconstruct":
        return cmd_reconstruct(cfg)
    if args.command == "report":
        return cmd_report(cfg)
    if args.command == "verify":
        return cmd_verify(cfg, entries=args.entries)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
