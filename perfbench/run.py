#!/usr/bin/env python3
"""fourier-edge benchmark: one seeded workload per run, checked against truth.

Usage, from the repository root:

    python3 perfbench/run.py --workload w1-recon1d --seed 1 --seconds 45 --trace 0

The run imports the package from ``src/`` of the same checkout, sets up the
workload, then starts ops one after another (a closed loop with one client)
until ``--seconds`` have passed, with at least two ops.  Every op's outputs are
checked against the model's ground truth.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  The line before it holds the run's details (sample counts,
errors, output digest, environment).  The exit code is 1 when a check fails
and 2 when the package source is missing.

``--trace 1`` alternates untraced and traced ops; traced ops record spans
(see spans.py) that are written to ``.perfbench/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
# The default seed for reported numbers; the held-out seed confirms a claim
# on inputs not used while the change was written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
WORKLOADS = ("w1-recon1d", "w3-field-dense")
MIN_OPS = 2  # the digest covers the first MIN_OPS ops of every run
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
# The speed of a shared host drifts by +-25% over minutes and switches in
# bursts of seconds, alike for all interpreted Python code.  A fixed kernel
# runs between the steps of the ops, at most once every CALIBRATION_GAP_S,
# and every end-to-end time is scaled by CALIBRATION_REF_S / (the run's mean
# kernel time): it reads in seconds at the speed where the kernel takes
# CALIBRATION_REF_S.  Op times are means, not medians, for the same reason:
# the mean over a run and the mean kernel time see the same mix of bursts,
# while the median of the few ops of a W3 run lands on one burst or another.
# The details line keeps the raw times and the kernel samples.
CALIBRATION_REF_S = 0.1
CALIBRATION_GAP_S = 1.0
# Traced layers must cover all but this share of traced op time; the rest is
# the benchmark's own loop.
MAX_UNATTRIBUTED = 0.02

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "generate_s": "s",
    "reconstruct_s": "s",
    "outputs_per_s": "1/s",
    "xi_digits": "digits",
    "mag_digits": "digits",
    "field_digits": "digits",
}

# Per-layer metrics of the traced ops, per op: ".self_s" is span minus child
# spans, ".s" the whole span, ".calls" and ".errors" counts.
LAYERS = {
    "numerics.poly_roots": ("self_s", "calls", "errors"),
    "numerics.vandermonde_solve": ("self_s",),
    "kernels.v_kernel": ("self_s", "calls"),
    "model1d.synth_coeffs": ("s",),
    "recon1d.moments": ("self_s",),
    "recon1d.half_order_localize": ("self_s",),
    "recon1d.full_order_localize": ("self_s",),
    "recon1d.solve_magnitudes": ("self_s",),
    "recon1d.solve_magnitudes_known_jump": ("self_s",),
    "recon1d.residual_coeffs": ("self_s", "calls"),
    "recon1d.evaluate_complex": ("self_s", "calls"),
    "recon1d.reconstruct1d": ("self_s",),
    "model2d.coeff_grid": ("s",),
    "model2d.save_grid": ("s",),
    "model2d.load_grid": ("s",),
    "recon2d.reconstruct_psi_set": ("s",),
    "recon2d.slice_coeff_vector": ("self_s",),
    "recon2d.reconstruct_slice": ("s",),
    "recon2d.reconstruct_field": ("self_s",),
}
UNITS = {"self_s": "s", "s": "s", "calls": "count", "errors": "count"}
PER_LAYER = {
    **{f"{layer}.{kind}": UNITS[kind]
       for layer, kinds in LAYERS.items() for kind in kinds},
    "numerics.poly_roots.op_share": "ratio",
    "model2d.save_grid.bytes": "B",
    "model2d.grid_nonzero_frac": "ratio",
    "model2d.eval2d.per_point_s": "s",
    "recon2d.rows_degraded": "count",
    "recon2d.row_seam_nonzero_frac": "ratio",
    "recon2d.slices_failed": "count",
    "recon2d.truncated_baseline.per_point_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


@dataclass
class Op:
    traced: bool
    checked: object  # workloads.Checked
    generate_s: float = math.nan
    reconstruct_s: float = math.nan


def setup(workload: str, seed: int, workdir: Path):
    """Import the package, build the workload and warm it up; timed."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports fourier_edge

    wl = workloads.make(workload, seed, workdir)
    return wl, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


class Calibrator:
    """Times a fixed loop, at most once every gap: half 60-digit mpmath complex
    arithmetic, half plain int and dict work.  The mix tracks the host's
    speed for the package's ops better than either half alone."""

    def __init__(self):
        self.samples: list = []
        self._last = -math.inf

    def sample(self) -> None:
        from mpmath import mp

        with mp.workdps(60):
            z, w, acc = mp.mpc(1), mp.mpc("0.999", "0.001"), mp.mpc(0)
            t0 = time.perf_counter()
            for k in range(1, 2000):
                z *= w
                acc += z / k
        table, h = {}, 0
        for k in range(240000):
            h = (h * 31 + k) % 1000003
            table[k % 997] = h
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATION_GAP_S:
            self.sample()

    def speed(self) -> float:
        """Factor that turns this run's seconds into reference seconds."""
        return CALIBRATION_REF_S / statistics.mean(self.samples)


def run_op(wl, index: int, recorder, cal: Calibrator) -> Op:
    """One op; `cal` may sample between its steps, outside the timed parts."""
    import workloads

    span = recorder.span if recorder else (lambda name, op=None: nullcontext())
    job = wl.next_input()
    op = Op(recorder is not None, None)
    try:
        cal.maybe_sample()
        with span("generate", op=index):
            t0 = time.perf_counter()
            data = wl.generate(job)
            t1 = time.perf_counter()
        cal.maybe_sample()
        with span("reconstruct", op=index):
            out = wl.reconstruct(job, data)
            t2 = time.perf_counter()
        cal.maybe_sample()
        with span("check", op=index):
            op.checked = wl.check(job, data, out)
    except Exception:  # an op that raises is a failed op, not a dead run
        op.checked = workloads.Checked(
            attempted=wl.per_op, failed=wl.per_op,
            reasons=[traceback.format_exc(limit=3)])
        return op
    op.generate_s, op.reconstruct_s = t1 - t0, t2 - t1
    return op


def measure(wl, seconds: float, recorder) -> tuple:
    """Closed loop: ops until `seconds` have passed; odd ops traced if asked.
    Returns the ops and the calibration taken between them."""
    import fourier_edge

    ops, cal = [], Calibrator()
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        traced = recorder is not None and len(ops) % 2 == 1
        if traced:
            recorder.install(fourier_edge)
        try:
            ops.append(run_op(wl, len(ops), recorder if traced else None, cal))
        finally:
            if traced:
                recorder.uninstall()
    cal.sample()
    return ops, cal


def _digits(errors, dps: int) -> float:
    """Median correct decimal digits over outputs, capped at working precision."""
    return _median([-math.log10(max(e, 10.0 ** -dps)) for e in errors])


def _median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.mean(values) if values else 0.0


def _all(ops, key) -> list:
    return [e for o in ops for e in getattr(o.checked, key)]


def end_to_end(wl, ops, setup_s: float, speed: float) -> dict:
    """End-to-end metrics; times are multiplied by the run's `speed` factor."""
    timed = [o for o in ops if not math.isnan(o.generate_s)]
    op_time = speed * sum(o.generate_s + o.reconstruct_s for o in timed)
    outputs = wl.per_op * len(timed)
    return {
        "setup_s": speed * setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "generate_s": speed * _mean(o.generate_s for o in timed),
        "reconstruct_s": speed * _mean(o.reconstruct_s for o in timed),
        "outputs_per_s": outputs / op_time if op_time else 0.0,
        "xi_digits": _digits(_all(ops, "xi_err"), wl.DPS),
        "mag_digits": _digits(_all(ops, "mag_err"), wl.DPS),
        "field_digits": _digits(_all(ops, "field_err"), wl.DPS),
    }


def per_layer(recorder, ops) -> tuple:
    """Per-layer metrics from the spans of the traced ops, and a list of
    trace-consistency problems (empty when self times add up)."""
    spans = recorder.spans
    self_t = recorder.self_times()
    root = []
    for i, sp in enumerate(spans):
        root.append(i if sp.parent < 0 else root[sp.parent])
    in_op, in_check = {}, {}
    op_time = layer_self = 0.0
    for i, sp in enumerate(spans):
        dur = sp.end - sp.start
        is_check = spans[root[i]].name == "check"
        if sp.parent < 0:
            op_time += 0.0 if is_check else dur
            continue
        if not is_check:
            layer_self += self_t[i]
        agg = (in_check if is_check else in_op).setdefault(
            sp.name, {"self_s": 0.0, "s": 0.0, "calls": 0, "errors": 0})
        agg["self_s"] += self_t[i]
        agg["s"] += dur
        agg["calls"] += 1
        agg["errors"] += sp.error is not None

    traced = [o for o in ops if o.traced]
    n = max(len(traced), 1)
    out = {}
    for layer, kinds in LAYERS.items():
        agg = in_op.get(layer, {})
        for kind in kinds:
            out[f"{layer}.{kind}"] = agg.get(kind, 0) / n
    out["numerics.poly_roots.op_share"] = (
        in_op.get("numerics.poly_roots", {}).get("self_s", 0.0) / op_time
        if op_time else 0.0)

    def per_point(name):
        agg = in_check.get(name)
        return agg["s"] / agg["calls"] if agg else 0.0

    def prop_mean(key):
        vals = [o.checked.props[key] for o in traced if key in o.checked.props]
        return sum(vals) / len(vals) if vals else 0.0

    out["model2d.save_grid.bytes"] = prop_mean("grid_bytes")
    out["model2d.grid_nonzero_frac"] = prop_mean("grid_nonzero_frac")
    out["model2d.eval2d.per_point_s"] = per_point("model2d.eval2d")
    out["recon2d.rows_degraded"] = sum(
        o.checked.props.get("rows_degraded", 0) for o in ops)
    out["recon2d.row_seam_nonzero_frac"] = prop_mean("row_seam_nonzero_frac")
    out["recon2d.slices_failed"] = sum(
        o.checked.props.get("slices_failed", 0) for o in ops)
    out["recon2d.truncated_baseline.per_point_s"] = per_point(
        "recon2d.truncated_baseline")
    base = _median(o.generate_s + o.reconstruct_s for o in ops if not o.traced)
    with_trace = _median(o.generate_s + o.reconstruct_s for o in traced)
    out["trace.overhead_frac"] = with_trace / base - 1 if base else 0.0
    unattributed = 1 - layer_self / op_time if op_time else 0.0
    out["trace.unattributed_frac"] = unattributed

    problems = []
    if not -1e-9 <= unattributed <= MAX_UNATTRIBUTED:
        problems.append(f"layer self times sum to {layer_self:.6f} s of "
                        f"{op_time:.6f} s traced op time")
    return out, problems


def environment() -> dict:
    import mpmath

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=Path,
                   help="also merge the full result into this JSON file")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "fourier_edge" / "__init__.py").is_file():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    tmp = WORKDIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        wl, setup_s = setup(args.workload, args.seed, tmp)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        samples = [setup_s]
        recorder = None
        if args.trace:
            import spans

            recorder = spans.Recorder()
        else:
            samples += [probe_setup(args.workload, args.seed)
                        for _ in range(SETUP_SAMPLES - 1)]
        ops, cal = measure(wl, args.seconds, recorder)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    import workloads

    attempted = sum(o.checked.attempted for o in ops)
    failed = sum(o.checked.failed for o in ops)
    problems = [r for o in ops for r in o.checked.reasons]
    speed = cal.speed()
    if args.trace:
        metrics, trace_problems = per_layer(recorder, ops)
        problems += trace_problems
        recorder.write(WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl")
        units = PER_LAYER
    else:
        metrics = end_to_end(wl, ops, statistics.median(samples), speed)
        units = END_TO_END
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(ops),
        "timed_ops": sum(not math.isnan(o.generate_s) for o in ops),
        "speed_factor": speed,
        "calibration_samples_s": cal.samples,
        "setup_samples_s": samples,
        "generate_samples_s": [o.generate_s for o in ops],
        "reconstruct_samples_s": [o.reconstruct_s for o in ops],
        "worst_error": {
            key: max(_all(ops, f"{key}_err"), default=math.nan)
            for key in ("xi", "mag", "field")
        },
        "fail_frac": failed / attempted,
        "problems": problems[:10],
        "digest": workloads.digest(
            [p for o in ops[:MIN_OPS] for p in o.checked.digest]),
        "environment": environment(),
    }
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    for k, u in units.items():
        print(f"{k:44s} {metrics[k]:.6g} {u}")
    print(json.dumps(details))
    print(json.dumps(result))
    if args.record:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        record[f"{args.workload} trace={args.trace}"] = {**details, **result}
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
