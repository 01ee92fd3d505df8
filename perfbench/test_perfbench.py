"""Tests of the benchmark itself: its checks catch corrupted outputs, its
digests repeat, its spans add up, and it refuses to run without the source.

Run from the repository root (takes under a minute):

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fourier_edge import model1d, recon1d  # noqa: E402
from fourier_edge.model1d import CoeffVector1D  # noqa: E402


def _one_op(wl, corrupt=None):
    """Run one op by hand; `corrupt` may alter the generated data in place."""
    job = wl.next_input()
    data = wl.generate(job)
    if corrupt is not None:
        data = corrupt(data)
    return wl.check(job, data, wl.reconstruct(job, data))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_w1_check_catches_one_shifted_coefficient(tmp_path):
    wl = workloads.make("w1-recon1d", 5, tmp_path)
    assert _one_op(wl).failed == 0

    def shift(c):
        vals = list(c.values)
        vals[c.M + 150] += 1e-12  # one coefficient, k = 150
        return CoeffVector1D(c.M, vals)

    bad = _one_op(wl, shift)
    assert bad.failed == 1 and bad.reasons


def test_w3_check_catches_one_perturbed_grid_entry(tmp_path):
    wl = workloads.make("w3-field-dense", 5, tmp_path)

    def perturb(path):
        lines = path.read_text().splitlines(keepends=True)
        # line 1 is the header; entries run wx-major, so this is (0, 3)
        wx, wy, re, im = lines[1 + 144 * 25 + 15].split(",")
        assert (int(wx), int(wy)) == (0, 3)
        lines[1 + 144 * 25 + 15] = f"{wx},{wy}, {float(re) + 1e-3!r},{im}"
        path.write_text("".join(lines))
        return path

    bad = _one_op(wl, perturb)
    assert bad.failed > 0 and bad.failed <= bad.attempted == 4


def test_same_seed_gives_the_same_digest(tmp_path):
    digests = [workloads.digest(_one_op(workloads.make("w1-recon1d", 3, tmp_path)).digest)
               for _ in range(2)]
    assert digests[0] == digests[1]


def test_traced_ops_account_for_their_time_and_restore_the_package(tmp_path):
    import fourier_edge

    original = recon1d.poly_roots
    wl = workloads.make("w1-recon1d", 2, tmp_path)
    recorder = spans.Recorder()
    ops, _ = run.measure(wl, 0.0, recorder)
    assert recon1d.poly_roots is original and model1d.synth_coeffs is fourier_edge.synth_coeffs
    assert [o.traced for o in ops] == [False, True]
    metrics, problems = run.per_layer(recorder, ops)
    assert problems == []
    assert metrics["numerics.poly_roots.calls"] == 2  # half- and full-order
    assert metrics["model1d.synth_coeffs.s"] > 0
    assert 0 < metrics["trace.unattributed_frac"] < 0.05
    assert set(metrics) == set(run.PER_LAYER)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "w1-recon1d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
