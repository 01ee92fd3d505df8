"""Experiment driver tests: config, serialization, metrics files, end to end.

The end-to-end case runs a deliberately tiny sweep (one band limit, order-2
model) so the whole generate/reconstruct/report/verify chain stays in the
seconds range.
"""

import json
import math
import re

import pytest

from fourier_edge import Background2D, Curve, Model2D, TrigBackground
from fourier_edge import cli
from fourier_edge.cli import (
    ExperimentConfig,
    METRICS_HEADER,
    MetricsRow,
    _append_metrics,
    _build_parser,
    compute_metrics,
    fit_loglog,
    load_config,
    main,
    metrics_columns,
    model_from_json,
    model_to_json,
    read_metrics,
)
from fourier_edge.model2d import CoeffGrid2D, coeff_grid
from fourier_edge.recon2d import reconstruct_field, reconstruct_psi_set


# -- config ------------------------------------------------------------------

def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.d == 9 and cfg.d_psi == 9
    assert cfg.sweep_N == (8, 12, 16, 24, 32)
    assert cfg.M_for(12) == 144


def test_config_override_M():
    cfg = ExperimentConfig(override_M=200)
    assert cfg.M_for(12) == 200


@pytest.mark.parametrize(
    "kwargs",
    [
        {"y_count": 4},
        {"precision_digits": 10},
        {"exclusion_radius": 3.5},
        {"exclusion_radius": -0.1},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs, field_name",
    [
        ({"override_M": -5}, "override_M"),
        ({"override_M": 0}, "override_M"),
        ({"d_psi": -1}, "d_psi"),
        ({"d": -1}, "d"),
        ({"sweep_N": (12, 0)}, "sweep_N"),
        ({"x_points": (9.0,)}, "x_points"),
        ({"x_points": (0.5, math.pi)}, "x_points"),
        ({"x_points": (float("nan"),)}, "x_points"),
    ],
)
def test_config_refuses_values_that_would_fail_later(kwargs, field_name):
    with pytest.raises(ValueError, match=rf"^{field_name}\b"):
        ExperimentConfig(**kwargs)


def test_config_refuses_an_empty_sweep(tmp_path):
    # an empty sweep would make generate and reconstruct do nothing and
    # verify fail on min() of nothing
    with pytest.raises(ValueError, match=r"^sweep_N\b"):
        ExperimentConfig(sweep_N=())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sweep_N": []}))
    args = _build_parser().parse_args(["--config", str(cfg_path), "report"])
    with pytest.raises(ValueError, match=r"^sweep_N\b"):
        load_config(args)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_json({"d": 5, "bogus_knob": 1})


def test_removed_options_are_refused():
    # the pipeline runs in one process at the half order d // 2
    for key in ("jobs", "d1"):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_json({"d": 5, key: 2})
    grid = CoeffGrid2D(4, 2, tuple(tuple(0 for _ in range(5)) for _ in range(9)))
    with pytest.raises(ValueError, match="jobs must be 1"):
        reconstruct_field(grid, 1, 1, (0.5,), ExperimentConfig().ctx(), jobs=2)


def test_config_json_round_trip():
    cfg = ExperimentConfig(d=5, sweep_N=(7, 9), x_points=(0.25,))
    again = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert again == cfg


# -- model serialization -----------------------------------------------------

def test_canonical_model_round_trip():
    m = Model2D.canonical(11)
    again = model_from_json(json.loads(json.dumps(model_to_json(m))))
    assert again == m


def test_custom_model_round_trip():
    # a decimal-string profile is kept as written, not rounded to a float
    m = Model2D(
        3,
        (1.0, TrigBackground((0.5, 0.25j)), 0.75, "0.1"),
        Curve("trig", (0.2, 0.15 + 0.1j)),
        Background2D(
            ((TrigBackground((0.1, 0.2j)), TrigBackground((0.3, -0.1))),)
        ),
    )
    again = model_from_json(json.loads(json.dumps(model_to_json(m))))
    assert again == m
    # so are decimal-string trig, curve and background coefficients
    m = Model2D(
        1,
        (TrigBackground(("0.1", "0.05")), 1.0),
        Curve("trig", ("0.3", 0.1j)),
        Background2D(((TrigBackground(("0.2",)), TrigBackground((0.5, "0.25"))),)),
    )
    text = json.dumps(model_to_json(m))
    assert '"0.05"' in text and '"0.3"' in text and '"0.25"' in text
    again = model_from_json(json.loads(text))
    assert again == m


# -- metrics files -----------------------------------------------------------

def _row(n, d, base=1e-3):
    deltas = tuple(base * (l + 1) for l in range(d + 1))
    return MetricsRow(n, n * n, base / 7, deltas, base / 3, base * 2, 0.5)


def test_metrics_row_matches_columns():
    cols = metrics_columns(4).split(",")
    assert cols[2] == "delta_xi" and cols[-1] == "seconds"
    assert len(_row(8, 4).csv().split(",")) == len(cols)


def test_metrics_append_and_read_round_trip(tmp_path):
    path = tmp_path / "metrics.csv"
    cfg = ExperimentConfig(d=4)
    _append_metrics(path, cfg, [_row(8, 4)], notes=("first pass",))
    _append_metrics(path, cfg, [_row(16, 4), _row(24, 4)])
    text = path.read_text()
    assert text.count(METRICS_HEADER) == 1
    assert "# first pass" in text
    columns, rows = read_metrics(path)
    assert columns == metrics_columns(4).split(",")
    assert [r["N"] for r in rows] == [8, 16, 24]
    # repr round trip keeps every float bit-exact
    assert rows[1]["delta_A_3"] == 4e-3
    assert rows[2]["delta_T"] == 2e-3


def test_metrics_refuse_rows_of_another_order(tmp_path):
    # a d = 3 row under d = 2 columns would shift delta_F, delta_T, seconds
    path = tmp_path / "metrics.csv"
    _append_metrics(path, ExperimentConfig(d=2), [_row(8, 2)])
    before = path.read_bytes()
    with pytest.raises(ValueError, match="d=3"):
        _append_metrics(
            path, ExperimentConfig(d=3), [_row(12, 3)], notes=("second run",)
        )
    assert path.read_bytes() == before


def test_read_metrics_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.csv"
    # a foreign CSV, and a metrics header without its column line
    for text in ("N,M\n1,2\n", METRICS_HEADER + "\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="bad header"):
            read_metrics(path)


def test_read_metrics_rejects_ragged_rows(tmp_path):
    # a d = 2 row (9 cells) under d = 1 columns (8) would drop a cell and
    # read as plausible numbers; a short row would lack a column
    path = tmp_path / "metrics.csv"
    _append_metrics(path, ExperimentConfig(d=1), [_row(8, 1)])
    good = path.read_text()
    for row, cells in ((_row(12, 2), 9), (_row(12, 0), 7)):
        path.write_text(good + row.csv() + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 4 has {cells} cells for 8 columns")):
            read_metrics(path)


def test_degenerate_entry_yields_nan_row():
    cfg = ExperimentConfig(d=9)
    grid = CoeffGrid2D(4, 2, tuple(tuple(0 for _ in range(5)) for _ in range(9)))
    row = compute_metrics(Model2D.canonical(2), grid, cfg, 8)
    assert row.N == 8 and row.M == 4
    assert math.isnan(row.delta_xi) and math.isnan(row.delta_F)
    assert len(row.delta_A) == 10 and all(math.isnan(a) for a in row.delta_A)


def test_all_rows_degraded_yields_nan_row():
    # every row degrades, for either of two reasons: d_psi = 20 is beyond the
    # kernel table (d <= 15), and d_psi = 15 on M = 12 < d_psi + 1 cannot
    # host the known-jump decimation; the canonical rows are one-sparse, so
    # their raw series are exact and the slice stage alone would report
    # plausible numbers
    model = Model2D.canonical(11)
    for d_psi, reason in ((20, "beyond the kernel table"),
                          (15, "known-jump decimation infeasible")):
        cfg = ExperimentConfig(d=9, d_psi=d_psi, precision_digits=30, y_count=8)
        grid = coeff_grid(model, 12, 12, cfg.ctx())
        psi = reconstruct_psi_set(grid, d_psi, cfg.ctx())
        assert not psi.rows and len(psi.degraded) == 25
        assert all(reason in r for r in psi.degraded.values())
        with pytest.warns(UserWarning, match="under-resolved"):
            row = compute_metrics(model, grid, cfg, 12)
        assert row.N == 12 and row.M == 12
        assert math.isnan(row.delta_xi) and math.isnan(row.delta_F)
        assert math.isnan(row.delta_T)
        assert all(math.isnan(a) for a in row.delta_A)


@pytest.mark.parametrize(
    "kwargs, curve_measured",
    [
        ({"x_points": ()}, False),
        ({"x_points": (3.13,)}, False),  # inside the boundary collar
        ({"exclusion_radius": 3.1}, True),  # excludes all 8 y
    ],
    ids=["no-x", "x-in-collar", "every-y-excluded"],
)
def test_metrics_that_measured_nothing_are_nan(kwargs, curve_measured):
    model = Model2D.canonical(2)
    cfg = ExperimentConfig(d_psi=2, d=2, precision_digits=30, y_count=8, **kwargs)
    row = compute_metrics(model, coeff_grid(model, 25, 5, cfg.ctx()), cfg, 5)
    assert math.isnan(row.delta_F) and math.isnan(row.delta_T)
    for err in (row.delta_xi, *row.delta_A):
        assert math.isfinite(err) if curve_measured else math.isnan(err)


# -- slope fitting -----------------------------------------------------------

def test_fit_loglog_recovers_pure_power_law():
    pts = [(n, 2.0 * n ** -3.0) for n in (4, 8, 16, 32)]
    slope, intercept, n = fit_loglog(pts)
    assert n == 4
    assert slope == pytest.approx(-3.0, rel=1e-9)
    assert intercept == pytest.approx(math.log(2.0), abs=1e-9)


def test_fit_loglog_refuses_sparse_data():
    with pytest.raises(ValueError, match="refusing slope fit"):
        fit_loglog([(8, 1e-3), (16, float("nan")), (32, 0.0)])


# -- flag handling -----------------------------------------------------------

def test_cli_flags_override_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"d": 5, "precision_digits": 40}))
    args = _build_parser().parse_args(
        [
            "--config", str(cfg_path),
            "--precision", "25",
            "--out", str(tmp_path / "elsewhere"),
            "--override-M", "30",
            "report",
        ]
    )
    cfg = load_config(args)
    assert cfg.d == 5
    assert cfg.precision_digits == 25
    assert cfg.out_dir == str(tmp_path / "elsewhere")
    assert cfg.override_M == 30 and cfg.M_for(12) == 30


@pytest.mark.parametrize(
    "flag",
    [["--exclusion-radius", "4"], ["--precision", "5"]],
    ids=["exclusion-radius-4", "precision-5"],
)
def test_cli_flags_are_validated(flag):
    # flags are checked like config keys: a radius of 4 would exclude every y
    args = _build_parser().parse_args([*flag, "report"])
    with pytest.raises(ValueError):
        load_config(args)


# -- end to end --------------------------------------------------------------

@pytest.fixture()
def tiny_config(tmp_path):
    cfg = {
        "model": {"kind": "canonical", "d_model": 2},
        "d_psi": 2,
        "d": 2,
        "sweep_N": [5],
        "x_points": [0.9],
        "y_count": 32,
        "precision_digits": 30,
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / "out"


@pytest.mark.slow
def test_full_pipeline_round_trip(tiny_config, tmp_path):
    cfg_path, out = tiny_config
    base = ["--config", str(cfg_path)]

    assert main(base + ["generate"]) == 0
    assert (out / "model2d.json").exists()
    assert (out / "grid_N5.fec").exists()

    assert main(base + ["reconstruct"]) == 0
    (row,) = read_metrics(out / "metrics.csv")[1]
    # order matches the model exactly, so the only error left is roundoff
    assert row["N"] == 5
    assert row["delta_xi"] < 1e-8
    assert row["delta_F"] < 1e-8
    assert row["delta_T"] > 1e-3  # raw truncation is the honest baseline

    assert main(base + ["report"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["d"] == 2
    # a single sweep point cannot support a slope fit
    assert report["fits"] == {}
    assert all("refusing" in why for why in report["refused"].values())
    # delta_xi, 3 magnitudes, delta_F, delta_T
    assert len(report["refused"]) == 6
    # each result is written once: the rows to metrics.csv, the fits to
    # report.json
    assert sorted(p.name for p in out.iterdir()) == [
        "grid_N5.fec", "metrics.csv", "model2d.json", "report.json"
    ]

    assert main(base + ["verify", "--entries", "2"]) == 0


def test_generate_is_deterministic(tiny_config, tmp_path):
    cfg_path, out = tiny_config
    other = tmp_path / "out2"
    assert main(["--config", str(cfg_path), "generate"]) == 0
    assert main(["--config", str(cfg_path), "--out", str(other), "generate"]) == 0
    assert (out / "grid_N5.fec").read_bytes() == (other / "grid_N5.fec").read_bytes()


def test_reconstruct_refuses_an_edited_grid_file(tiny_config):
    cfg_path, out = tiny_config
    assert main(["--config", str(cfg_path), "generate"]) == 0
    path = out / "grid_N5.fec"
    header, first, *rest = path.read_text().splitlines(keepends=True)
    at = first.index("p")  # end of the first entry's real mantissa
    digit = format((int(first[at - 1], 16) + 1) % 16, "x")
    path.write_text("".join([header, first[:at - 1] + digit + first[at:], *rest]))
    with pytest.raises(ValueError, match="sha256 checksum does not match"):
        main(["--config", str(cfg_path), "reconstruct"])
    assert not (out / "metrics.csv").exists()


def test_reconstruct_refuses_another_order_before_it_computes(
    tiny_config, monkeypatch
):
    # the column check runs before the sweep, so a refusal costs no
    # reconstruction and leaves every file as it was
    cfg_path, out = tiny_config
    assert main(["--config", str(cfg_path), "generate"]) == 0  # d = 2
    _append_metrics(out / "metrics.csv", ExperimentConfig(d=1), [_row(5, 1)])
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def must_not_run(*args, **kwargs):
        raise AssertionError("compute_metrics ran before the column check")

    monkeypatch.setattr(cli, "compute_metrics", must_not_run)
    with pytest.raises(ValueError, match="order other than d=2"):
        main(["--config", str(cfg_path), "reconstruct"])
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_reconstruct_refuses_grids_below_run_precision(tiny_config):
    cfg_path, out = tiny_config
    assert main(["--config", str(cfg_path), "generate"]) == 0  # 30 digits
    with pytest.raises(ValueError, match="stored at 30 digits"):
        main(["--config", str(cfg_path), "--precision", "60", "reconstruct"])
    assert not (out / "metrics.csv").exists()
