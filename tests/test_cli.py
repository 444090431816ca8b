import json
import os

import numpy as np
import pytest

import fdvar.cli
from fdvar.cli import main
from fdvar.critical import log_log_slope
from fdvar.io import load_model

CONFIG = """
alpha = 4
lambda = 1
M = 50
delta_xi = 0.1
"""

DATASET = "x,y\n0.0,2.0\n"


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "config.txt").write_text(CONFIG, encoding="utf-8")
    (tmp_path / "points.csv").write_text(DATASET, encoding="utf-8")
    return tmp_path


def run_fit(workspace, out="model.json"):
    return main(
        [
            "fit",
            str(workspace / "config.txt"),
            str(workspace / "points.csv"),
            "-o",
            str(workspace / out),
        ]
    )


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------
def test_fit_writes_model_and_summary(workspace, capsys):
    assert run_fit(workspace) == 0
    out = capsys.readouterr().out
    assert "objective=" in out and "wall_time_s=" in out
    assert "backend=" not in out
    payload = json.loads((workspace / "model.json").read_text(encoding="utf-8"))
    assert payload["format"] == "fdvar-model"
    assert len(payload["coefficients"]) == 101


def test_fit_empty_dataset_exits_2(workspace, capsys):
    (workspace / "points.csv").write_text("x,y\n", encoding="utf-8")
    assert run_fit(workspace) == 2
    assert "dataset empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "records,message",
    [
        ([1, 2], "record 0 is not a JSON object"),
        ([{"x": 0.0, "y": 1.0}, {"x": 0.5, "y": None}], "record 1 field 'y' must be a finite"),
    ],
)
def test_fit_malformed_json_dataset_exits_2(workspace, capsys, records, message):
    (workspace / "bad.json").write_text(json.dumps(records), encoding="utf-8")
    args = ["fit", str(workspace / "config.txt"), str(workspace / "bad.json")]
    assert main(args + ["-o", str(workspace / "model.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (workspace / "model.json").exists()


def test_fit_missing_alpha_named(workspace, capsys):
    (workspace / "config.txt").write_text(
        "lambda = 1\nM = 10\ndelta_xi = 0.1\n", encoding="utf-8"
    )
    assert run_fit(workspace) == 2
    assert "alpha" in capsys.readouterr().err


def test_fit_unknown_config_key_exits_2(workspace, capsys):
    (workspace / "config.txt").write_text(CONFIG + "bakend = svd\n", encoding="utf-8")
    assert run_fit(workspace) == 2
    assert "bakend" in capsys.readouterr().err
    assert not (workspace / "model.json").exists()


def test_fit_interpolation_failure_exits_3(workspace, capsys):
    (workspace / "config.txt").write_text(
        "alpha = 6\nlambda = 0\nM = 400\ndelta_xi = 0.1\n", encoding="utf-8"
    )
    (workspace / "points.csv").write_text("x,y\n0.0,0.9\n1e-7,0.8\n", encoding="utf-8")
    assert run_fit(workspace) == 3
    err = capsys.readouterr().err
    assert "interpolation residual" in err and "||b|| =" in err
    assert "condition estimate" in err
    assert not (workspace / "model.json").exists()


def test_fit_over_a_period_exits_2(workspace, capsys):
    # delta_xi = 0.1: the period is 10, and the second axis spans it exactly
    (workspace / "points.csv").write_text("x1,x2,y\n0,-5,1\n0.3,0,0\n1,5,-1\n", encoding="utf-8")
    assert run_fit(workspace) == 2
    err = capsys.readouterr().err
    assert "extent 10.0 along axis 2" in err and "period 1/delta_xi = 10.0" in err
    assert not (workspace / "model.json").exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------
def test_eval_zero_model_all_zero_column(workspace, capsys):
    (workspace / "points.csv").write_text("x,y\n0.0,0.0\n", encoding="utf-8")
    assert run_fit(workspace) == 0
    code = main(
        [
            "eval",
            str(workspace / "model.json"),
            "--grid=-0.5:0.5:11",
            "-o",
            str(workspace / "recon.csv"),
        ]
    )
    assert code == 0
    lines = (workspace / "recon.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x1,h"
    assert len(lines) == 12
    assert all(line.endswith(",0.0") for line in lines[1:])


def eval_edited_model(workspace, edit):
    """Fit the one-point model, apply ``edit`` to its JSON payload, then run eval on it."""
    assert run_fit(workspace) == 0
    path = workspace / "model.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return main(["eval", str(path), "--grid=-0.5:0.5:11", "-o", str(workspace / "recon.csv")])


def test_eval_rejects_non_hermitian_model(workspace, capsys):
    def break_pairing(payload):
        payload["coefficients"][0] = [0.0, 0.5]

    # rejected on load, before the grid is evaluated
    assert eval_edited_model(workspace, break_pairing) == 2
    err = capsys.readouterr().err
    assert "Hermitian defect 5.000e-01 is over its limit" in err
    assert not (workspace / "recon.csv").exists()


def nan_pair(payload):
    payload["coefficients"][7] = [float("nan"), 0.0]


def grid_not_object(payload):
    payload["grid"] = 5


def config_not_object(payload):
    payload["config"] = [1]


def fractional_m(payload):
    payload["grid"]["M"] = 50.5  # read as 50 before, the size of the stored lattice


def huge_alpha(payload):
    payload["config"]["alpha"] = 10**400  # a JSON integer that no float holds


def no_alpha(payload):
    del payload["config"]["alpha"]


@pytest.mark.parametrize(
    "edit,message",
    [
        # a NaN defect compares false against the limit, so finiteness comes first
        (nan_pair, "pair 7 re must be a finite number, got nan"),
        (grid_not_object, "model field 'grid.d' is malformed"),
        (config_not_object, "model field 'config.alpha' is malformed"),
        (fractional_m, "model field 'grid.M' is malformed"),
        (huge_alpha, "model field 'config.alpha' is malformed"),
        (no_alpha, "model file has no field 'config.alpha'"),
    ],
)
def test_eval_rejects_broken_model_file(workspace, capsys, edit, message):
    assert eval_edited_model(workspace, edit) == 2
    assert message in capsys.readouterr().err
    assert not (workspace / "recon.csv").exists()


BAD_GRID_SPECS = {  # each part takes its quantity's rule; min > max is the spec's own fault
    "-0.5:0.5:0": "--grid points must be a positive integer, got 0.0",
    "0.5:-0.5:11": "bad grid spec '0.5:-0.5:11'",
    "-inf:0.5:11": "--grid min must be a finite number, got -inf",
    "nan:0.5:3": "--grid min must be a finite number, got nan",
}


@pytest.mark.parametrize("grid", BAD_GRID_SPECS)
def test_eval_bad_grid_spec_exit_2(workspace, capsys, grid):
    assert run_fit(workspace) == 0
    code = main(
        ["eval", str(workspace / "model.json"), f"--grid={grid}", "-o", str(workspace / "r.csv")]
    )
    assert code == 2
    assert BAD_GRID_SPECS[grid] in capsys.readouterr().err
    assert not (workspace / "r.csv").exists()


def test_eval_2d_grid(workspace, tmp_path):
    (workspace / "plane.csv").write_text(
        "x1,x2,y\n0.0,0.0,1.0\n0.5,-0.25,0.5\n", encoding="utf-8"
    )
    (workspace / "config2.txt").write_text(
        "alpha = 3\nlambda = 0.5\nM = 6\ndelta_xi = 0.2\n", encoding="utf-8"
    )
    assert (
        main(
            [
                "fit",
                str(workspace / "config2.txt"),
                str(workspace / "plane.csv"),
                "-o",
                str(workspace / "m2.json"),
            ]
        )
        == 0
    )
    code = main(
        [
            "eval",
            str(workspace / "m2.json"),
            "--grid=-1:1:5",
            "-o",
            str(workspace / "r2.csv"),
        ]
    )
    assert code == 0
    lines = (workspace / "r2.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x1,x2,h"
    assert len(lines) == 26
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    # meshgrid "ij" order: x1 is the slowest axis
    axis = np.linspace(-1, 1, 5)
    np.testing.assert_array_equal(rows[:, 0], np.repeat(axis, 5))
    np.testing.assert_array_equal(rows[:, 1], np.tile(axis, 5))
    model = load_model(str(workspace / "m2.json"))
    axis = np.arange(-model.grid.M, model.grid.M + 1)
    lattice = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    argument = 2 * np.pi * model.grid.delta_xi * (rows[:, :2] @ lattice.T)
    direct = np.exp(1j * argument) @ model.coefficients.values
    assert np.max(np.abs(rows[:, 2] - direct.real)) <= 1e-12 * np.max(np.abs(direct))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------
def sweep_spec(tmp_path, **overrides):
    spec = {
        "name": "demo",
        "dataset": {"points": [[0.0, 2.0]]},
        "grid": {"M": 10, "delta_xi": 0.1},
        "config": {"lambda": 1},
        "sweep": {"axis": "alpha", "values": [0.5, 4.0]},
        "eval_grid": {"min": -0.5, "max": 0.5, "points": 11},
    }
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def test_sweep_manifest_complete_and_deterministic(tmp_path):
    spec = sweep_spec(tmp_path)
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert main(["sweep", spec, "-d", str(out1)]) == 0
    assert main(["sweep", spec, "-d", str(out2)]) == 0
    manifest = json.loads((out1 / "demo_manifest.json").read_text(encoding="utf-8"))
    assert [p["value"] for p in manifest["points"]] == [0.5, 4.0]
    assert all(p["status"] == "ok" for p in manifest["points"])
    for point in manifest["points"]:
        artifact = out1 / point["artifact"]
        assert artifact.exists()
        assert artifact.read_bytes() == (out2 / point["artifact"]).read_bytes()


def test_sweep_empty_values_exit_2(tmp_path, capsys):
    spec = sweep_spec(tmp_path, sweep={"axis": "alpha", "values": []})
    assert main(["sweep", spec, "-d", str(tmp_path / "out")]) == 2


def test_sweep_unknown_config_key_exit_2(tmp_path, capsys):
    spec = sweep_spec(tmp_path, config={"lambda": 1, "bakend": "svd"})
    assert main(["sweep", spec, "-d", str(tmp_path / "out")]) == 2
    assert "bakend" in capsys.readouterr().err


@pytest.mark.parametrize(
    "eval_grid,message",
    [
        ({"min": -0.5, "max": 0.5, "points": 0}, "eval_grid.points must be a positive integer"),
        ({"min": -0.5, "max": 0.5, "points": -3}, "eval_grid.points must be a positive integer"),
        ({"min": 0.5, "max": -0.5, "points": 11}, "bad grid spec"),
        ({"min": -0.5, "max": 0.5, "points": 2.5}, "eval_grid.points must be a positive integer"),
        ({"min": -0.5, "max": 0.5, "pts": 11}, "'pts'"),
        ({"min": -0.5, "max": 0.5}, "needs exactly the keys"),
        ([-0.5, 0.5, 11], "needs exactly the keys"),
        ({"min": None, "max": 0.5, "points": 11}, "eval_grid.min must be a finite number"),
        ({"min": -0.5, "max": 0.5, "points": float("inf")}, "eval_grid.points must be a positive"),
    ],
)
def test_sweep_bad_eval_grid_exit_2(tmp_path, capsys, eval_grid, message):
    # the same rule as `fdvar eval --grid`, checked before any point runs
    spec = sweep_spec(tmp_path, eval_grid=eval_grid)
    out = tmp_path / "out"
    assert main(["sweep", spec, "-d", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"sweep": {"axis": "alpha", "values": [0.5, "4"]}}, "sweep.values"),
        ({"sweep": {"axis": "alpha", "values": "12"}}, "sweep.values"),
        ({"sweep": {"axis": "alpha", "values": [True]}}, "sweep.values"),
        ({"grid": 5}, "'grid'"),
        ({"sweep": ["alpha", 0.5]}, "'sweep'"),
        ({"config": "lambda = 1"}, "'config'"),
        ({"config": {"alpha": 2, "lambda": 1}, "sweep": {"axis": "M", "values": [2.5]}}, "'M'"),
        ({"dataset": {"points": [[0.0, None]]}}, "dataset points"),
        ({"name": "a/b"}, "'name'"),
        ({"name": [1]}, "'name'"),
        ({"name": ""}, "'name'"),
        ({"grid": {"M": 10, "delta_xi": 0.1, "alpha": 2}}, "'grid' takes only M and delta_xi"),
        ({"grid": {"M": 10}}, "config missing required field 'delta_xi'"),
        ({"sweep": {"axis": "sigma", "values": [0.1]}}, "sweep.axis must be one of"),
    ],
)
def test_sweep_malformed_spec_exit_2(tmp_path, capsys, overrides, message):
    # an input error that names its field, before any point runs; never a truncated M
    spec = sweep_spec(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main(["sweep", spec, "-d", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_spec_not_an_object_exit_2(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps([{"name": "demo"}]), encoding="utf-8")
    assert main(["sweep", str(path), "-d", str(tmp_path / "out")]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_sweep_bad_point_recorded_not_fatal(tmp_path):
    # M = 100000 passes the spec's checks but is over the fit's memory budget
    spec = sweep_spec(
        tmp_path,
        config={"alpha": 2, "lambda": 1, "memory_budget_mb": 2},
        sweep={"axis": "M", "values": [4, 100000]},
    )
    out = tmp_path / "out"
    assert main(["sweep", spec, "-d", str(out)]) == 0
    manifest = json.loads((out / "demo_manifest.json").read_text(encoding="utf-8"))
    statuses = [p["status"] for p in manifest["points"]]
    assert statuses[0] == "ok" and statuses[1].startswith("error")
    assert "memory_budget_mb" in statuses[1]


def test_sweep_point_programming_error_propagates(tmp_path, monkeypatch):
    # only input and numerical errors become a point's status
    def broken_fit(grid, data, config):
        raise TypeError("broken fit")

    monkeypatch.setattr(fdvar.cli, "fit", broken_fit)
    with pytest.raises(TypeError, match="broken fit"):
        main(["sweep", sweep_spec(tmp_path), "-d", str(tmp_path / "out")])


@pytest.mark.parametrize("axis,value", [("lambda", 0.25), ("alpha", 3.0), ("M", 7.0)])
def test_sweep_point_is_fit_and_eval_on_its_settings(tmp_path, axis, value):
    # a point is the spec's settings with the swept key set, read as a config file's are
    dataset = tmp_path / "pair.csv"
    dataset.write_text("x1,x2,y\n-0.5,0.25,0.9\n0.5,-0.25,0.4\n", encoding="utf-8")
    fields = {"M": 6, "delta_xi": 0.1, "alpha": 2.5, "lambda": 0.5, "solve_tolerance": 1e-9}
    grid = {key: fields.pop(key) for key in ("M", "delta_xi")}
    spec = sweep_spec(
        tmp_path,
        dataset=str(dataset),
        grid=grid,
        config=fields,
        sweep={"axis": axis, "values": [value]},
        eval_grid={"min": -1, "max": 1, "points": 9},
    )
    assert main(["sweep", spec, "-d", str(tmp_path / "out")]) == 0
    config = {**grid, **fields, axis: value}
    (tmp_path / "config.txt").write_text(
        "".join(f"{key} = {v!r}\n" for key, v in config.items()), encoding="utf-8"
    )
    model, recon = str(tmp_path / "model.json"), str(tmp_path / "recon.csv")
    assert main(["fit", str(tmp_path / "config.txt"), str(dataset), "-o", model]) == 0
    assert main(["eval", model, "--grid=-1:1:9", "-o", recon]) == 0
    swept = (tmp_path / "out" / f"demo_{axis}_000.csv").read_bytes()
    assert swept == (tmp_path / "recon.csv").read_bytes()


# ---------------------------------------------------------------------------
# critical / subcritical commands
# ---------------------------------------------------------------------------
def test_critical_command(tmp_path, capsys):
    code = main(
        [
            "critical",
            "--dim",
            "1",
            "--alpha",
            "3",
            "-o",
            str(tmp_path / "c.csv"),
            "--verdict",
            str(tmp_path / "v.json"),
        ]
    )
    assert code == 0
    verdict = json.loads((tmp_path / "v.json").read_text(encoding="utf-8"))
    assert verdict["classification"] == "diverges"
    lines = (tmp_path / "c.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "sigma,norm" and len(lines) == 10


@pytest.mark.parametrize(
    "ends,message",
    [
        (["--sigma-max", "-0.1"], "sigma_max must be positive and finite, got -0.1"),
        (["--sigma-min", "0"], "sigma_min must be positive and finite, got 0.0"),
    ],
    ids=["ends0", "ends1"],
)
def test_critical_checks_width_ends_before_log(tmp_path, capsys, ends, message):
    # the width rule runs before np.log10, which would warn on these ends
    out = tmp_path / "c.csv"
    assert main(["critical", "--dim", "1", "--alpha", "1", *ends, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "RuntimeWarning" not in err and not out.exists()


def test_subcritical_command(tmp_path, capsys):
    (tmp_path / "plane.csv").write_text(
        "x1,x2,y\n-1.5,0.5,1.0\n-0.5,0.5,0.9\n0.5,0.5,0.9\n1.5,0.5,1.0\n",
        encoding="utf-8",
    )
    code = main(
        [
            "subcritical",
            str(tmp_path / "plane.csv"),
            "--alpha",
            "1",
            "--sigmas",
            "0.1,0.05,0.025",
            "-o",
            str(tmp_path / "decay.csv"),
        ]
    )
    assert code == 0
    lines = (tmp_path / "decay.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "sigma,norm,dominance_margin"
    table = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    assert list(table[:, 1]) == sorted(table[:, 1], reverse=True)
    # stdout carries the sweep's log-log slope of the written norms
    slope = log_log_slope(table[:, 0], table[:, 1])
    assert capsys.readouterr().out == f"points=3 fitted_slope={slope!r}\n"


@pytest.mark.parametrize(
    "label,sigmas,message",
    [
        ("0.9", "0.05,0.1", "strictly decreasing"),
        ("0.9", "0.1", "at least 2 sigma values"),
        ("0", "0.1,0.05", "got y = 0.0 at x = 0.1"),  # all-zero labels: zero norms, no slope
    ],
    ids=["increasing", "one-width", "zero-labels"],
)
def test_subcritical_bad_sweep_exits_2(tmp_path, capsys, label, sigmas, message):
    (tmp_path / "pair.csv").write_text(f"x,y\n-0.5,{label}\n0.5,{label}\n", encoding="utf-8")
    decay = tmp_path / "decay.csv"
    args = ["subcritical", str(tmp_path / "pair.csv"), "--alpha", "1", "--sigmas", sigmas]
    assert main(args + ["-o", str(decay)]) == 2
    assert message in capsys.readouterr().err
    assert not decay.exists()


def _assert_named_overflow(capsys):
    # the error names the failing norm; nothing nonfinite reaches stdout
    out, err = capsys.readouterr()
    assert "alpha=" in err and "sigma=" in err and "not a finite positive double" in err
    assert "nan" not in out.lower() and "inf" not in out.lower()


def test_subcritical_overflow_exits_3(tmp_path, capsys):
    # (0.1)^(1 - 300) times a moment of order 300 is past the largest double
    (tmp_path / "two.csv").write_text("x,y\n-0.5,0.9\n0.5,0.9\n", encoding="utf-8")
    decay = tmp_path / "decay.csv"
    args = ["subcritical", str(tmp_path / "two.csv"), "--alpha", "300", "--sigmas", "0.1,0.05"]
    assert main(args + ["-o", str(decay)]) == 3
    assert not decay.exists()
    _assert_named_overflow(capsys)


@pytest.mark.parametrize(
    "sweep",
    [
        ["--alpha", "300", "--sigma-max", "0.3", "--sigma-min", "0.1", "--count", "3"],
        ["--alpha", "400", "--weight", "homogeneous"],
    ],
)
def test_critical_overflow_exits_3(tmp_path, capsys, sweep):
    out = ["-o", str(tmp_path / "c.csv"), "--verdict", str(tmp_path / "v.json")]
    assert main(["critical", "--dim", "1"] + sweep + out) == 3
    assert not (tmp_path / "c.csv").exists() and not (tmp_path / "v.json").exists()
    _assert_named_overflow(capsys)


def test_closedform_command(tmp_path):
    code = main(
        [
            "closedform",
            "--M",
            "500",
            "--delta-xi",
            "0.01",
            "--alpha",
            "4",
            "--lambda",
            "1",
            "--grid=-0.5:0.5:101",
            "-o",
            str(tmp_path / "cf.csv"),
        ]
    )
    assert code == 0
    lines = (tmp_path / "cf.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,h"
    assert len(lines) == 102
    from fdvar.closed_form import ClosedFormParams, reconstruction

    params = ClosedFormParams(M=500, delta_xi=0.01, alpha=4.0, lam=1.0)
    xs = np.linspace(-0.5, 0.5, 101)
    expected = reconstruction(params, xs)
    got = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.max(np.abs(got - expected)) < 1e-14


def test_missing_files_exit_2(tmp_path):
    assert main(["fit", "nope.txt", "nope.csv", "-o", str(tmp_path / "m.json")]) == 2
    assert main(["sweep", "nope.json", "-d", str(tmp_path)]) == 2
