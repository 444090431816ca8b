import json
import os

import numpy as np
import pytest

from fdvar.cli import main

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


def test_eval_rejects_non_hermitian_model(workspace, capsys):
    assert run_fit(workspace) == 0
    path = workspace / "model.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["coefficients"][0] = [0.0, 0.5]  # break the conjugate pairing
    path.write_text(json.dumps(payload), encoding="utf-8")
    code = main(
        ["eval", str(path), "--grid=-0.5:0.5:11", "-o", str(workspace / "recon.csv")]
    )
    assert code == 3
    assert "imaginary residue" in capsys.readouterr().err


def test_eval_2d_grid(workspace, tmp_path):
    (workspace / "plane.csv").write_text(
        "x1,x2,y\n0.0,0.0,1.0\n0.5,0.5,0.5\n", encoding="utf-8"
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


def test_sweep_sigma_axis_runs_decay(tmp_path):
    spec = sweep_spec(
        tmp_path,
        dataset={"points": [[-0.5, 0.9], [0.5, 0.9]]},
        config={"alpha": 1.0, "lambda": 1},
        sweep={"axis": "sigma", "values": [0.1, 0.05]},
    )
    out = tmp_path / "out"
    assert main(["sweep", spec, "-d", str(out)]) == 0
    lines = (out / "demo_sigma_000.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "sigma,norm,dominance_margin"
    assert len(lines) == 2


def test_sweep_bad_point_recorded_not_fatal(tmp_path):
    spec = sweep_spec(
        tmp_path,
        config={"alpha": 2, "lambda": 1},
        sweep={"axis": "M", "values": [4, 0.5]},
    )
    out = tmp_path / "out"
    assert main(["sweep", spec, "-d", str(out)]) == 0
    manifest = json.loads((out / "demo_manifest.json").read_text(encoding="utf-8"))
    statuses = [p["status"] for p in manifest["points"]]
    assert statuses[0] == "ok" and statuses[1].startswith("error")


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


def test_subcritical_command(tmp_path):
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
    norms = [float(line.split(",")[1]) for line in lines[1:]]
    assert norms == sorted(norms, reverse=True)


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
