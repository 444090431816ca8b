import json

import numpy as np
import pytest

from fdvar import Dataset, FrequencyGrid, SolveConfig, fit
from fdvar import io


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------
def test_load_csv(tmp_path):
    path = write(tmp_path / "d.csv", "x1,x2,y\n0.0,0.5,1.0\n-0.25,0.5,0.9\n")
    data = io.load_dataset(path)
    assert data.n == 2 and data.d == 2
    assert np.allclose(data.X, [[0.0, 0.5], [-0.25, 0.5]])
    assert np.allclose(data.Y, [1.0, 0.9])


def test_csv_requires_header(tmp_path):
    path = write(tmp_path / "d.csv", "0.0,1.0\n0.5,2.0\n")
    with pytest.raises(ValueError, match="header"):
        io.load_dataset(path)


def test_csv_empty(tmp_path):
    path = write(tmp_path / "d.csv", "x,y\n")
    with pytest.raises(ValueError, match="dataset empty"):
        io.load_dataset(path)


def test_csv_bad_cell(tmp_path):
    path = write(tmp_path / "d.csv", "x,y\n0.0,oops\n")
    with pytest.raises(ValueError, match="row 2"):
        io.load_dataset(path)


def test_load_json_records(tmp_path):
    path = write(
        tmp_path / "d.json",
        json.dumps([{"x1": 0.0, "x2": 0.5, "y": 1.0}, {"x1": 1.0, "x2": 0.5, "y": 0.9}]),
    )
    data = io.load_dataset(path)
    assert data.d == 2 and np.allclose(data.Y, [1.0, 0.9])


def test_load_json_last_key_label(tmp_path):
    path = write(tmp_path / "d.json", json.dumps([{"a": 0.0, "label": 3.0}]))
    data = io.load_dataset(path)
    assert data.d == 1 and data.Y[0] == 3.0


def test_dataset_from_points():
    data = io.dataset_from_points([[0.0, 0.5, 1.0], [1.0, 0.5, 0.9]])
    assert data.d == 2 and data.n == 2


def test_dataset_hash_sensitivity():
    a = Dataset(X=[0.0, 1.0], Y=[1.0, 2.0])
    b = Dataset(X=[0.0, 1.0], Y=[1.0, 2.5])
    assert io.dataset_hash(a) == io.dataset_hash(Dataset(X=[0.0, 1.0], Y=[1.0, 2.0]))
    assert io.dataset_hash(a) != io.dataset_hash(b)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------
CONFIG_TEXT = """
# solver settings
alpha = 4
lambda = 0.5
M = 100
delta_xi = 0.1
"""


def test_config_parse(tmp_path):
    grid_params, config = io.load_config(write(tmp_path / "c.txt", CONFIG_TEXT))
    assert grid_params == {"M": 100, "delta_xi": 0.1}
    assert config == SolveConfig(alpha=4.0, lam=0.5)


@pytest.mark.parametrize("missing", ["alpha", "lambda", "M", "delta_xi"])
def test_config_missing_field_named(tmp_path, missing):
    lines = [l for l in CONFIG_TEXT.splitlines() if not l.strip().startswith(missing)]
    with pytest.raises(ValueError, match=missing):
        io.load_config(write(tmp_path / "c.txt", "\n".join(lines)))


def test_config_bad_values(tmp_path):
    with pytest.raises(ValueError, match="'M'"):
        io.config_from_entries({"alpha": "1", "lambda": "1", "M": "2.5", "delta_xi": "0.1"})
    with pytest.raises(ValueError, match="not 'key = value'"):
        io.parse_config_text("alpha 4")


@pytest.mark.parametrize(
    "key", ["bakend", "backend", "hermitian_projection", "riemann_normalize"]
)
def test_config_unknown_key_named(tmp_path, key):
    # a misspelt or removed setting must not silently fall back to a default
    path = write(tmp_path / "c.txt", CONFIG_TEXT + f"{key} = svd\n")
    with pytest.raises(ValueError, match=key):
        io.load_config(path)


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------
def make_model():
    grid = FrequencyGrid(d=1, M=5, delta_xi=0.2)
    data = Dataset(X=[0.0, 0.4], Y=[1.0, -0.5])
    return fit(grid, data, SolveConfig(alpha=2.5, lam=0.3))


def test_model_roundtrip_bitstable(tmp_path):
    model = make_model()
    first = tmp_path / "m1.json"
    second = tmp_path / "m2.json"
    io.save_model(model, str(first))
    loaded = io.load_model(str(first))
    assert np.array_equal(loaded.coefficients.values, model.coefficients.values)
    assert loaded.config == model.config
    assert loaded.dataset_hash == model.dataset_hash
    assert loaded.objective == model.objective
    assert np.array_equal(loaded.residuals, model.residuals)
    io.save_model(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()


def test_model_loader_ignores_removed_config_keys(tmp_path):
    # version-1 files written before these settings were dropped still load
    model = make_model()
    payload = io.model_to_dict(model)
    payload["config"].update(backend="svd", hermitian_projection=True, riemann_normalize=False)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    loaded = io.load_model(str(path))
    assert loaded.config == model.config
    assert np.array_equal(loaded.coefficients.values, model.coefficients.values)


def test_model_format_guard(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "other"}), encoding="utf-8")
    with pytest.raises(ValueError, match="format"):
        io.load_model(str(path))


def test_write_csv_deterministic(tmp_path):
    rows = [[0.1, 1.0 / 3.0], [0.2, 2.0]]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    io.write_csv(str(a), ["x", "y"], rows)
    io.write_csv(str(b), ["x", "y"], rows)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "x,y"
    # shortest round-trip decimal
    assert "0.3333333333333333" in text
