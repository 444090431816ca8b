import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    # library callers may pass tuples or numpy arrays, whose entries are numpy scalars
    for points in ([(0.0, 0.5, 1.0), (1.0, 0.5, 0.9)], np.array([[0.0, 0.5, 1.0], [1.0, 0.5, 0.9]])):
        assert io.dataset_hash(io.dataset_from_points(points)) == io.dataset_hash(data)


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
    grid, config = io.load_config(write(tmp_path / "c.txt", CONFIG_TEXT), 2)
    assert grid == FrequencyGrid(d=2, M=100, delta_xi=0.1)
    assert config == SolveConfig(alpha=4.0, lam=0.5)


@pytest.mark.parametrize("missing", ["alpha", "lambda", "M", "delta_xi"])
def test_config_missing_field_named(tmp_path, missing):
    lines = [l for l in CONFIG_TEXT.splitlines() if not l.strip().startswith(missing)]
    with pytest.raises(ValueError, match=missing):
        io.load_config(write(tmp_path / "c.txt", "\n".join(lines)), 1)


def test_config_bad_values(tmp_path):
    with pytest.raises(ValueError, match="M must be a positive integer, got 2.5"):
        io.settings({"alpha": 1.0, "lambda": 1.0, "M": 2.5, "delta_xi": 0.1}, 1)
    with pytest.raises(ValueError, match="not 'key = value'"):
        io.parse_config_text("alpha 4")


@pytest.mark.parametrize(
    "key", ["bakend", "backend", "hermitian_projection", "riemann_normalize"]
)
def test_config_unknown_key_named(tmp_path, key):
    # a misspelt or removed setting must not silently fall back to a default
    path = write(tmp_path / "c.txt", CONFIG_TEXT + f"{key} = svd\n")
    with pytest.raises(ValueError, match=key):
        io.load_config(path, 1)


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
    assert first.read_text(encoding="utf-8").count("\n") == 1  # compact: one line
    # a file in the indented layout that earlier releases wrote loads bit-identically
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(io.model_to_dict(model), indent=2) + "\n", encoding="utf-8")
    old = io.load_model(str(indented))
    assert old.coefficients.values.tobytes() == model.coefficients.values.tobytes()
    assert old.residuals.tobytes() == model.residuals.tobytes()
    resaved = tmp_path / "resaved.json"
    io.save_model(old, str(resaved))
    assert resaved.read_bytes() == first.read_bytes()


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
    for payload in ({"format": "other"}, [1]):
        path.write_text(json.dumps(payload), encoding="utf-8")
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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.floats(), min_size=3, max_size=3), max_size=6))
@example([[math.nan, math.inf, -math.inf], [-0.0, 5e-324, 1e16], [0.1 + 0.2, 0.0, -1.5]])
def test_write_csv_cells_are_float_reprs(tmp_path_factory, rows):
    # the CSV bytes are the header, then each row's cells as repr(float), whatever the value
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    io.write_csv(str(path), ["a", "b", "c"], np.array(rows, dtype=float))
    lines = ["a,b,c"] + [",".join(repr(float(cell)) for cell in row) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
