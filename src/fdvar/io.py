"""Dataset ingestion, config parsing, and model persistence.

Datasets arrive as CSV (d coordinate columns then one label column, header
row required) or as a JSON array of records whose fields mirror the same
column layout.  CSV artifacts are float tables, JSON artifacts are compact
single lines, and every float is written as its ``repr``.  Model files store
(re, im) coefficient pairs in flat-index order; save/load/save is byte-stable
and indented model files still load.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile

import numpy as np

from .core import Dataset, FittedModel, SolveConfig, SpectralCoefficients
from .grid import FrequencyGrid

_MODEL_FORMAT = "fdvar-model"
_MODEL_VERSION = 1

_REQUIRED_CONFIG = ("alpha", "lambda", "M", "delta_xi")
_OPTIONAL_CONFIG = ("solve_tolerance", "memory_budget_mb")


# ---------------------------------------------------------------------------
# atomic writers with round-trip float formatting
# ---------------------------------------------------------------------------
def format_float(value: float) -> str:
    return repr(float(value))


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fdvar-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], table) -> None:
    """Write an n-by-len(header) float table under ``header``, cells as ``format_float``."""
    rows = np.asarray(table, dtype=float).reshape(-1, len(header)).tolist()
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload) + "\n")


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------
def dataset_hash(data: Dataset) -> str:
    digest = hashlib.sha256()
    digest.update(b"fdvar-dataset-v1")
    digest.update(np.array([data.n, data.d], dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(data.X, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(data.Y, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _parse_cell(cell: str, where: str) -> float:
    try:
        return float(cell)
    except ValueError as exc:
        raise ValueError(f"{where}: cannot parse {cell!r} as a number") from exc


def _dataset_from_rows(rows: list[list[float]]) -> Dataset:
    if not rows:
        raise ValueError("dataset empty")
    width = len(rows[0])
    if width < 2:
        raise ValueError("dataset rows need at least one coordinate and one label")
    if any(len(row) != width for row in rows):
        raise ValueError("dataset rows have inconsistent column counts")
    table = np.asarray(rows, dtype=float)
    return Dataset(X=table[:, :-1], Y=table[:, -1])


def _load_dataset_csv(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        raw = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not raw:
        raise ValueError("dataset empty")
    header = raw[0]
    header_numeric = True
    for cell in header:
        try:
            float(cell)
        except ValueError:
            header_numeric = False
            break
    if header_numeric:
        raise ValueError("dataset CSV must start with a header row")
    rows = [
        [_parse_cell(cell.strip(), f"row {i + 2}") for cell in row]
        for i, row in enumerate(raw[1:])
    ]
    return _dataset_from_rows(rows)


def _load_dataset_json(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8") as handle:
        records = json.load(handle)
    if not isinstance(records, list):
        raise ValueError("dataset JSON must be an array of records")
    if not records:
        raise ValueError("dataset empty")
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"dataset record {i} is not a JSON object: {record!r}")
    keys = list(records[0].keys())
    if len(keys) < 2:
        raise ValueError("dataset records need at least one coordinate and one label")
    label_key = "y" if "y" in keys else keys[-1]
    coord_keys = [k for k in keys if k != label_key]
    rows = []
    for i, record in enumerate(records):
        if set(record.keys()) != set(keys):
            raise ValueError(f"dataset record {i} has mismatched fields")
        try:
            rows.append([float(record[k]) for k in coord_keys] + [float(record[label_key])])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"dataset record {i} has a field that is not a number") from exc
    return _dataset_from_rows(rows)


def load_dataset(path: str) -> Dataset:
    """Read a dataset from ``.csv`` or ``.json`` (chosen by extension)."""
    if path.lower().endswith(".json"):
        return _load_dataset_json(path)
    return _load_dataset_csv(path)


def dataset_from_points(points) -> Dataset:
    """Build a dataset from inline rows ``[x1, ..., xd, y]``."""
    try:
        rows = [list(map(float, row)) for row in points]
    except TypeError as exc:
        raise ValueError(f"dataset points must be rows of numbers, got {points!r}") from exc
    return _dataset_from_rows(rows)


# ---------------------------------------------------------------------------
# config files (flat key = value namespace)
# ---------------------------------------------------------------------------
def parse_config_text(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        for sep in ("=", ":"):
            if sep in stripped:
                key, value = stripped.split(sep, 1)
                entries[key.strip()] = value.strip()
                break
        else:
            raise ValueError(f"config line {lineno} is not 'key = value': {line!r}")
    return entries


def config_from_entries(entries: dict[str, str]) -> tuple[dict, SolveConfig]:
    """Split a flat config namespace into grid parameters and solver settings.

    A key that names no field is an error, so a misspelt setting cannot fall
    back to its default unnoticed.  Optional keys that are absent take
    ``SolveConfig``'s defaults.
    """
    unknown = sorted(set(entries) - set(_REQUIRED_CONFIG) - set(_OPTIONAL_CONFIG))
    if unknown:
        raise ValueError(f"unknown config field(s) {', '.join(map(repr, unknown))}")
    for field in _REQUIRED_CONFIG:
        if field not in entries:
            raise ValueError(f"config missing required field '{field}'")

    def number(field: str) -> float:
        try:
            return float(entries[field])
        except ValueError as exc:
            raise ValueError(f"config field '{field}' must be a number") from exc

    m_value = number("M")
    if not m_value.is_integer() or m_value < 1:
        raise ValueError("config field 'M' must be a positive integer")
    grid_params = {"M": int(m_value), "delta_xi": number("delta_xi")}

    config = SolveConfig(
        alpha=number("alpha"),
        lam=number("lambda"),
        **{field: number(field) for field in _OPTIONAL_CONFIG if field in entries},
    )
    return grid_params, config


def load_config(path: str) -> tuple[dict, SolveConfig]:
    with open(path, "r", encoding="utf-8") as handle:
        return config_from_entries(parse_config_text(handle.read()))


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------
def model_to_dict(model: FittedModel) -> dict:
    grid = model.grid
    values = model.coefficients.values
    return {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "grid": {"d": grid.d, "M": grid.M, "delta_xi": grid.delta_xi},
        "config": {
            "alpha": model.config.alpha,
            "lambda": model.config.lam,
            "solve_tolerance": model.config.solve_tolerance,
            "memory_budget_mb": model.config.memory_budget_mb,
        },
        "dataset_hash": model.dataset_hash,
        "objective": model.objective,
        "residuals": model.residuals.tolist(),
        "coefficients": np.column_stack([values.real, values.imag]).tolist(),
    }


def model_from_dict(payload: dict) -> FittedModel:
    if payload.get("format") != _MODEL_FORMAT:
        raise ValueError("not a model file (missing format marker)")
    if payload.get("version") != _MODEL_VERSION:
        raise ValueError(f"unsupported model version {payload.get('version')!r}")
    grid_info = payload["grid"]
    grid = FrequencyGrid(
        d=int(grid_info["d"]), M=int(grid_info["M"]), delta_xi=float(grid_info["delta_xi"])
    )
    # Version-1 files may also carry backend, hermitian_projection and
    # riemann_normalize, which no SolveConfig field reads; they still load.
    cfg = payload["config"]
    config = SolveConfig(
        alpha=float(cfg["alpha"]),
        lam=float(cfg["lambda"]),
        solve_tolerance=float(cfg["solve_tolerance"]),
        memory_budget_mb=float(cfg["memory_budget_mb"]),
    )
    pairs = np.asarray(payload["coefficients"], dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("model coefficients must be (re, im) pairs")
    return FittedModel(
        coefficients=SpectralCoefficients(values=pairs[:, 0] + 1j * pairs[:, 1], grid=grid),
        config=config,
        dataset_hash=str(payload["dataset_hash"]),
        objective=float(payload["objective"]),
        residuals=np.asarray(payload["residuals"], dtype=float),
    )


def save_model(model: FittedModel, path: str) -> None:
    write_json(path, model_to_dict(model))


def load_model(path: str) -> FittedModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))
