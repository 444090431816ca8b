"""Dataset ingestion, settings, and model persistence.

Datasets arrive as CSV (d coordinate columns then one label column; the header
row is required and fixes the width) or as a JSON array of records whose
fields mirror the same column layout.  ``number_or_text`` is the one reader of a
number written as text (config values, CSV cells, CLI flags); other text is kept
for its quantity's rule to reject by name.  ``settings`` is the one reader of the
settings block (``M``, ``delta_xi``, ``alpha``, ``lambda``, ``solve_tolerance``,
``memory_budget_mb``), for config files and sweep specs alike.  CSV artifacts
are float tables, JSON artifacts are compact single lines, and every float is
written as its ``repr``.  Model files store (re, im) coefficient pairs in
flat-index order; save/load/save is byte-stable and indented model files still
load.  ``model_from_dict`` is their one check: every fault is a ``ValueError``,
which the CLI maps to exit 2.  Datasets and coefficient pairs pass one table
check, ``_number_table``; ``true``, ``"0.25"`` and a key given twice are errors.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import tempfile

import numpy as np

from .core import Dataset, FittedModel, SolveConfig, SpectralCoefficients
from .errors import finite_real, nonnegative_real, positive_int, positive_real
from .grid import FrequencyGrid

_MODEL_FORMAT = "fdvar-model"
_MODEL_VERSION = 1
_HERMITIAN_TOL = 1e-8  # relative to the largest coefficient

_SETTINGS = ("alpha", "lambda", "M", "delta_xi", "solve_tolerance", "memory_budget_mb")


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


def _unique_keys(pairs: list) -> dict:
    result = {}
    for key, value in pairs:
        if key in result:
            raise ValueError(f"JSON key {key!r} is given twice")
        result[key] = value
    return result


def read_json(path: str):
    """A JSON file's value; a key given twice in one object is an error naming it."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle, object_pairs_hook=_unique_keys)


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


_ROW = (list, tuple, np.ndarray)


def _number_table(rows, columns, where) -> np.ndarray:
    """``rows`` as an n-by-len(columns) float array.  Only a table that fails the
    type scan, the shape or ``np.isfinite`` is walked, to raise for its first row
    of another width or its first entry that breaks ``finite_real``, named
    ``where(i) + column``."""
    width = len(columns)
    try:
        if set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
            table = np.asarray(rows, dtype=float).reshape(len(rows), width)
            if np.isfinite(table).all():
                return table
    except (TypeError, ValueError, OverflowError):  # ragged, or 10**400
        pass
    for i, row in enumerate(rows):
        if not isinstance(row, _ROW) or len(row) != width:
            raise ValueError(f"{where(i)} is {row!r}, not a row of {width} numbers")
        for column, value in zip(columns, row):
            finite_real(where(i) + column, value)
    return np.asarray(rows, dtype=float).reshape(len(rows), width)  # numpy scalars, tuples


def _dataset(rows, columns, where) -> Dataset:
    """The last column is the label; the columns fix the width."""
    if len(rows) == 0:
        raise ValueError("dataset empty")
    if len(columns) < 2:
        raise ValueError("dataset rows need at least one coordinate and one label")
    table = _number_table(rows, columns, where)
    return Dataset(X=table[:, :-1], Y=table[:, -1])


def number_or_text(text: str) -> float | str:
    """ASCII text without ``_`` in ``float`` syntax, spaces around it allowed, as that float
    (``nan`` and ``inf`` too); any other text, such as ``1_0`` or ``١٠``, unchanged."""
    try:
        return float(text) if text.isascii() and "_" not in text else text
    except ValueError:
        return text


def _load_dataset_csv(path: str) -> Dataset:
    """The header fixes the width; a row is named by its line in the file."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)  # line_num: the file line of the row just read
        table = {reader.line_num: row for row in reader if any(cell.strip() for cell in row)}
    lines, rows = list(table), [[number_or_text(cell) for cell in row] for row in table.values()]
    if not rows:
        raise ValueError("dataset empty")
    if all(isinstance(cell, float) for cell in rows[0]):
        raise ValueError("dataset CSV must start with a header row")
    columns = [f" column {j}" for j in range(1, len(rows[0]) + 1)]
    return _dataset(rows[1:], columns, lambda i: f"dataset row {lines[i + 1]}")


def _load_dataset_json(path: str) -> Dataset:
    """The label is field ``y``, or the last field; record 0 fixes the fields."""
    records = read_json(path)
    if not isinstance(records, list):
        raise ValueError("dataset JSON must be an array of records")
    for i, record in enumerate(records):
        if not isinstance(record, dict) or record.keys() != records[0].keys():
            raise ValueError(f"dataset record {i} is not a JSON object like record 0: {record!r}")
    keys = list(records[0]) if records else []
    label = ["y"] if "y" in keys else keys[-1:]
    fields = [k for k in keys if k not in label] + label
    rows = [[record[k] for k in fields] for record in records]
    return _dataset(rows, [f" field {k!r}" for k in fields], "dataset record {}".format)


def load_dataset(path: str) -> Dataset:
    """Read a dataset from ``.csv`` or ``.json`` (chosen by extension)."""
    if path.lower().endswith(".json"):
        return _load_dataset_json(path)
    return _load_dataset_csv(path)


def dataset_from_points(points) -> Dataset:
    """Build a dataset from inline rows ``[x1, ..., xd, y]``; the first row fixes the width."""
    width = len(points[0]) if len(points) and isinstance(points[0], _ROW) else 0
    return _dataset(points, [f"[{j}]" for j in range(width)], "dataset points[{}]".format)


# ---------------------------------------------------------------------------
# settings: config files (flat key = value namespace) and sweep specs
# ---------------------------------------------------------------------------
def parse_config_text(text: str) -> dict[str, float | str]:
    """A config file's ``key = value`` lines, each value read by ``number_or_text``."""
    entries: dict[str, float | str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno} is not 'key = value': {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in entries:
            raise ValueError(f"config line {lineno} sets {key!r} again")
        entries[key] = number_or_text(value)
    return entries


def settings(fields: dict, d: int) -> tuple[FrequencyGrid, SolveConfig]:
    """The grid and solver settings of ``fields``, for data of dimension ``d``.

    A key that names no setting is an error, so a misspelt setting cannot fall
    back to its default unnoticed.  ``alpha``, ``lambda``, ``M`` and
    ``delta_xi`` are required; absent optional keys take ``SolveConfig``'s
    defaults.  The constructors apply each quantity's rule.
    """
    unknown = sorted(set(fields) - set(_SETTINGS))
    if unknown:
        raise ValueError(f"unknown config field(s) {', '.join(map(repr, unknown))}")
    for key in _SETTINGS[:4]:
        if key not in fields:
            raise ValueError(f"config missing required field '{key}'")
    optional = {key: fields[key] for key in _SETTINGS[4:] if key in fields}
    grid = FrequencyGrid(d=d, M=fields["M"], delta_xi=fields["delta_xi"])
    return grid, SolveConfig(alpha=fields["alpha"], lam=fields["lambda"], **optional)


def load_config(path: str, d: int) -> tuple[FrequencyGrid, SolveConfig]:
    with open(path, "r", encoding="utf-8") as handle:
        return settings(parse_config_text(handle.read()), d)


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
    """The one check of a model file: a missing or malformed field, or a Hermitian
    defect over its limit, is a ``ValueError``."""
    if not isinstance(payload, dict) or payload.get("format") != _MODEL_FORMAT:
        raise ValueError("not a model file (missing format marker)")
    if payload.get("version") != _MODEL_VERSION:
        raise ValueError(f"unsupported model version {payload.get('version')!r}")

    def field(path: str, rule):  # rule(last key of path, value)
        value = payload
        try:
            for key in path.split("."):
                value = value[key]
            return rule(key, value)
        except KeyError:
            raise ValueError(f"model file has no field '{path}'") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"model field '{path}' is malformed: {exc}") from exc

    d, M = field("grid.d", positive_int), field("grid.M", positive_int)
    grid = FrequencyGrid(d=d, M=M, delta_xi=field("grid.delta_xi", positive_real))
    # Version-1 files may also carry backend, hermitian_projection and
    # riemann_normalize, which no SolveConfig field reads; they still load.
    config = SolveConfig(
        alpha=field("config.alpha", positive_real),
        lam=field("config.lambda", nonnegative_real),
        solve_tolerance=field("config.solve_tolerance", positive_real),
        memory_budget_mb=field("config.memory_budget_mb", positive_real),
    )
    # Before the defect: a NaN defect compares false against any limit.
    pairs = field("coefficients", lambda _, v: _number_table(v, (" re", " im"), "pair {}".format))
    coefficients = SpectralCoefficients(values=pairs.view(complex)[:, 0], grid=grid)  # exact bits
    defect = coefficients.hermitian_defect()
    limit = _HERMITIAN_TOL * float(np.abs(coefficients.values).max(initial=0.0))
    if defect > limit:
        raise ValueError(f"model Hermitian defect {defect:.3e} is over its limit {limit:.3e}")
    return FittedModel(
        coefficients=coefficients,
        config=config,
        dataset_hash=field("dataset_hash", lambda _, v: str(v)),
        objective=field("objective", nonnegative_real),
        residuals=field("residuals", lambda _, v: v),
    )


def save_model(model: FittedModel, path: str) -> None:
    write_json(path, model_to_dict(model))


def load_model(path: str) -> FittedModel:
    return model_from_dict(read_json(path))
