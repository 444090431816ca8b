"""Dataset ingestion, settings, and model persistence.

Datasets arrive as CSV (d coordinate columns then one label column, header
row required) or as a JSON array of records whose fields mirror the same
column layout.  ``settings`` is the one reader of the settings block (``M``,
``delta_xi``, ``alpha``, ``lambda``, ``solve_tolerance``,
``memory_budget_mb``), for config files and sweep specs alike.  CSV artifacts
are float tables, JSON artifacts are compact single lines, and every float is
written as its ``repr``.  Model files store (re, im) coefficient pairs in
flat-index order; save/load/save is byte-stable and indented model files
still load.  ``model_from_dict`` is their one check: every fault is a
``ValueError``, which the CLI maps to exit 2.  Every JSON number passes a rule
of ``errors`` or a type scan: ``true`` and ``"0.25"`` are not numbers.
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


def _parse_cell(cell: str, row: int, column: int) -> float:
    try:
        value = float(cell)
    except ValueError as exc:
        raise ValueError(f"row {row}: cannot parse {cell!r} as a number") from exc
    return finite_real(f"dataset row {row} column {column}", value)


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
        [_parse_cell(cell.strip(), i + 2, j + 1) for j, cell in enumerate(row)]
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
    columns = [k for k in keys if k != label_key] + [label_key]
    rows = []
    for i, record in enumerate(records):
        if set(record.keys()) != set(keys):
            raise ValueError(f"dataset record {i} has mismatched fields")
        rows.append([finite_real(f"dataset record {i} field {k!r}", record[k]) for k in columns])
    return _dataset_from_rows(rows)


def load_dataset(path: str) -> Dataset:
    """Read a dataset from ``.csv`` or ``.json`` (chosen by extension)."""
    if path.lower().endswith(".json"):
        return _load_dataset_json(path)
    return _load_dataset_csv(path)


def dataset_from_points(points) -> Dataset:
    """Build a dataset from inline rows ``[x1, ..., xd, y]``."""
    try:
        rows = [
            [finite_real(f"dataset points[{i}][{j}]", v) for j, v in enumerate(row)]
            for i, row in enumerate(points)
        ]
    except TypeError as exc:
        raise ValueError(f"dataset points must be rows of numbers, got {points!r}") from exc
    return _dataset_from_rows(rows)


# ---------------------------------------------------------------------------
# settings: config files (flat key = value namespace) and sweep specs
# ---------------------------------------------------------------------------
def parse_config_text(text: str) -> dict[str, float | str]:
    """A config file's ``key = value`` lines; a value that parses as a float is one."""
    entries: dict[str, float | str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        for sep in ("=", ":"):
            if sep in stripped:
                key, value = (part.strip() for part in stripped.split(sep, 1))
                try:
                    entries[key] = float(value)
                except ValueError:
                    entries[key] = value  # text, which its quantity's rule rejects by name
                break
        else:
            raise ValueError(f"config line {lineno} is not 'key = value': {line!r}")
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


def _number_pairs(_, pairs) -> np.ndarray:
    """Coefficient pairs as a float array: ``np.asarray`` alone would take ``true``
    and ``"0.25"``, so every entry's type is scanned first."""
    if not set(map(type, itertools.chain.from_iterable(pairs))) <= {int, float}:
        bad = ((i, p) for i, p in enumerate(pairs) if not set(map(type, p)) <= {int, float})
        raise ValueError("pair {} is {!r}, not JSON numbers".format(*next(bad)))
    return np.asarray(pairs, dtype=float)


def model_from_dict(payload: dict) -> FittedModel:
    """The one check of a model file: a missing or malformed field, a coefficient
    not finite or a Hermitian defect over its limit is a ``ValueError``."""
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
    pairs = field("coefficients", _number_pairs)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("model coefficients must be (re, im) pairs")
    # Before the defect: a NaN defect compares false against any limit.
    bad = np.flatnonzero(~np.isfinite(pairs).all(axis=1))
    if bad.size:
        raise ValueError(f"model coefficient pair {bad[0]} is {pairs[bad[0]].tolist()}, not finite")
    coefficients = SpectralCoefficients(values=pairs[:, 0] + 1j * pairs[:, 1], grid=grid)
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
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))
