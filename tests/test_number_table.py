"""One reader for every table of input numbers, driven through ``fdvar.cli.main``.

Four sources pass the same table check: a CSV dataset, a JSON records
dataset, a sweep spec's inline ``points`` and a model file's coefficient
pairs.  A valid table, written with ``repr``, loads bit-identically.  A table
with one entry replaced by a JSON token that is not a finite number, or with
one row cut short or made longer, exits 2 and names that row, and the
entry's column.  The consumer of the loaded table (``fit``, or the eval
grid's writer) is replaced by one that raises ``Loaded``, so no solve runs.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdvar.cli
from fdvar.cli import main

FIXED = settings(derandomize=True, max_examples=15, deadline=None, database=None)
BAD = ("true", '"0.25"', "null", "NaN", "Infinity")
NUMBERS = st.floats(allow_nan=False, allow_infinity=False)
CONFIG = "alpha = 2\nlambda = 1\nM = 2\ndelta_xi = 0.1\n"


class Loaded(Exception):
    """Carries what the CLI read, out of ``main``."""


def capture(*args):
    raise Loaded(args)


class CsvSource:
    """``x1..xd,y`` under a header, with a blank line before every odd row."""

    consumer, bad, fixed_rows = "fit", tuple(t for t in BAD if t != '"0.25"'), 0  # CSV unquotes "0.25"

    def argv(self, tmp, texts, width):
        lines, self.line = [",".join(f"x{j}" for j in range(width - 1)) + ",y"], {}
        for i, row in enumerate(texts):
            lines += [""] * (i % 2)
            lines.append(",".join(row))
            self.line[i] = len(lines)
        (tmp / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return fit_argv(tmp, "data.csv")

    def row(self, i):
        return f"dataset row {self.line[i]}"

    def entry(self, i, j):
        return f"{self.row(i)} column {j + 1}"

    def loaded(self, args):
        return np.column_stack([args[1].X, args[1].Y])


class JsonSource:
    """Records with fields ``x0..`` and ``y``."""

    consumer, bad, fixed_rows = "fit", BAD, 1  # record 0 fixes the fields

    def argv(self, tmp, texts, width):
        self.fields = [f"x{j}" for j in range(width - 1)] + ["y"]
        records = [
            "{" + ", ".join(f'"{k}": {t}' for k, t in zip(self.fields + ["z"], row)) + "}"
            for row in texts
        ]
        (tmp / "data.json").write_text("[" + ", ".join(records) + "]", encoding="utf-8")
        return fit_argv(tmp, "data.json")

    def row(self, i):
        return f"dataset record {i}"

    def entry(self, i, j):
        return f"{self.row(i)} field {self.fields[j]!r}"

    def loaded(self, args):
        return np.column_stack([args[1].X, args[1].Y])


class PointsSource:
    """A sweep spec's ``dataset.points``."""

    consumer, bad, fixed_rows = "fit", BAD, 1  # the first row fixes the width

    def argv(self, tmp, texts, width):
        points = "[" + ", ".join("[" + ", ".join(row) + "]" for row in texts) + "]"
        spec = (
            '{"dataset": {"points": %s}, "grid": {"M": 2, "delta_xi": 0.1},'
            ' "config": {"alpha": 2, "lambda": 1}, "sweep": {"axis": "alpha", "values": [1]}}'
        )
        (tmp / "spec.json").write_text(spec % points, encoding="utf-8")
        return ["sweep", str(tmp / "spec.json"), "-d", str(tmp / "out")]

    def row(self, i):
        return f"dataset points[{i}]"

    def entry(self, i, j):
        return f"{self.row(i)}[{j}]"

    def loaded(self, args):
        return np.column_stack([args[1].X, args[1].Y])


class ModelSource:
    """A d = 1 model file's (re, im) pairs."""

    consumer, bad, fixed_rows = "_write_reconstruction", BAD, 0

    def argv(self, tmp, texts, width):
        pairs = "[" + ", ".join("[" + ", ".join(row) + "]" for row in texts) + "]"
        model = (
            '{"format": "fdvar-model", "version": 1,'
            ' "grid": {"d": 1, "M": %d, "delta_xi": 0.1},'
            ' "config": {"alpha": 2.0, "lambda": 1.0, "solve_tolerance": 1e-10,'
            ' "memory_budget_mb": 4096.0},'
            ' "dataset_hash": "", "objective": 0.0, "residuals": [], "coefficients": %s}'
        )
        (tmp / "model.json").write_text(model % (len(texts) // 2, pairs), encoding="utf-8")
        return ["eval", str(tmp / "model.json"), "--grid=-0.5:0.5:3", "-o", str(tmp / "r.csv")]

    def row(self, i):
        return f"pair {i}"

    def entry(self, i, j):
        return f"{self.row(i)} {('re', 'im')[j]}"

    def loaded(self, args):
        values = args[0].coefficients.values
        return np.column_stack([values.real, values.imag])


SOURCES = {"csv": CsvSource, "json": JsonSource, "points": PointsSource, "model": ModelSource}


def fit_argv(tmp, dataset):
    (tmp / "config.txt").write_text(CONFIG, encoding="utf-8")
    return ["fit", str(tmp / "config.txt"), str(tmp / dataset), "-o", str(tmp / "model.json")]


@st.composite
def tables(draw, source):
    """A valid table: distinct points for a dataset, Hermitian pairs for a model."""
    if source == "model":
        half = draw(st.lists(st.tuples(NUMBERS, NUMBERS), min_size=1, max_size=4))
        centre = (draw(NUMBERS), draw(st.sampled_from([0.0, -0.0])))
        mirror = [(re, -im) for re, im in reversed(half)]
        return np.array(half + [centre] + mirror)
    width = draw(st.integers(2, 4))
    rows = st.lists(NUMBERS, min_size=width, max_size=width)
    return np.array(
        draw(st.lists(rows, min_size=2, max_size=6, unique_by=lambda row: tuple(row[:-1])))
    )


def run(source, tmp, texts, width):
    """Exit code and stderr of ``main`` on ``texts``, or the loaded arguments."""
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(err):
        patch.setattr(fdvar.cli, source.consumer, capture)
        try:
            return main(source.argv(tmp, texts, width)), err.getvalue()
        except Loaded as loaded:
            return loaded.args[0], None


def texts_of(table):
    return [[repr(float(v)) for v in row] for row in table]


@pytest.mark.parametrize("name", SOURCES)
@FIXED
@given(data=st.data())
def test_valid_table_loads_bit_identically(tmp_path_factory, name, data):
    source, table = SOURCES[name](), data.draw(tables(name))
    loaded, _ = run(source, tmp_path_factory.mktemp(name), texts_of(table), table.shape[1])
    assert source.loaded(loaded).tobytes() == table.tobytes()


@pytest.mark.parametrize("name", SOURCES)
@FIXED
@given(data=st.data())
def test_bad_entry_exits_2_naming_row_and_column(tmp_path_factory, name, data):
    source, table = SOURCES[name](), data.draw(tables(name))
    texts = texts_of(table)
    i = data.draw(st.integers(0, len(texts) - 1))
    j = data.draw(st.integers(0, len(texts[0]) - 1))
    texts[i][j] = data.draw(st.sampled_from(source.bad))
    code, err = run(source, tmp_path_factory.mktemp(name), texts, table.shape[1])
    assert code == 2
    assert f": {source.entry(i, j)} must be a finite number, got " in err


@pytest.mark.parametrize("name", SOURCES)
@FIXED
@given(data=st.data())
def test_row_of_another_width_exits_2_naming_row(tmp_path_factory, name, data):
    source, table = SOURCES[name](), data.draw(tables(name))
    texts = texts_of(table)
    i = data.draw(st.integers(source.fixed_rows, len(texts) - 1))
    texts[i] = texts[i][:-1] if data.draw(st.booleans()) else texts[i] + ["0.5"]
    code, err = run(source, tmp_path_factory.mktemp(name), texts, table.shape[1])
    assert code == 2
    assert f": {source.row(i)} is " in err
