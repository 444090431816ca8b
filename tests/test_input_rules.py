"""One rule per input quantity, the same at every entry point.

Each case is an input that an entry point accepted, misread or judged by
another quantity's rule before every entry point shared ``fdvar.errors``: a
config file, a model file, a JSON dataset, a sweep spec, ``closedform
--label`` and the library constructors.  CLI cases exit 2 and name the
field; library cases raise a ``ValueError`` that names the quantity and the
value.  Every number written as text, in a file or a flag, is read by
``io.number_or_text``: ``1_0`` and ``١٠`` are no numbers anywhere.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fdvar.cli import _FLAG_RULES, main
from fdvar.io import number_or_text
from fdvar.closed_form import ClosedFormParams
from fdvar.core import FittedModel, SolveConfig, SpectralCoefficients
from fdvar.critical import critical_constant, gaussian_sobolev_norm
from fdvar.grid import FrequencyGrid
from fdvar.solver import AssembledSystem

CONFIG = "alpha = 2\nlambda = 1\nM = 10\ndelta_xi = 0.1\n"


def fit_argv(tmp_path, config=CONFIG, dataset=("points.csv", "x,y\n0.0,2.0\n")):
    (tmp_path / "config.txt").write_text(config, encoding="utf-8")
    (tmp_path / dataset[0]).write_text(dataset[1], encoding="utf-8")
    paths = [str(tmp_path / name) for name in ("config.txt", dataset[0], "model.json")]
    return ["fit", *paths[:2], "-o", paths[2]]


def config_with(line):
    return lambda tmp_path: fit_argv(tmp_path, config=CONFIG + line + "\n")


def json_dataset(records):
    return lambda tmp_path: fit_argv(tmp_path, dataset=("data.json", json.dumps(records)))


def model_with(path, value):
    """Fit the one-point model, set the model file's field at ``path`` to ``value``, then eval.

    A numeric segment of ``path`` indexes a list, as ``coefficients.10``.
    """

    def argv(tmp_path):
        assert main(fit_argv(tmp_path)) == 0
        model = tmp_path / "model.json"
        payload = json.loads(model.read_text(encoding="utf-8"))
        *parents, key = [int(k) if k.isdigit() else k for k in path.split(".")]
        target = payload
        for parent in parents:
            target = target[parent]
        target[key] = value
        model.write_text(json.dumps(payload), encoding="utf-8")
        return ["eval", str(model), "--grid=-0.5:0.5:11", "-o", str(tmp_path / "recon.csv")]

    return argv


def sweep_with(**overrides):
    def argv(tmp_path):
        spec = {
            "name": "demo",
            "dataset": {"points": [[-0.5, 0.9], [0.5, 0.9]]},
            "grid": {"M": 10, "delta_xi": 0.1},
            "config": {"alpha": 2, "lambda": 1},
            "sweep": {"axis": "alpha", "values": [0.5, 4.0]},
            "eval_grid": {"min": -0.5, "max": 0.5, "points": 11},
        }
        spec.update(overrides)
        (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        return ["sweep", str(tmp_path / "spec.json"), "-d", str(tmp_path / "out")]

    return argv


def edited(argv, name, old, new):
    """``argv``, with the text ``old`` in its file ``name`` replaced by ``new``."""

    def edit(tmp_path):
        args = argv(tmp_path)
        path = tmp_path / name
        path.write_text(path.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")
        return args

    return edit


def csv_dataset(text):
    return lambda tmp_path: fit_argv(tmp_path, dataset=("points.csv", text))


def closedform(tmp_path, flag, text):
    """``fdvar closedform`` argv with ``flag`` set to ``text``."""
    flags = {"--M": "10", "--delta-xi": "0.1", "--alpha": "2", "--lambda": "1", "--label": "2"}
    flags.update({"--grid": "-0.5:0.5:11", flag: text})
    return ["closedform", *(f"{k}={v}" for k, v in flags.items()), "-o", str(tmp_path / "curve.csv")]


def critical(tmp_path, flag, text):
    flags = {"--dim": "1", "--alpha": "3", "--count": "3", flag: text}
    out = ["-o", str(tmp_path / "norms.csv"), "--verdict", str(tmp_path / "verdict.json")]
    return ["critical", *(f"{k}={v}" for k, v in flags.items()), *out]


def subcritical(tmp_path, flag, text):
    (tmp_path / "pair.csv").write_text("x,y\n-0.5,0.9\n0.5,0.9\n", encoding="utf-8")
    flags = {"--alpha": "1", "--sigmas": "0.1,0.05", flag: text}
    argv = [f"{k}={v}" for k, v in flags.items()]
    return ["subcritical", str(tmp_path / "pair.csv"), *argv, "-o", str(tmp_path / "decay.csv")]


def eval_grid(tmp_path, grid):
    assert main(fit_argv(tmp_path)) == 0
    return ["eval", str(tmp_path / "model.json"), f"--grid={grid}", "-o", str(tmp_path / "r.csv")]


CLI_CASES = {
    "config-solve_tolerance-inf": (
        config_with("solve_tolerance = inf"), "solve_tolerance must be positive and finite, got inf"
    ),
    "config-memory_budget_mb-inf": (
        config_with("memory_budget_mb = inf"), "memory_budget_mb must be positive and finite, got inf"
    ),
    "model-alpha-true": (
        model_with("config.alpha", True),
        "model field 'config.alpha' is malformed: alpha must be positive and finite, got True",
    ),
    "model-lambda-false": (
        model_with("config.lambda", False),
        "model field 'config.lambda' is malformed: lambda must be nonnegative and finite, got False",
    ),
    "model-d-true": (
        model_with("grid.d", True), "model field 'grid.d' is malformed: d must be a positive integer"
    ),
    "model-memory_budget_mb-true": (
        model_with("config.memory_budget_mb", True),
        "memory_budget_mb must be positive and finite, got True",
    ),
    "model-objective-nan": (
        model_with("objective", math.nan), "objective must be nonnegative and finite, got nan"
    ),
    "model-residuals-null": (model_with("residuals", None), "residuals must be a 1-D array, got None"),
    "model-residuals-true": (
        model_with("residuals", [True]), "residuals[0] must be nonnegative and finite, got True"
    ),
    "model-pair-true": (
        model_with("coefficients.10", [True, 0.0]), "pair 10 re must be a finite number, got True"
    ),
    "model-pair-string": (
        model_with("coefficients.10", ["0.25", 0.0]), "pair 10 re must be a finite number, got '0.25'"
    ),
    "dataset-record-true": (
        json_dataset([{"x": True, "y": 1.0}]), "dataset record 0 field 'x' must be a finite number"
    ),
    "dataset-csv-nan": (
        csv_dataset("x,y\n0.0,nan\n"), "dataset row 2 column 2 must be a finite number, got nan"
    ),
    "dataset-csv-wider-than-header": (
        csv_dataset("x,y\n0.0,1.0,2.0\n"), "dataset row 2 is [0.0, 1.0, 2.0], not a row of 2 numbers"
    ),
    "dataset-csv-narrower-than-header": (
        csv_dataset("x1,x2,y\n0.0,1.0,2.0\n0.5,1.0\n"),
        "dataset row 3 is [0.5, 1.0], not a row of 3 numbers",
    ),
    "dataset-csv-blank-lines": (
        csv_dataset("x,y\n\n0.0,1.0\n\n0.5,abc\n"),
        "dataset row 5 column 2 must be a finite number, got 'abc'",
    ),
    "dataset-record-key-twice": (
        edited(json_dataset([{"x": 0.0, "y": 1.0}]), "data.json", '"y": 1.0', '"y": 1.0, "y": 2.0'),
        "JSON key 'y' is given twice",
    ),
    "config-alpha-twice": (config_with("alpha = 9"), "config line 5 sets 'alpha' again"),
    "model-alpha-twice": (
        edited(
            model_with("config.alpha", 2.0), "model.json", '"alpha": 2.0', '"alpha": 2.0, "alpha": 9.0'
        ),
        "JSON key 'alpha' is given twice",
    ),
    "sweep-grid-M-twice": (
        edited(sweep_with(), "spec.json", '"M": 10', '"M": 3, "M": 50'), "JSON key 'M' is given twice"
    ),
    "sweep-point-true": (
        sweep_with(dataset={"points": [[True, 0.9]]}), "dataset points[0][0] must be a finite number"
    ),
    "sweep-grid-M-string": (
        sweep_with(grid={"M": "3", "delta_xi": 0.1}), "M must be a positive integer, got '3'"
    ),
    "sweep-config-alpha-string": (
        sweep_with(config={"alpha": "2", "lambda": 1}, sweep={"axis": "lambda", "values": [1]}),
        "alpha must be positive and finite, got '2'",
    ),
    "sweep-config-solve_tolerance-string": (
        sweep_with(config={"alpha": 2, "lambda": 1, "solve_tolerance": "1e-10"}),
        "solve_tolerance must be positive and finite, got '1e-10'",
    ),
    "sweep-M-in-grid-and-config": (
        sweep_with(config={"alpha": 2, "lambda": 1, "M": 50}),
        "setting 'M' is given in both 'grid' and 'config'",
    ),
    "sweep-eval_grid-min-true": (
        sweep_with(eval_grid={"min": True, "max": 2.0, "points": 11}),
        "eval_grid.min must be a finite number, got True",
    ),
    "sweep-alpha-zero": (
        sweep_with(sweep={"axis": "alpha", "values": [0.5, 0]}),
        "sweep.values[1] on axis 'alpha' must be positive and finite, got 0",
    ),
    "sweep-M-fraction": (
        sweep_with(sweep={"axis": "M", "values": [4, 2.5]}),
        "sweep.values[1] on axis 'M' must be a positive integer, got 2.5",
    ),
    "sweep-lambda-negative": (
        sweep_with(sweep={"axis": "lambda", "values": [1, -1]}),
        "sweep.values[1] on axis 'lambda' must be nonnegative and finite, got -1",
    ),
    "closedform-label-nan": (
        lambda tmp_path: closedform(tmp_path, "--label", "nan"),
        "label must be a finite number, got nan",
    ),
    "config-colon-separator": (
        lambda tmp_path: fit_argv(tmp_path, config=CONFIG.replace("M = 10", "M: 10")),
        "config line 3 is not 'key = value': 'M: 10'",
    ),
    "subcritical-sigma-underscore": (
        lambda tmp_path: subcritical(tmp_path, "--sigmas", "0.1,0_05"),
        "sigma must be positive and finite, got '0_05'",
    ),
}


@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_input_exits_2_and_names_field(tmp_path, capsys, case):
    argv, message = CLI_CASES[case]
    args = argv(tmp_path)
    capsys.readouterr()
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "curve.csv").exists()


def test_sweep_lambda_zero_like_fit(tmp_path):
    # lambda = 0 is a valid penalty for fit, so it is a valid sweep value
    assert main(sweep_with(sweep={"axis": "lambda", "values": [0, 0.5]})(tmp_path)) == 0
    manifest = json.loads((tmp_path / "out" / "demo_manifest.json").read_text(encoding="utf-8"))
    assert [p["value"] for p in manifest["points"]] == [0.0, 0.5]
    assert all(p["status"] == "ok" for p in manifest["points"])


# Each site where a number is written as text -> (argv for that text, error for that text).
TEXT_SITES = {
    "config-value": (
        lambda tmp_path, t: fit_argv(tmp_path, config=CONFIG.replace("M = 10", f"M = {t}")),
        "M must be a positive integer, got {!r}",
    ),
    "csv-cell": (
        lambda tmp_path, t: fit_argv(tmp_path, dataset=("points.csv", f"x,y\n{t},2.0\n")),
        "dataset row 2 column 1 must be a finite number, got {!r}",
    ),
    "grid-min": (
        lambda tmp_path, t: closedform(tmp_path, "--grid", f"{t}:20:11"),
        "--grid min must be a finite number, got {!r}",
    ),
    "grid-max": (
        lambda tmp_path, t: closedform(tmp_path, "--grid", f"-1:{t}:11"),
        "--grid max must be a finite number, got {!r}",
    ),
    "grid-points": (
        lambda tmp_path, t: closedform(tmp_path, "--grid", f"-1:1:{t}"),
        "--grid points must be a positive integer, got {!r}",
    ),
    "eval-grid-points": (
        lambda tmp_path, t: eval_grid(tmp_path, f"-1:1:{t}"),
        "--grid points must be a positive integer, got {!r}",
    ),
    "sigmas": (
        lambda tmp_path, t: subcritical(tmp_path, "--sigmas", f"{t},0.05"),
        "sigma must be positive and finite, got {!r}",
    ),
    "subcritical-alpha": (
        lambda tmp_path, t: subcritical(tmp_path, "--alpha", t),
        "alpha must be positive and finite, got {!r}",
    ),
    "M": (
        lambda tmp_path, t: closedform(tmp_path, "--M", t), "M must be a positive integer, got {!r}"
    ),
    "delta-xi": (
        lambda tmp_path, t: closedform(tmp_path, "--delta-xi", t),
        "delta_xi must be positive and finite, got {!r}",
    ),
    "closedform-alpha": (
        lambda tmp_path, t: closedform(tmp_path, "--alpha", t),
        "alpha must be positive and finite, got {!r}",
    ),
    "lambda": (
        lambda tmp_path, t: closedform(tmp_path, "--lambda", t),
        "lambda must be nonnegative and finite, got {!r}",
    ),
    "label": (
        lambda tmp_path, t: closedform(tmp_path, "--label", t),
        "label must be a finite number, got {!r}",
    ),
    "dim": (
        lambda tmp_path, t: critical(tmp_path, "--dim", t), "d must be a positive integer, got {!r}"
    ),
    "critical-alpha": (
        lambda tmp_path, t: critical(tmp_path, "--alpha", t),
        "alpha must be positive and finite, got {!r}",
    ),
    "sigma-max": (
        lambda tmp_path, t: critical(tmp_path, "--sigma-max", t),
        "sigma_max must be positive and finite, got {!r}",
    ),
    "sigma-min": (
        lambda tmp_path, t: critical(tmp_path, "--sigma-min", t),
        "sigma_min must be positive and finite, got {!r}",
    ),
    "count": (
        lambda tmp_path, t: critical(tmp_path, "--count", t),
        "count must be a positive integer, got {!r}",
    ),
    "seed": (
        lambda tmp_path, t: ["verify", f"--seed={t}"], "seed must be a nonnegative integer, got {!r}"
    ),
}


@pytest.mark.parametrize("text", ["1_0", "١٠"], ids=["underscore", "arabic-indic"])
@pytest.mark.parametrize("site", TEXT_SITES)
def test_number_text_is_ascii_float_syntax(tmp_path, capsys, site, text):
    # Python's float() reads both as 10; no site may, and no artifact is written
    argv, message = TEXT_SITES[site]
    args = argv(tmp_path, text)
    inputs = set(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(args) == 2
    assert message.format(text) in capsys.readouterr().err
    assert set(tmp_path.rglob("*")) == inputs


INTEGRAL_SPELLINGS = {  # a count or a dimension spelled as an integral float is that integer
    "closedform-M-and-grid": (
        lambda tmp_path, n: closedform(tmp_path, "--grid", f"-1:1:3{n}") + [f"--M=100{n}"],
        "curve.csv",
    ),
    "eval-grid": (lambda tmp_path, n: eval_grid(tmp_path, f"-1:1:3{n}"), "r.csv"),
    "critical-dim-and-count": (
        lambda tmp_path, n: critical(tmp_path, "--dim", f"2{n}") + [f"--count=4{n}"],
        "verdict.json",
    ),
}


@pytest.mark.parametrize("site", INTEGRAL_SPELLINGS)
def test_integral_float_flags_give_the_same_bytes(tmp_path, site):
    argv, artifact = INTEGRAL_SPELLINGS[site]
    written = []
    for spelling in ("", ".0"):
        (tmp_path / spelling).mkdir(exist_ok=True)
        assert main(argv(tmp_path / spelling, spelling)) == 0
        written.append((tmp_path / spelling / artifact).read_bytes())
    assert written[0] == written[1]


NUMERIC_FLAG_SITES = {  # each numeric flag's site in TEXT_SITES -> the flag
    "M": "--M", "delta-xi": "--delta-xi", "closedform-alpha": "--alpha", "lambda": "--lambda",
    "label": "--label", "dim": "--dim", "critical-alpha": "--alpha", "sigma-max": "--sigma-max",
    "sigma-min": "--sigma-min", "count": "--count", "seed": "--seed",
    "subcritical-alpha": "--alpha",
}  # fmt: skip


def spaced(argv, flag, text):
    """``argv`` with ``flag=text`` written as the two tokens ``flag text``."""
    i = argv.index(f"{flag}={text}")
    return argv[:i] + [flag, text] + argv[i + 1 :]


def test_every_numeric_flag_has_a_site():
    assert set(NUMERIC_FLAG_SITES.values()) == set(_FLAG_RULES)


@pytest.mark.parametrize("site", NUMERIC_FLAG_SITES)
def test_flag_value_after_a_space_meets_the_flag_rule(tmp_path, capsys, site):
    # argparse takes "-1_0" for an option, not a value: it used to exit 2 with its
    # usage and "expected one argument" instead of the quantity's message
    argv, message = TEXT_SITES[site]
    attached = argv(tmp_path, "-1_0")
    for args in (attached, spaced(attached, NUMERIC_FLAG_SITES[site], "-1_0")):
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message.format('-1_0')}\n"


def test_negative_label_in_e_notation_after_a_space(tmp_path):
    # --label -1e-3 used to exit 2 in argparse; its rule allows every finite number
    written = []
    for name in ("attached", "spaced"):
        (tmp_path / name).mkdir()
        argv = closedform(tmp_path / name, "--label", "-1e-3")
        assert main(argv if name == "attached" else spaced(argv, "--label", "-1e-3")) == 0
        written.append((tmp_path / name / "curve.csv").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "text,value", [("1e-05", 1e-05), (".5", 0.5), ("5.", 5.0), ("+1", 1.0), (" 0.0 ", 0.0)]
)
def test_reader_reads_float_spellings(text, value):
    assert number_or_text(text) == value


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_reader_round_trips_written_floats(x):
    assert number_or_text(repr(x)) == x and number_or_text(json.dumps(x)) == x


@given(st.text(), st.just("_") | st.characters(min_codepoint=128), st.text())
@example("1", "_", "0")  # float() reads both as 10
@example("", "١", "٠")
def test_reader_keeps_underscored_or_non_ascii_text(head, odd, tail):
    text = head + odd + tail
    assert number_or_text(text) == text


def fitted(**changes):
    grid = FrequencyGrid(d=1, M=1, delta_xi=0.5)
    fields = {
        "coefficients": SpectralCoefficients(values=np.zeros(3), grid=grid),
        "config": SolveConfig(alpha=1.0, lam=1.0),
        "dataset_hash": "",
        "objective": 0.0,
        "residuals": [0.0],
    }
    return FittedModel(**{**fields, **changes})


LIBRARY_CASES = {
    "grid-bool": (
        lambda: FrequencyGrid(d=True, M=True, delta_xi=1.0), "d must be a positive integer, got True"
    ),
    "system-lambda-nan": (
        lambda: AssembledSystem(matrix=np.ones((1, 1)), weights=[1.0], lam=math.nan, rhs=[1.0]),
        "lambda must be nonnegative and finite, got nan",
    ),
    "config-solve_tolerance-inf": (
        lambda: SolveConfig(alpha=1.0, lam=1.0, solve_tolerance=math.inf),
        "solve_tolerance must be positive and finite, got inf",
    ),
    "config-memory_budget_mb-inf": (
        lambda: SolveConfig(alpha=1.0, lam=1.0, memory_budget_mb=math.inf),
        "memory_budget_mb must be positive and finite, got inf",
    ),
    "closed-form-M-bool": (
        lambda: ClosedFormParams(M=True, delta_xi=0.1, alpha=2.0, lam=1.0),
        "M must be a positive integer, got True",
    ),
    "critical-constant-d-bool": (
        lambda: critical_constant(True), "d must be a positive integer, got True"
    ),
    "norm-alpha-bool": (
        lambda: gaussian_sobolev_norm(1, True, 0.1), "alpha must be positive and finite, got True"
    ),
    "model-objective-nan": (
        lambda: fitted(objective=math.nan), "objective must be nonnegative and finite, got nan"
    ),
    "model-residuals-none": (
        lambda: fitted(residuals=None), "residuals must be a 1-D array, got None"
    ),
}


@pytest.mark.parametrize("case", LIBRARY_CASES)
def test_library_input_names_quantity_and_value(case):
    build, message = LIBRARY_CASES[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
