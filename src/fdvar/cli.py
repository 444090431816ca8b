"""Command-line harness: fit, eval, sweep, closedform, verify, critical, subcritical.

Exit codes: 0 success, 1 verification failures, 2 input errors, 3 numerical
errors; ``main`` and each sweep point catch exactly the two tuples below.
Config files and sweep specs are read by ``io.settings``: a sweep point is the
spec's ``config`` and ``grid`` with the swept key set, read when the spec is.
Flags take the same rules as files: ``io.number_or_text`` reads each numeric flag,
``--grid`` part and ``--sigmas`` entry, and the quantity's rule in ``errors`` judges it.
A numeric flag's value may follow it after a space or an ``=``, whatever its text.
All file outputs are UTF-8, written atomically, with shortest round-trip
float formatting so identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import closed_form, io
from .core import Dataset, SolveConfig
from .critical import WEIGHT_BRACKET, WEIGHTS, critical_constant, trichotomy_sweep
from .errors import CapacityError, QuadratureError, SolverError
from .errors import finite_real, nonnegative_int, nonnegative_real, positive_int, positive_real
from .grid import FrequencyGrid
from .solver import fit
from .subcritical import decay_sweep
from .verify import run_verification

_INPUT_ERRORS = (ValueError, OSError)  # io.load_model raises ValueError: eval never exits 3
_NUMERICAL_ERRORS = (SolverError, CapacityError, QuadratureError)
_SWEEP_AXES = {"alpha": positive_real, "M": positive_int, "lambda": nonnegative_real}  # axis -> rule
_FLAG_RULES = {  # each numeric flag -> (quantity, rule), applied by main to the flag's dest
    "--M": ("M", positive_int), "--dim": ("d", positive_int), "--count": ("count", positive_int),
    "--seed": ("seed", nonnegative_int), "--label": ("label", finite_real),
    "--lambda": ("lambda", nonnegative_real), "--delta-xi": ("delta_xi", positive_real),
    "--alpha": ("alpha", positive_real), "--sigma-max": ("sigma_max", positive_real),
    "--sigma-min": ("sigma_min", positive_real),
}  # fmt: skip
_GRID_KEYS = ("min", "max", "points")


# ---------------------------------------------------------------------------
# eval grids
# ---------------------------------------------------------------------------
def _checked_grid(fields: dict, prefix: str, spec) -> tuple[float, float, int]:
    """An evaluation range: finite ends, at least one point and ``min <= max``."""
    lo, hi = (finite_real(prefix + key, fields[key]) for key in ("min", "max"))
    count = positive_int(prefix + "points", fields["points"])
    if lo > hi:
        raise ValueError(f"bad grid spec {spec!r}")
    return lo, hi, count


def _parse_grid_spec(spec: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be MIN:MAX:COUNT, got {spec!r}")
    return _checked_grid(dict(zip(_GRID_KEYS, map(io.number_or_text, parts))), "--grid ", spec)


def _parse_eval_grid(payload: dict) -> tuple[float, float, int]:
    """The sweep's ``eval_grid`` block, under the rule of ``fdvar eval --grid``."""
    spec = payload.get("eval_grid", {"min": -1.0, "max": 1.0, "points": 201})
    if not isinstance(spec, dict) or set(spec) != set(_GRID_KEYS):
        raise ValueError(f"eval_grid needs exactly the keys min, max and points, got {spec!r}")
    return _checked_grid(spec, "eval_grid.", spec)


def _write_reconstruction(model, specs: list[tuple[float, float, int]], path: str) -> np.ndarray:
    """Write ``model`` on the product grid of ``specs`` as ``x1..xd,h``; return its values."""
    d = model.grid.d
    if len(specs) == 1:
        specs = specs * d
    if len(specs) != d:
        raise ValueError(f"need 1 or {d} grid specs, got {len(specs)}")
    axes = [np.linspace(lo, hi, count) for lo, hi, count in specs]
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    values = model.evaluate(points)
    header = [f"x{i + 1}" for i in range(d)] + ["h"]
    io.write_csv(path, header, np.column_stack([points, values.real]))
    return values


# ---------------------------------------------------------------------------
# fit / eval
# ---------------------------------------------------------------------------
def _cmd_fit(args) -> int:
    data = io.load_dataset(args.dataset)
    grid, config = io.load_config(args.config, data.d)  # the data fixes d
    start = time.perf_counter()
    model = fit(grid, data, config)
    elapsed = time.perf_counter() - start
    io.save_model(model, args.output)
    max_resid = float(np.max(model.residuals))
    print(
        f"objective={io.format_float(model.objective)} "
        f"max_residual={io.format_float(max_resid)} wall_time_s={elapsed:.3f}"
    )
    return 0


def _cmd_eval(args) -> int:
    model = io.load_model(args.model)
    specs = [_parse_grid_spec(s) for s in args.grid]
    values = _write_reconstruction(model, specs, args.output)
    residue = float(np.max(np.abs(values.imag)))
    print(f"points={len(values)} imag_residue={io.format_float(residue)}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: a dataset, an axis with values and each value's settings, an eval grid."""

    name: str
    data: Dataset
    axis: str
    values: tuple[float, ...]
    points: tuple[tuple[FrequencyGrid, SolveConfig], ...]  # one per value
    eval_grid: tuple[float, float, int]


def parse_experiment_spec(payload: dict) -> ExperimentSpec:
    if not isinstance(payload, dict):
        raise ValueError("experiment spec must be a JSON object")
    for key in ("grid", "sweep", "config"):
        if not isinstance(payload.get(key, {}), dict):
            raise ValueError(f"'{key}' must be a JSON object, got {payload[key]!r}")
    name = payload.get("name", "sweep")
    # Artifact file names start with it; basename() differs if it holds a separator.
    if not isinstance(name, str) or name in ("", ".", "..") or os.path.basename(name) != name:
        raise ValueError(f"'name' must be a plain file name, got {name!r}")
    dataset = payload.get("dataset")
    if isinstance(dataset, str):
        data = io.load_dataset(dataset)
    elif isinstance(dataset, dict) and isinstance(dataset.get("points"), list):
        data = io.dataset_from_points(dataset["points"])
    else:
        raise ValueError("'dataset' must be a path or {'points': [[x..., y], ...]}")
    grid_fields = payload.get("grid", {})
    if not set(grid_fields) <= {"M", "delta_xi"}:
        raise ValueError(f"'grid' takes only M and delta_xi, got {sorted(grid_fields)}")
    sweep = payload.get("sweep", {})
    axis = sweep.get("axis")
    if axis not in _SWEEP_AXES:
        raise ValueError(f"sweep.axis must be one of {tuple(_SWEEP_AXES)}")
    values = sweep.get("values")
    if not isinstance(values, list) or not values:
        raise ValueError(f"sweep.values must be a nonempty array, got {values!r}")
    rule = _SWEEP_AXES[axis]
    values = [float(rule(f"sweep.values[{i}] on axis '{axis}'", v)) for i, v in enumerate(values)]
    config = payload.get("config", {})
    both = sorted(set(config) & set(grid_fields))
    if both:
        raise ValueError(f"setting {both[0]!r} is given in both 'grid' and 'config'")
    fields = {**config, **grid_fields}
    points = tuple(io.settings({**fields, axis: value}, data.d) for value in values)
    return ExperimentSpec(
        name=name,
        data=data,
        axis=axis,
        values=tuple(values),
        points=points,
        eval_grid=_parse_eval_grid(payload),
    )


def _run_sweep_point(spec: ExperimentSpec, index: int, out_dir: str) -> dict:
    value, (grid, config) = spec.values[index], spec.points[index]
    artifact = f"{spec.name}_{spec.axis}_{index:03d}.csv"
    path = os.path.join(out_dir, artifact)
    try:
        _write_reconstruction(fit(grid, spec.data, config), [spec.eval_grid], path)
        return {"value": value, "status": "ok", "artifact": artifact}
    except _INPUT_ERRORS + _NUMERICAL_ERRORS as exc:
        return {"value": value, "status": f"error: {exc}", "artifact": None}


def _cmd_sweep(args) -> int:
    spec = parse_experiment_spec(io.read_json(args.spec))
    os.makedirs(args.output_dir, exist_ok=True)
    entries = [_run_sweep_point(spec, i, args.output_dir) for i in range(len(spec.values))]
    manifest = {"name": spec.name, "axis": spec.axis, "points": entries}
    io.write_json(os.path.join(args.output_dir, f"{spec.name}_manifest.json"), manifest)
    succeeded = sum(1 for e in entries if e["status"] == "ok")
    print(f"sweep {spec.name}: {succeeded}/{len(entries)} points succeeded")
    return 0 if succeeded > 0 else 3


# ---------------------------------------------------------------------------
# closedform / verify / critical / subcritical
# ---------------------------------------------------------------------------
def _cmd_closedform(args) -> int:
    params = closed_form.ClosedFormParams(
        M=args.M, delta_xi=args.delta_xi, alpha=args.alpha, lam=vars(args)["lambda"]
    )
    lo, hi, count = _parse_grid_spec(args.grid)
    xs = np.linspace(lo, hi, count)
    values = 0.5 * args.label * closed_form.reconstruction(params, xs)
    io.write_csv(args.output, ["x", "h"], np.column_stack([xs, values]))
    origin = 0.5 * args.label * float(closed_form.reconstruction(params, 0.0)[0])
    print(f"points={count} h(0)={io.format_float(origin)} z_squared={params.z_squared:.6g}")
    return 0


def _cmd_verify(args) -> int:
    results = run_verification(seed=args.seed)
    for result in results:
        print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    failures = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def _cmd_critical(args) -> int:
    sigmas = np.logspace(np.log10(args.sigma_max), np.log10(args.sigma_min), args.count)
    sweep = trichotomy_sweep(args.dim, args.alpha, sigmas, weight=args.weight)
    io.write_csv(args.output, ["sigma", "norm"], np.column_stack([sweep.sigmas, sweep.norms]))
    verdict = {
        "d": sweep.d,
        "alpha": sweep.alpha,
        "weight": sweep.weight,
        "fitted_slope": sweep.fitted_slope,
        "classification": sweep.classification,
        "critical_constant": critical_constant(sweep.d),
    }
    if args.verdict:
        io.write_json(args.verdict, verdict)
    print(json.dumps(verdict))
    return 0


def _cmd_subcritical(args) -> int:
    data = io.load_dataset(args.dataset)
    widths = [io.number_or_text(s) for s in args.sigmas.split(",") if s.strip()]
    sigmas = [positive_real("sigma", width) for width in widths]
    sweep = decay_sweep(data, args.alpha, sigmas, weight=args.weight)
    table = np.column_stack([sweep.sigmas, sweep.norms, sweep.margins])
    io.write_csv(args.output, ["sigma", "norm", "dominance_margin"], table)
    print(f"points={len(sweep.sigmas)} fitted_slope={io.format_float(sweep.fitted_slope)}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdvar",
        description="Band-limited spectral regression with Sobolev-weighted penalties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    number = io.number_or_text  # the one reader of a numeric flag's text; main applies its rule

    p_fit = sub.add_parser("fit", help="fit a model from a config file and a dataset")
    p_fit.add_argument("config", help="key = value config (alpha, lambda, M, delta_xi, ...)")
    p_fit.add_argument("dataset", help="CSV (coords then label, header row) or JSON records")
    p_fit.add_argument("-o", "--output", required=True, help="model JSON path")
    p_fit.set_defaults(func=_cmd_fit)

    p_eval = sub.add_parser("eval", help="evaluate a fitted model on a grid")
    p_eval.add_argument("model", help="model JSON path")
    p_eval.add_argument(
        "--grid",
        action="append",
        required=True,
        help="MIN:MAX:COUNT, once per axis or once for all axes",
    )
    p_eval.add_argument("-o", "--output", required=True, help="reconstruction CSV path")
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="run an experiment spec over a parameter axis")
    p_sweep.add_argument("spec", help="experiment spec JSON")
    p_sweep.add_argument("-d", "--output-dir", required=True, help="artifact directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cf = sub.add_parser(
        "closedform",
        help="single-point closed-form reconstruction CSV (scales to very large M)",
    )
    p_cf.add_argument("--M", type=number, required=True, help="band limit in lattice steps")
    p_cf.add_argument("--delta-xi", type=number, required=True, help="frequency mesh size")
    p_cf.add_argument("--alpha", type=number, required=True)
    p_cf.add_argument("--lambda", type=number, required=True)
    p_cf.add_argument("--label", type=number, default=2.0, help="value fitted at the origin")
    p_cf.add_argument("--grid", required=True, help="MIN:MAX:COUNT evaluation range")
    p_cf.add_argument("-o", "--output", required=True, help="(x, h) CSV path")
    p_cf.set_defaults(func=_cmd_closedform)

    p_verify = sub.add_parser("verify", help="run the cross-module oracle checks")
    p_verify.add_argument("--seed", type=number, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_crit = sub.add_parser("critical", help="shrinking-width norm sweep and classification")
    p_crit.add_argument("--dim", type=number, required=True)
    p_crit.add_argument("--alpha", type=number, required=True)
    p_crit.add_argument("--sigma-max", type=number, default=10**-1.25)
    p_crit.add_argument("--sigma-min", type=number, default=10**-3.25)
    p_crit.add_argument("--count", type=number, default=9)
    p_crit.add_argument("--weight", choices=WEIGHTS, default=WEIGHT_BRACKET)
    p_crit.add_argument("-o", "--output", required=True, help="(sigma, norm) CSV path")
    p_crit.add_argument("--verdict", help="classification JSON path")
    p_crit.set_defaults(func=_cmd_critical)

    p_sub = sub.add_parser("subcritical", help="kernel-interpolant norm decay sweep")
    p_sub.add_argument("dataset", help="dataset CSV or JSON")
    p_sub.add_argument("--alpha", type=number, required=True)
    p_sub.add_argument("--sigmas", required=True, help="comma-separated widths, decreasing")
    p_sub.add_argument("--weight", choices=WEIGHTS, default=WEIGHT_BRACKET)
    p_sub.add_argument("-o", "--output", required=True, help="decay CSV path")
    p_sub.set_defaults(func=_cmd_subcritical)

    return parser


def _attach_flag_values(argv: list[str]) -> list[str]:
    """``argv`` with each numeric flag and the token after it joined as ``--flag=value``.

    argparse takes a token that starts with ``-`` for an option unless it is a
    plain negative number, so ``--label -1e-3`` would stop in argparse with
    "expected one argument".  Joined, every value reaches the flag's rule, as
    ``--label=-1e-3`` does.  Tokens after ``--`` stay as they are.
    """
    joined = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            return joined + [token, *tokens]
        if token in _FLAG_RULES:
            value = next(tokens, None)
            token = token if value is None else f"{token}={value}"
        joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_flag_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        for flag, (name, rule) in _FLAG_RULES.items():
            dest = flag[2:].replace("-", "_")  # argparse's default dest
            if dest in vars(args):
                setattr(args, dest, rule(name, getattr(args, dest)))
        return args.func(args)
    except _INPUT_ERRORS + _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _INPUT_ERRORS) else 3


if __name__ == "__main__":
    raise SystemExit(main())
