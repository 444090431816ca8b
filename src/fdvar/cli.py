"""Command-line harness: fit, eval, sweep, closedform, verify, critical, subcritical.

Exit codes: 0 success, 1 verification failures, 2 input/validation errors,
3 solver or numerical errors.  All file outputs are UTF-8, written
atomically, with shortest round-trip float formatting so identical inputs
produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import closed_form, io
from .core import Dataset, SolveConfig
from .critical import WEIGHT_BRACKET, WEIGHT_HOMOGENEOUS, critical_constant, trichotomy_sweep
from .errors import CapacityError, QuadratureError, SolverError
from .grid import FrequencyGrid
from .solver import fit
from .subcritical import build_interpolant, interpolant_sobolev_norm
from .verify import run_verification

_EVAL_IMAG_TOL = 1e-8
_SWEEP_AXES = ("alpha", "M", "sigma", "lambda")


# ---------------------------------------------------------------------------
# eval grids
# ---------------------------------------------------------------------------
def _checked_grid(lo: float, hi: float, count: int, spec) -> tuple[float, float, int]:
    """An evaluation range needs finite ends, ``min <= max`` and at least one point."""
    if count < 1 or not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"bad grid spec {spec!r}")
    return lo, hi, count


def _parse_grid_spec(spec: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be MIN:MAX:COUNT, got {spec!r}")
    return _checked_grid(float(parts[0]), float(parts[1]), int(parts[2]), spec)


def _parse_eval_grid(payload: dict) -> tuple[float, float, int]:
    """The sweep's ``eval_grid`` block, under the rule of ``fdvar eval --grid``."""
    spec = payload.get("eval_grid", {"min": -1.0, "max": 1.0, "points": 201})
    if not isinstance(spec, dict) or set(spec) != {"min", "max", "points"}:
        raise ValueError(f"eval_grid needs exactly the keys min, max and points, got {spec!r}")
    try:
        lo, hi, count = float(spec["min"]), float(spec["max"]), int(spec["points"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"eval_grid entries must be numbers, got {spec!r}") from exc
    if count != spec["points"]:
        raise ValueError(f"eval_grid points must be an integer, got {spec['points']!r}")
    return _checked_grid(lo, hi, count, spec)


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


def _write_decay(path: str, data: Dataset, sigmas, alpha: float, weight: str) -> None:
    """Write the kernel interpolant's norm at each width as ``sigma,norm,dominance_margin``."""
    rows = []
    for sigma in sigmas:
        interp = build_interpolant(data, sigma)
        norm = interpolant_sobolev_norm(interp, alpha, weight=weight)
        rows.append([sigma, norm, interp.dominance_margin])
    io.write_csv(path, ["sigma", "norm", "dominance_margin"], rows)


# ---------------------------------------------------------------------------
# fit / eval
# ---------------------------------------------------------------------------
def _cmd_fit(args) -> int:
    grid_params, config = io.load_config(args.config)
    data = io.load_dataset(args.dataset)
    grid = FrequencyGrid(d=data.d, M=grid_params["M"], delta_xi=grid_params["delta_xi"])
    start = time.perf_counter()
    model = fit(grid, data, config)
    elapsed = time.perf_counter() - start
    io.save_model(model, args.output)
    max_resid = float(np.max(model.residuals)) if model.residuals.size else 0.0
    print(
        f"objective={io.format_float(model.objective)} "
        f"max_residual={io.format_float(max_resid)} wall_time_s={elapsed:.3f}"
    )
    return 0


def _cmd_eval(args) -> int:
    model = io.load_model(args.model)
    specs = [_parse_grid_spec(s) for s in args.grid]
    values = _write_reconstruction(model, specs, args.output)
    residue = float(np.max(np.abs(values.imag))) if values.size else 0.0
    print(f"points={len(values)} imag_residue={io.format_float(residue)}")
    if residue > _EVAL_IMAG_TOL:
        print(
            f"error: imaginary residue {residue:.3e} exceeds {_EVAL_IMAG_TOL:.0e} "
            "(model is not hermitian)",
            file=sys.stderr,
        )
        return 3
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: a dataset, grid parameters, an axis with values, an eval grid."""

    name: str
    data: Dataset
    grid_m: int
    delta_xi: float
    config: SolveConfig
    axis: str
    values: tuple[float, ...]
    eval_grid: tuple[float, float, int]
    weight: str


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
    elif isinstance(dataset, dict) and "points" in dataset:
        data = io.dataset_from_points(dataset["points"])
    else:
        raise ValueError("'dataset' must be a path or {'points': [[x..., y], ...]}")
    grid_info = payload.get("grid", {})
    if "M" not in grid_info or "delta_xi" not in grid_info:
        raise ValueError("experiment spec needs grid.M and grid.delta_xi")
    sweep = payload.get("sweep", {})
    axis = sweep.get("axis")
    if axis not in _SWEEP_AXES:
        raise ValueError(f"sweep.axis must be one of {_SWEEP_AXES}")
    values = sweep.get("values")
    # type() rather than isinstance(): JSON true and false are not numbers.
    if not isinstance(values, list) or not values or not all(
        type(v) in (int, float) and 0 < v <= sys.float_info.max for v in values
    ):
        raise ValueError(f"sweep.values must be positive finite numbers, got {values!r}")
    if axis == "M" and not all(float(v).is_integer() for v in values):
        raise ValueError(f"sweep.values on axis 'M' must be positive integers, got {values!r}")
    # Every config key goes to the config parser, which rejects unknown ones.
    entries = {str(key): str(value) for key, value in payload.get("config", {}).items()}
    entries.update(M=str(grid_info["M"]), delta_xi=str(grid_info["delta_xi"]))
    # Swept solver fields need no base value; pin a placeholder.
    if axis in ("alpha", "lambda"):
        entries.setdefault(axis, "1")
    if axis == "sigma":
        entries.setdefault("lambda", "1")
    grid_params, config = io.config_from_entries(entries)
    eval_grid = _parse_eval_grid(payload)
    weight = payload.get("weight", WEIGHT_BRACKET)
    if weight not in (WEIGHT_BRACKET, WEIGHT_HOMOGENEOUS):
        raise ValueError(f"weight must be '{WEIGHT_BRACKET}' or '{WEIGHT_HOMOGENEOUS}'")
    return ExperimentSpec(
        name=name,
        data=data,
        grid_m=grid_params["M"],
        delta_xi=grid_params["delta_xi"],
        config=config,
        axis=axis,
        values=tuple(map(float, values)),
        eval_grid=eval_grid,
        weight=weight,
    )


def _run_sweep_point(spec: ExperimentSpec, value: float, out_dir: str, index: int) -> dict:
    artifact = f"{spec.name}_{spec.axis}_{index:03d}.csv"
    path = os.path.join(out_dir, artifact)
    try:
        if spec.axis == "sigma":
            _write_decay(path, spec.data, [value], spec.config.alpha, spec.weight)
        else:
            config = spec.config
            m = spec.grid_m
            if spec.axis == "alpha":
                config = replace(config, alpha=value)
            elif spec.axis == "lambda":
                config = replace(config, lam=value)
            elif spec.axis == "M":
                m = int(value)
            grid = FrequencyGrid(d=spec.data.d, M=m, delta_xi=spec.delta_xi)
            _write_reconstruction(fit(grid, spec.data, config), [spec.eval_grid], path)
        return {"value": value, "status": "ok", "artifact": artifact}
    except Exception as exc:
        return {"value": value, "status": f"error: {exc}", "artifact": None}


def _cmd_sweep(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    spec = parse_experiment_spec(payload)
    os.makedirs(args.output_dir, exist_ok=True)
    entries = [_run_sweep_point(spec, v, args.output_dir, i) for i, v in enumerate(spec.values)]
    manifest = {"name": spec.name, "axis": spec.axis, "weight": spec.weight, "points": entries}
    io.write_json(os.path.join(args.output_dir, f"{spec.name}_manifest.json"), manifest)
    succeeded = sum(1 for e in entries if e["status"] == "ok")
    print(f"sweep {spec.name}: {succeeded}/{len(entries)} points succeeded")
    return 0 if succeeded > 0 else 3


# ---------------------------------------------------------------------------
# closedform / verify / critical / subcritical
# ---------------------------------------------------------------------------
def _cmd_closedform(args) -> int:
    params = closed_form.ClosedFormParams(
        M=args.M, delta_xi=args.delta_xi, alpha=args.alpha, lam=args.lam
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
    try:
        sigmas = [float(s) for s in args.sigmas.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"--sigmas must be comma-separated numbers, got {args.sigmas!r}")
    if not sigmas:
        raise ValueError("--sigmas must be nonempty")
    _write_decay(args.output, data, sigmas, args.alpha, args.weight)
    print(f"wrote {len(sigmas)} decay points to {args.output}")
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
    p_cf.add_argument("--M", type=int, required=True, help="band limit in lattice steps")
    p_cf.add_argument("--delta-xi", type=float, required=True, help="frequency mesh size")
    p_cf.add_argument("--alpha", type=float, required=True)
    p_cf.add_argument("--lambda", dest="lam", type=float, required=True)
    p_cf.add_argument("--label", type=float, default=2.0, help="value fitted at the origin")
    p_cf.add_argument("--grid", required=True, help="MIN:MAX:COUNT evaluation range")
    p_cf.add_argument("-o", "--output", required=True, help="(x, h) CSV path")
    p_cf.set_defaults(func=_cmd_closedform)

    p_verify = sub.add_parser("verify", help="run the cross-module oracle checks")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_crit = sub.add_parser("critical", help="shrinking-width norm sweep and classification")
    p_crit.add_argument("--dim", type=int, required=True)
    p_crit.add_argument("--alpha", type=float, required=True)
    p_crit.add_argument("--sigma-max", type=float, default=10**-1.25)
    p_crit.add_argument("--sigma-min", type=float, default=10**-3.25)
    p_crit.add_argument("--count", type=int, default=9)
    p_crit.add_argument(
        "--weight", choices=[WEIGHT_BRACKET, WEIGHT_HOMOGENEOUS], default=WEIGHT_BRACKET
    )
    p_crit.add_argument("-o", "--output", required=True, help="(sigma, norm) CSV path")
    p_crit.add_argument("--verdict", help="classification JSON path")
    p_crit.set_defaults(func=_cmd_critical)

    p_sub = sub.add_parser("subcritical", help="kernel-interpolant norm decay sweep")
    p_sub.add_argument("dataset", help="dataset CSV or JSON")
    p_sub.add_argument("--alpha", type=float, required=True)
    p_sub.add_argument("--sigmas", required=True, help="comma-separated widths, decreasing")
    p_sub.add_argument(
        "--weight", choices=[WEIGHT_BRACKET, WEIGHT_HOMOGENEOUS], default=WEIGHT_BRACKET
    )
    p_sub.add_argument("-o", "--output", required=True, help="decay CSV path")
    p_sub.set_defaults(func=_cmd_subcritical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, CapacityError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
