"""The benchmark's workloads: inputs drawn from the seed, one op, its checks.

Each workload is a closed loop with one client.  ``setup`` writes the
run's input files; ``prepare(i)`` draws op ``i``'s inputs (untimed);
``run`` issues the op and returns its outputs with the wall time of each
call it made; ``check`` verifies the outputs against ``checks`` (untimed)
and returns the failures.  CLI ops call ``fdvar.cli.main`` in this process
with stdout and stderr captured.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import time

import numpy as np

import checks
import fdvar
from fdvar.core import Dataset, SolveConfig
from fdvar.grid import FrequencyGrid

# Sizes probed on the seed tree; ``tiny`` only proves the benchmark itself works.
SIZES = {
    "full": {
        "fit-scattered": {"n": 200, "M": 20000, "delta_xi": 0.01, "lam": 1e-2, "points": 200},
        "path-grid": {"n": 100, "M": 60, "delta_xi": 0.1, "alpha": 4.0, "lam": 1e-2, "axis": 41,
                      "lambdas": [1e-3, 1e-2, 1e-1, 1.0]},
        "diagnostics": {"cf_M": 100000, "cf_delta_xi": 0.001, "cf_points": 1001, "sub_n": 48},
    },
    "tiny": {
        "fit-scattered": {"n": 20, "M": 200, "delta_xi": 0.01, "lam": 1e-2, "points": 20},
        "path-grid": {"n": 12, "M": 6, "delta_xi": 0.1, "alpha": 4.0, "lam": 1e-2, "axis": 9,
                      "lambdas": [1e-2, 1.0]},
        "diagnostics": {"cf_M": 2000, "cf_delta_xi": 0.001, "cf_points": 21, "sub_n": 10},
    },
}
FIT_ALPHAS = (3.0, 0.5)  # above and below d = 1, alternating op by op
CRITICAL_CASES = [(d, a) for d in (1, 2, 3) for a in (d - 0.5, d, d + 1.0)]
SUB_SIGMAS = "0.05,0.035,0.025"
SUB_MIN_GAP = 0.15  # keeps the Gaussian kernel diagonally dominant at every sigma


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def labels(X: np.ndarray, rng) -> np.ndarray:
    smooth = np.sin(2.0 * X[:, 0]) + 0.5 * np.cos(3.0 * X.sum(axis=1))
    return smooth + 0.05 * rng.standard_normal(len(X))


def run_cli(tracer, argv: list[str]) -> dict:
    out, err = stdio.StringIO(), stdio.StringIO()
    with tracer.span("cli." + argv[0]), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fdvar.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def timed(times: dict, key: str, call, *args):
    start = time.perf_counter()
    result = call(*args)
    times.setdefault(key, []).append(time.perf_counter() - start)
    return result


def cli_failures(label: str, result: dict) -> list[str]:
    if result["code"] == 0:
        return []
    return [f"{label}: exit code {result['code']}: {result['stderr'].strip()[-200:]}"]


def perturb(values: np.ndarray) -> np.ndarray:
    """Negative control: the benchmark's copy with one entry visibly off."""
    values = values.copy()
    k = int(np.argmax(np.abs(values)))
    values[k] += 1e-3 * abs(values[k])
    return values


def write_dataset(path: str, X: np.ndarray, Y: np.ndarray) -> None:
    header = ",".join([f"x{i + 1}" for i in range(X.shape[1])] + ["y"])
    rows = [",".join(repr(float(v)) for v in (*x, y)) for x, y in zip(X, Y)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join([header, *rows]) + "\n")


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed, self.p, self.workdir = seed, SIZES[size][self.name], workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


class FitScattered(Workload):
    """Library API: fit a fresh 1-D dataset at G = 40001, evaluate at fresh points."""

    name = "fit-scattered"

    def setup(self) -> None:
        self.grid = FrequencyGrid(d=1, M=self.p["M"], delta_xi=self.p["delta_xi"])

    def prepare(self, i: int) -> dict:
        rng = rng_for(self.seed, 1, i)
        X = rng.uniform(-1.0, 1.0, size=(self.p["n"], 1))
        return {
            "X": X,
            "Y": labels(X, rng),
            "alpha": FIT_ALPHAS[i % 2],
            "points": rng.uniform(-1.0, 1.0, size=self.p["points"]),
            "rng": rng,
        }

    def run(self, inp: dict, tracer) -> tuple[dict, dict]:
        times: dict = {}

        def fit():
            with tracer.span("op.fit"):
                data = Dataset(X=inp["X"], Y=inp["Y"])
                config = SolveConfig(alpha=inp["alpha"], lam=self.p["lam"])
                return fdvar.solver.fit(self.grid, data, config)

        def evaluate(model):
            with tracer.span("op.eval"):
                return model.evaluate(inp["points"])

        model = timed(times, "fit_s", fit)
        values = timed(times, "eval_s", evaluate, model)
        times["eval_points"] = [len(values)]
        return {"model": model, "values": values}, times

    def check(self, inp: dict, out: dict, fault: bool) -> list[str]:
        model, values, rng = out["model"], out["values"], inp["rng"]
        phi = perturb(model.coefficients.values) if fault else model.coefficients.values
        lat = checks.lattice(1, self.p["M"])
        fails = []
        err = checks.stationarity_error(
            phi, lat, self.p["delta_xi"], inp["alpha"], self.p["lam"], inp["X"], inp["Y"], rng
        )
        if not err <= model.config.solve_tolerance:
            fails.append(f"fit stationarity {err:.3e} > {model.config.solve_tolerance:.0e}")
        err = checks.synthesis_error(phi, lat, self.p["delta_xi"], inp["points"], values, rng)
        if not err <= checks.SYNTHESIS_GATE:
            fails.append(f"eval synthesis error {err:.3e} > {checks.SYNTHESIS_GATE:.0e}")
        residue = float(np.max(np.abs(values.imag)))
        if not residue <= checks.IMAG_GATE:
            fails.append(f"eval imaginary residue {residue:.3e} > {checks.IMAG_GATE:.0e}")
        return fails


class PathGrid(Workload):
    """CLI: a four-lambda sweep, then fit + eval, on one d = 2 dataset per run.

    One op is one cycle of both kinds, so the op time is not bimodal.
    """

    name = "path-grid"

    def setup(self) -> None:
        p = self.p
        rng = rng_for(self.seed, 0)
        self.X = rng.uniform(-1.0, 1.0, size=(p["n"], 2))
        self.Y = labels(self.X, rng)
        write_dataset(self.path("data.csv"), self.X, self.Y)
        with open(self.path("config.txt"), "w", encoding="utf-8") as handle:
            handle.write(
                f"alpha = {p['alpha']!r}\nlambda = {p['lam']!r}\n"
                f"M = {p['M']}\ndelta_xi = {p['delta_xi']!r}\n"
            )
        spec = {
            "name": "path",
            "dataset": self.path("data.csv"),
            "grid": {"M": p["M"], "delta_xi": p["delta_xi"]},
            "config": {"alpha": p["alpha"]},
            "sweep": {"axis": "lambda", "values": p["lambdas"]},
            "eval_grid": {"min": -1.0, "max": 1.0, "points": p["axis"]},
        }
        with open(self.path("sweep.json"), "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        self.grid_spec = f"--grid=-1:1:{p['axis']}"

    def prepare(self, i: int) -> dict:
        return {"rng": rng_for(self.seed, 1, i)}

    def run(self, inp: dict, tracer) -> tuple[dict, dict]:
        times: dict = {}
        sweep = timed(times, "sweep_s", run_cli, tracer,
                      ["sweep", self.path("sweep.json"), "-d", self.path("sweep")])
        out, more = self.warm_up(inp, tracer)
        return {"sweep": sweep, **out}, {**times, **more}

    def warm_up(self, inp: dict, tracer) -> tuple[dict, dict]:
        """The fit + eval kind alone: it runs every code path the sweep runs."""
        times: dict = {}
        out = {
            "fit": timed(times, "fit_s", run_cli, tracer,
                         ["fit", self.path("config.txt"), self.path("data.csv"), "-o", self.path("model.json")]),
            "eval": timed(times, "eval_s", run_cli, tracer,
                          ["eval", self.path("model.json"), self.grid_spec, "-o", self.path("recon.csv")]),
        }
        times["eval_points"] = [self.p["axis"] ** 2]
        return out, times

    def check(self, inp: dict, out: dict, fault: bool) -> list[str]:
        fails = []
        for kind in ("sweep", "fit", "eval"):
            fails += cli_failures(kind, out[kind])
        if fails:
            return fails
        p, rng = self.p, inp["rng"]
        with open(self.path("sweep/path_manifest.json"), "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        bad = [e for e in manifest["points"] if e["status"] != "ok"]
        if bad or len(manifest["points"]) != len(p["lambdas"]):
            fails.append(f"sweep manifest: {len(bad)} of {len(manifest['points'])} points not ok")
        phi, model = checks.model_coefficients(self.path("model.json"))
        if fault:
            phi = perturb(phi)
        lat = checks.lattice(2, p["M"])
        tol = model["config"]["solve_tolerance"]
        err = checks.stationarity_error(phi, lat, p["delta_xi"], p["alpha"], p["lam"], self.X, self.Y, rng)
        if not err <= tol:
            fails.append(f"fit stationarity {err:.3e} > {tol:.0e}")
        recon = checks.read_csv(self.path("recon.csv"))
        err = checks.synthesis_error(phi, lat, p["delta_xi"], recon[:, :2], recon[:, 2], rng)
        if not err <= checks.SYNTHESIS_GATE:
            fails.append(f"eval synthesis error {err:.3e} > {checks.SYNTHESIS_GATE:.0e}")
        residue = float(out["eval"]["stdout"].split("imag_residue=")[1].split()[0])
        if not residue <= checks.IMAG_GATE:
            fails.append(f"eval imaginary residue {residue:.3e} > {checks.IMAG_GATE:.0e}")
        # The sweep point at the fit's lambda must reproduce fit + eval.
        point = manifest["points"][p["lambdas"].index(p["lam"])]
        swept = checks.read_csv(self.path(os.path.join("sweep", point["artifact"])))
        gap = float(np.max(np.abs(swept[:, 2] - recon[:, 2])) / np.max(np.abs(recon[:, 2])))
        if not gap <= checks.SYNTHESIS_GATE:
            fails.append(f"sweep point at lambda={p['lam']} differs from fit + eval by {gap:.3e}")
        return fails


class Diagnostics(Workload):
    """CLI: closedform at M = 1e5, nine critical calls, subcritical, verify."""

    name = "diagnostics"
    LABEL = 2.0  # the closedform command's default label
    CF = {"alpha": 4.0, "lam": 1.0}

    def setup(self) -> None:
        rng = rng_for(self.seed, 0)
        points: list[np.ndarray] = []
        while len(points) < self.p["sub_n"]:
            x = rng.uniform(-1.0, 1.0, size=2)
            if all(np.linalg.norm(x - q) > SUB_MIN_GAP for q in points):
                points.append(x)
        X = np.array(points)
        write_dataset(self.path("plane.csv"), X, labels(X, rng))
        self.cf_args = [
            "closedform", "--M", str(self.p["cf_M"]), "--delta-xi", repr(self.p["cf_delta_xi"]),
            "--alpha", repr(self.CF["alpha"]), "--lambda", repr(self.CF["lam"]),
            f"--grid=-0.5:0.5:{self.p['cf_points']}", "-o", self.path("curve.csv"),
        ]

    def prepare(self, i: int) -> dict:
        return {"rng": rng_for(self.seed, 1, i)}

    def run(self, inp: dict, tracer) -> tuple[dict, dict]:
        times: dict = {}
        out = {"closedform": timed(times, "closedform_s", run_cli, tracer, self.cf_args)}
        for d, alpha in CRITICAL_CASES:
            out[("critical", d, alpha)] = timed(
                times, "critical_s", run_cli, tracer,
                ["critical", "--dim", str(d), "--alpha", repr(alpha),
                 "-o", self.path("norms.csv"), "--verdict", self.path(f"verdict-{d}-{alpha}.json")],
            )
        out["subcritical"] = timed(
            times, "subcritical_s", run_cli, tracer,
            ["subcritical", self.path("plane.csv"), "--alpha", "1", "--weight", "homogeneous",
             "--sigmas", SUB_SIGMAS, "-o", self.path("decay.csv")],
        )
        out["verify"] = timed(times, "verify_s", run_cli, tracer, ["verify", "--seed", str(self.seed)])
        return out, times

    def check(self, inp: dict, out: dict, fault: bool) -> list[str]:
        fails = []
        for key, result in out.items():
            fails += cli_failures(str(key), result)
        if fails:
            return fails
        curve = checks.read_csv(self.path("curve.csv"))
        values, idx = curve[:, 1], checks.sample_points(len(curve), inp["rng"])
        if fault:
            values[idx[0]] += 1e-6 * np.max(np.abs(values))
        err = checks.closed_form_error(
            self.p["cf_M"], self.p["cf_delta_xi"], self.CF["alpha"], self.CF["lam"], self.LABEL,
            curve[:, 0], values, idx,
        )
        if not err <= checks.SYNTHESIS_GATE:
            fails.append(f"closedform synthesis error {err:.3e} > {checks.SYNTHESIS_GATE:.0e}")
        for d, alpha in CRITICAL_CASES:
            with open(self.path(f"verdict-{d}-{alpha}.json"), "r", encoding="utf-8") as handle:
                verdict = json.load(handle)["classification"]
            expected = "vanishes" if alpha < d else "converges" if alpha == d else "diverges"
            if verdict != expected:
                fails.append(f"critical d={d} alpha={alpha}: {verdict}, expected {expected}")
        decay = checks.read_csv(self.path("decay.csv"))
        if len(decay) != len(SUB_SIGMAS.split(",")) or not (
            np.all(decay[:, 1] > 0) and np.all(np.diff(decay[:, 1]) < 0)
        ):
            fails.append("subcritical norms are not positive and decreasing below alpha = d")
        summary = out["verify"]["stdout"].strip().splitlines()[-1]
        passed, total = summary.split()[0].split("/")
        if passed != total:
            fails.append(f"verify: {summary}")
        return fails


WORKLOADS = {w.name: w for w in (FitScattered, PathGrid, Diagnostics)}
