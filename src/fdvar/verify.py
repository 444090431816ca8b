"""Self-contained cross-checks runnable from a fresh checkout.

Each check exercises one oracle pair at desk scale and reports PASS/FAIL
with a one-line detail.  The expected-value table and the backend agreement
tolerance are injectable so negative controls can prove the checks can fail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import closed_form, solver
from .core import Dataset, SolveConfig
from .critical import (
    WEIGHT_HOMOGENEOUS,
    critical_constant,
    gaussian_radial_moment,
    gaussian_radial_moment_exact,
    gaussian_sobolev_norm,
)
from .grid import FrequencyGrid
from .solver import AssembledSystem, assemble, fit
from .subcritical import decay_sweep

TWO_POINT_DATA = Dataset(X=[[-0.5], [0.5]], Y=[0.9, 0.9])
PLANE_DATA = Dataset(
    X=[[-1.5, 0.5], [-0.5, 0.5], [0.5, 0.5], [1.5, 0.5]],
    Y=[1.0, 0.9, 0.9, 1.0],
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_small_system(rng: np.random.Generator) -> AssembledSystem:
    """A well-separated random instance small enough for all three backends."""
    n = int(rng.integers(1, 6))
    d = int(rng.integers(1, 3))
    m = int(rng.integers(2, 9))
    delta_xi = float(rng.uniform(0.05, 0.5))
    alpha = float(rng.uniform(0.5, 4.0))
    lam = float(rng.choice([1e-3, 1.0, 10.0]))
    while True:
        X = rng.uniform(-1.0, 1.0, size=(n, d))
        if n == 1:
            break
        gaps = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
        if np.min(gaps[np.triu_indices(n, k=1)]) > 1e-2:
            break
    data = Dataset(X=X, Y=rng.uniform(-2.0, 2.0, size=n))
    grid = FrequencyGrid(d=d, M=m, delta_xi=delta_xi)
    return assemble(grid, data, SolveConfig(alpha=alpha, lam=lam))


def backend_spread(system: AssembledSystem) -> float:
    """Largest pairwise relative difference between the three backends."""
    solutions = [solve(system) for solve in solver._BACKENDS.values()]
    worst = 0.0
    for a, b in itertools.combinations(solutions, 2):
        scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
        worst = max(worst, float(np.linalg.norm(a - b) / scale))
    return worst


def two_point_model(m: int, alpha: float = 10.0, lam: float = 0.5):
    """Fit of ``TWO_POINT_DATA`` on a ``delta_xi = 0.1`` grid of band limit ``m``."""
    grid = FrequencyGrid(d=1, M=m, delta_xi=0.1)
    return fit(grid, TWO_POINT_DATA, SolveConfig(alpha=alpha, lam=lam))


def _check_closed_form(ctx: dict) -> tuple[bool, str]:
    params = closed_form.ClosedFormParams(M=200, delta_xi=0.01, alpha=4.0, lam=1.0)
    system = closed_form.assembled_system(params, label=2.0)
    xs = np.linspace(-0.5, 0.5, 201)
    expected = closed_form.reconstruction(params, xs)
    worst = 0.0
    for solve in solver._BACKENDS.values():
        got = closed_form.synthesize(solve(system), params.delta_xi, xs)
        worst = max(worst, float(np.max(np.abs(got - expected))))
    return worst <= 1e-8, f"sup_err={worst:.3e} (tol 1e-08)"


def _check_critical_constants(ctx: dict) -> tuple[bool, str]:
    table = ctx["c_d_table"] or {d: critical_constant(d) for d in (1, 2)}
    worst = 0.0
    for d, target in sorted(table.items()):
        value = gaussian_sobolev_norm(d, float(d), 1e-3)
        worst = max(worst, abs(value / target - 1.0))
    return worst <= 0.01, f"max_rel_err={worst:.3e} (tol 1e-02)"


def _check_moments(ctx: dict) -> tuple[bool, str]:
    worst = 0.0
    for k in range(1, 9):
        quad_value = gaussian_radial_moment(k)
        exact = gaussian_radial_moment_exact(k)
        worst = max(worst, abs(quad_value / exact - 1.0))
    return worst <= 1e-10, f"max_rel_err={worst:.3e} (tol 1e-10)"


def _check_backend_agreement(ctx: dict) -> tuple[bool, str]:
    rng = np.random.default_rng(ctx["seed"])
    tol = ctx["agreement_tol"]
    worst = max(backend_spread(random_small_system(rng)) for _ in range(8))
    return worst <= tol, f"max_pairwise_rel={worst:.3e} (tol {tol:.0e})"


def _check_band_limit_overlap(ctx: dict) -> tuple[bool, str]:
    xs = np.linspace(-1.0, 1.0, 801)
    coarse = two_point_model(100).evaluate(xs).real
    fine = two_point_model(400).evaluate(xs).real
    sup = float(np.max(np.abs(coarse - fine)))
    resid = float(np.max(two_point_model(400).residuals))
    ok = sup < 0.02 and resid <= 0.05
    return ok, f"sup_diff={sup:.3e} (tol 2e-02), data_resid={resid:.3e} (tol 5e-02)"


def _check_subcritical_spike(ctx: dict) -> tuple[bool, str]:
    model = two_point_model(400, alpha=0.5)
    xs = np.linspace(-1.0, 1.0, 801)
    values = model.evaluate(xs).real
    away = np.min(np.abs(xs[:, None] - TWO_POINT_DATA.X.ravel()[None, :]), axis=1) > 0.2
    off = float(np.max(np.abs(values[away])))
    peak = float(np.max(np.abs(model.evaluate(TWO_POINT_DATA.X).real)))
    ok = off < 0.05 and peak > 0.5
    return ok, f"off_support={off:.3e} (<5e-02), peak={peak:.3f} (>0.5)"


def _check_construction_decay(ctx: dict) -> tuple[bool, str]:
    sweep = decay_sweep(PLANE_DATA, 1.0, [0.1, 0.05, 0.025], weight=WEIGHT_HOMOGENEOUS)
    slope_ok = abs(sweep.fitted_slope - 1.0) <= 0.1
    margins_ok = bool(np.all(sweep.margins > 0))
    decreasing = bool(np.all(np.diff(sweep.norms) < 0))
    ok = slope_ok and margins_ok and decreasing
    return ok, (
        f"slope={sweep.fitted_slope:.3f} (1 +/- 0.1), "
        f"min_margin={sweep.margins.min():.3f}, decreasing={decreasing}"
    )


def _check_penalty_relaxation(ctx: dict) -> tuple[bool, str]:
    tight = float(np.max(two_point_model(200, lam=1e-4).residuals))
    loose = float(np.max(two_point_model(200, lam=1.0).residuals))
    ok = tight < loose / 10.0
    return ok, f"resid(1e-4)={tight:.3e} < resid(1)/10={loose / 10.0:.3e}"


_CHECKS = [
    ("closed-form-oracle", _check_closed_form),
    ("critical-constants", _check_critical_constants),
    ("moment-identities", _check_moments),
    ("backend-agreement", _check_backend_agreement),
    ("band-limit-overlap", _check_band_limit_overlap),
    ("subcritical-spike", _check_subcritical_spike),
    ("construction-decay", _check_construction_decay),
    ("penalty-relaxation", _check_penalty_relaxation),
]


def run_verification(
    names: list[str] | None = None,
    c_d_table: dict[int, float] | None = None,
    agreement_tol: float = 1e-8,
    seed: int = 0,
) -> list[CheckResult]:
    """Run the named checks (all by default) and collect their results."""
    ctx = {"c_d_table": c_d_table, "agreement_tol": agreement_tol, "seed": seed}
    known = {name for name, _ in _CHECKS}
    if names is not None:
        unknown = set(names) - known
        if unknown:
            raise ValueError(f"unknown check names: {sorted(unknown)}")
    results = []
    for name, check in _CHECKS:
        if names is not None and name not in names:
            continue
        try:
            passed, detail = check(ctx)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"error: {exc}"
        results.append(CheckResult(name=name, passed=passed, detail=detail))
    return results
