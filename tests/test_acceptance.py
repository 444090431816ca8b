"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  Tolerances are fixed here, not calibrated at runtime.
"""

import time

import numpy as np
import pytest

import fdvar.closed_form as closed_form
from fdvar import (
    critical_constant,
    decay_sweep,
    gaussian_radial_moment,
    gaussian_radial_moment_exact,
    gaussian_sobolev_norm,
    solve_direct,
    solve_dual,
    solve_svd,
    trichotomy_sweep,
)
from fdvar.critical import WEIGHT_HOMOGENEOUS
from fdvar.verify import (
    PLANE_DATA,
    TWO_POINT_DATA,
    backend_spread,
    random_small_system,
    two_point_model,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def criterion5_systems():
    rng = np.random.default_rng(2024)
    return [random_small_system(rng) for _ in range(50)]


def test_criterion_01_closed_form_oracle_agreement():
    start = time.perf_counter()
    params = closed_form.ClosedFormParams(M=1000, delta_xi=0.01, alpha=4.0, lam=1.0)
    system = closed_form.assembled_system(params)
    xs = np.linspace(-0.5, 0.5, 1001)
    expected = closed_form.reconstruction(params, xs)
    worst = 0.0
    for solver in (solve_direct, solve_dual, solve_svd):
        values = closed_form.synthesize(solver(system), params.delta_xi, xs)
        worst = max(worst, float(np.max(np.abs(values - expected))))
    elapsed = time.perf_counter() - start
    report(
        "criterion-01 closed-form-oracle",
        worst <= 1e-8 and elapsed <= 30.0,
        f"sup_err={worst:.3e} (tol 1e-08), runtime={elapsed:.1f}s (budget 30s)",
    )


def test_criterion_02_critical_constants():
    start = time.perf_counter()
    err1 = abs(gaussian_sobolev_norm(1, 1.0, 1e-3) / critical_constant(1) - 1.0)
    err2 = abs(gaussian_sobolev_norm(2, 2.0, 1e-3) / critical_constant(2) - 1.0)
    elapsed = time.perf_counter() - start
    report(
        "criterion-02 critical-constants",
        err1 <= 0.01 and err2 <= 0.01 and elapsed <= 5.0,
        f"rel_err(d=1)={err1:.3e}, rel_err(d=2)={err2:.3e} (tol 1e-02), "
        f"runtime={elapsed:.1f}s (budget 5s)",
    )


def test_criterion_03_trichotomy_slopes():
    sigmas = np.logspace(-1, -3, 9)
    worst = 0.0
    details = []
    for d, alpha in [(1, 0.5), (1, 3.0), (2, 1.0), (2, 4.0)]:
        sweep = trichotomy_sweep(d, alpha, sigmas, weight=WEIGHT_HOMOGENEOUS)
        dev = abs(sweep.fitted_slope - (d - alpha))
        worst = max(worst, dev)
        details.append(f"(d={d},a={alpha}): slope={sweep.fitted_slope:+.4f}")
    report(
        "criterion-03 trichotomy-slopes",
        worst <= 0.05,
        f"max_dev={worst:.2e} (tol 5e-02); " + ", ".join(details),
    )


def test_criterion_04_moment_identities():
    worst = 0.0
    for k in range(1, 9):
        rel = abs(gaussian_radial_moment(k) / gaussian_radial_moment_exact(k) - 1.0)
        worst = max(worst, rel)
    report("criterion-04 moment-identities", worst <= 1e-10, f"max_rel_err={worst:.3e} (tol 1e-10)")


def test_criterion_05_backend_agreement():
    start = time.perf_counter()
    worst = max(backend_spread(system) for system in criterion5_systems())
    elapsed = time.perf_counter() - start
    report(
        "criterion-05 backend-agreement",
        worst <= 1e-8 and elapsed <= 60.0,
        f"max_pairwise_rel={worst:.3e} (tol 1e-08) over 50 instances, "
        f"runtime={elapsed:.1f}s (budget 60s)",
    )


def test_criterion_06_band_limit_overlap():
    xs = np.linspace(-1.0, 1.0, 2001)
    coarse = two_point_model(100).evaluate(xs).real
    fine_model = two_point_model(1000)
    fine = fine_model.evaluate(xs).real
    sup = float(np.max(np.abs(coarse - fine)))
    resid = float(np.max(np.abs(fine_model.evaluate(TWO_POINT_DATA.X).real - 0.9)))
    report(
        "criterion-06 band-limit-overlap",
        sup < 0.02 and resid <= 0.05,
        f"sup_diff={sup:.3e} (<2e-02), endpoint_resid={resid:.3e} (<=5e-02)",
    )


def test_criterion_07_subcritical_degeneracy():
    model = two_point_model(1000, alpha=0.5)
    xs = np.linspace(-1.0, 1.0, 2001)
    values = model.evaluate(xs).real
    away = np.min(np.abs(xs[:, None] - TWO_POINT_DATA.X.ravel()[None, :]), axis=1) > 0.2
    off_support = float(np.max(np.abs(values[away])))
    peak = float(np.max(np.abs(model.evaluate(TWO_POINT_DATA.X).real)))
    report(
        "criterion-07 subcritical-degeneracy",
        off_support < 0.05 and peak > 0.5,
        f"off_support_sup={off_support:.3e} (<5e-02), peak={peak:.3f} (>0.5)",
    )


def test_criterion_08_construction_decay():
    sigmas = [0.2, 0.1, 0.05, 0.025]
    power = decay_sweep(PLANE_DATA, 1.0, sigmas, weight=WEIGHT_HOMOGENEOUS)
    bracket = decay_sweep(PLANE_DATA, 1.0, sigmas)
    interp_ok = True
    for sweep in (power, bracket):
        decreasing = bool(np.all(np.diff(sweep.norms) < 0))
        interp_ok = interp_ok and decreasing
    slope_dev = abs(power.fitted_slope - 1.0)
    # residuals re-checked at every sigma by build_interpolant; margins positive
    margins_ok = bool(np.all(power.margins > 0))
    report(
        "criterion-08 construction-decay",
        slope_dev <= 0.1 and interp_ok and margins_ok,
        f"slope={power.fitted_slope:.4f} (1 +/- 0.1), both_weights_decreasing={interp_ok}, "
        f"min_margin={power.margins.min():.3f}",
    )


def test_criterion_09_representer_and_kkt():
    worst_projection = 0.0
    worst_gradient_ratio = 0.0
    for system in criterion5_systems():
        phi = solve_direct(system)
        basis = (system.matrix / system.weights[None, :]).conj().T
        coeffs, *_ = np.linalg.lstsq(basis, phi, rcond=None)
        projection = float(np.linalg.norm(basis @ coeffs - phi) / np.linalg.norm(phi))
        worst_projection = max(worst_projection, projection)
        gradient = 2.0 * (
            system.matrix.conj().T @ (system.matrix @ phi - system.rhs)
            + system.lam * system.weights * phi
        )
        bound = 10.0 * 1e-10 * (
            np.linalg.norm(system.matrix.conj().T @ system.rhs)
            + np.linalg.norm(system.lam * system.weights * phi)
        )
        worst_gradient_ratio = max(
            worst_gradient_ratio, float(np.linalg.norm(gradient) / bound)
        )
    report(
        "criterion-09 representer-kkt",
        worst_projection <= 1e-8 and worst_gradient_ratio <= 1.0,
        f"max_projection_resid={worst_projection:.3e} (tol 1e-08), "
        f"max_gradient/bound={worst_gradient_ratio:.3e} (<=1)",
    )


def test_criterion_10_penalty_relaxation():
    tight = float(np.max(two_point_model(1000, lam=1e-4).residuals))
    loose = float(np.max(two_point_model(1000, lam=1.0).residuals))
    report(
        "criterion-10 penalty-relaxation",
        tight < loose / 10.0,
        f"max_resid(lam=1e-4)={tight:.3e} < max_resid(lam=1)/10={loose / 10.0:.3e}",
    )
