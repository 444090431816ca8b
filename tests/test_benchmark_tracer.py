"""The benchmark's tracer finds every fdvar name it wraps, and puts them back.

``benchmarks/tracing.py`` looks functions and tables up by name; renaming or
dropping one of them must fail here, not only in the benchmark's self-test.
"""

import importlib.util
from pathlib import Path

import fdvar.cli
from fdvar.subcritical import decay_sweep
from fdvar.verify import PLANE_DATA, two_point_model

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("fdvar_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_fit_layers_and_restores_originals():
    originals = (fdvar.solver.fit, fdvar.cli.fit, fdvar.solver._BACKENDS)
    tracer = load_tracing().Tracer()
    try:
        tracer.install(fdvar)
        two_point_model(50)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"solver.fit", "solver.dual", "core.project"} <= names
    # health read from the full matrix: the gradient check's ratio, and the
    # defect before projection, exactly 0 for the mirrored half lattice
    assert len(tracer.health["normal_residual_ratio"]) == 1
    assert tracer.health["normal_residual_ratio"][0] <= 1e-10
    assert tracer.health["hermitian_defect"] == [0.0]
    # two points, G = 101: the tracer still sees the full n-by-G matrix
    (counts,) = [span[5] for span in tracer.spans if span[0] == "solver.assemble"]
    assert counts["exps"] == 2 * 101
    restored = (fdvar.solver.fit, fdvar.cli.fit, fdvar.solver._BACKENDS)
    assert all(now is before for now, before in zip(restored, originals))


def test_tracer_counts_the_pair_terms_subcritical_integrates(monkeypatch):
    # the tracer re-derives the distinct distances from the norm's first
    # argument; its count must match the radial integrals actually run
    integrated = []
    pair_term = fdvar.subcritical._pair_term

    def counted(d, alpha, sigma, distance, weight):
        integrated.append(distance)
        return pair_term(d, alpha, sigma, distance, weight)

    monkeypatch.setattr(fdvar.subcritical, "_pair_term", counted)
    sigmas = [0.2, 0.1]
    tracer = load_tracing().Tracer()
    try:
        tracer.install(fdvar)
        decay_sweep(PLANE_DATA, 1.0, sigmas)
    finally:
        tracer.uninstall()
    counts = [span[5] for span in tracer.spans if span[0] == "subcritical.norm"]
    assert len(counts) == len(sigmas)
    per_norm = len(set(integrated))
    assert len(integrated) == per_norm * len(sigmas)
    assert [c["pair_terms"] for c in counts] == [per_norm] * len(sigmas)
    assert [c["pairs"] for c in counts] == [PLANE_DATA.n**2] * len(sigmas)
