"""The benchmark's tracer finds every fdvar name it wraps, and puts them back.

``benchmarks/tracing.py`` looks functions and tables up by name; renaming or
dropping one of them must fail here, not only in the benchmark's self-test.
"""

import importlib.util
from pathlib import Path

import fdvar.cli
from fdvar.verify import two_point_model

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
    restored = (fdvar.solver.fit, fdvar.cli.fit, fdvar.solver._BACKENDS)
    assert all(now is before for now, before in zip(restored, originals))
