"""Each benchmark workload's op passes the benchmark's own output checks.

``benchmarks/run.py`` imports ``workloads`` and ``tracing`` from its own
directory after ``fdvar.cli``; this does the same and runs one op of each
workload at the ``tiny`` size.  An output the benchmark would count as
incorrect (the ``imag_residue=`` line of ``fdvar eval``, the model file's
coefficient pairs, a verdict) then fails here, not only in the self-test.
"""

import importlib
from pathlib import Path

import pytest

import fdvar.cli  # noqa: F401  (run.py imports it before the workloads)

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCHMARKS))
        return importlib.import_module("workloads"), importlib.import_module("tracing")


@pytest.mark.parametrize("name", ["fit-scattered", "path-grid", "diagnostics"])
def test_workload_op_passes_its_checks(bench, tmp_path, name):
    workloads, tracing = bench
    workload = workloads.WORKLOADS[name](0, "tiny", str(tmp_path))
    workload.setup()
    inp = workload.prepare(0)
    out, _ = workload.run(inp, tracing.Tracer())  # a tracer that never records
    assert workload.check(inp, out, False) == []
    # negative control; check consumed the op's rng, so draw its inputs again
    assert workload.check(workload.prepare(0), out, True) != []
