"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 benchmarks/selftest.py

For every workload, untraced and traced: the run prints every metric that
metrics.json names for it, with its unit, and the result line carries every
metric BENCHMARK.json names.  As a negative control, a run that perturbs its
own copy of op 0's output before the check must report fail_ratio > 0.
Finally, a copy holding only BENCHMARK.json and benchmarks/ must exit
non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit-scattered", "path-grid", "diagnostics")


def bench(*extra: str, root: Path = ROOT, workload: str = "fit-scattered", trace: int = 0):
    argv = [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((HERE / "metrics.json").read_text())
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for layer in contract["per_layer"]:
        if not spec["per_layer"].get(layer["name"], {}).get("all_workloads"):
            problems.append(f"BENCHMARK.json per-layer {layer['name']} is not measured on every workload")
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = bench(workload=workload, trace=trace)
            if run.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit {run.returncode}: {run.stderr[-300:]}")
                continue
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            section = "per_layer" if trace else "end_to_end"
            for name, metric in spec[section].items():
                if metric.get("all_workloads") or workload in metric.get("workloads", ()):
                    if not any(line.split()[:1] == [name] and f" {metric['unit']} " in line for line in lines):
                        problems.append(f"{workload} trace={trace}: {name} [{metric['unit']}] not printed")
            for metric in contract[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{workload} trace={trace}: result line lacks {metric['name']}")
            if not (result["correct"] and result["failed"] == 0):
                problems.append(f"{workload} trace={trace}: clean run reported failures")
        run = bench("--inject-fault", workload=workload)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not (result["failed"] > 0 and result["correct"] is False):
            problems.append(f"{workload}: negative control was not caught")
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
        run = bench(root=bare)
        if run.returncode == 0 or run.stdout.strip():
            problems.append("a copy without src/ did not fail cleanly")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
