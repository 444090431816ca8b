"""Compare benchmark results of two commits, refusing results from different machines.

    python3 benchmarks/compare.py PARENT_RESULTS... -- CHANGE_RESULTS...

Each argument is a ``benchmarks/out/result-*.json`` file written by run.py.
For every workload and metric present on both sides, prints each side's
median and quartiles over its runs.  Results whose environment fingerprints
differ (CPU, core count, Python, numpy, scipy, BLAS or BLAS threads) are not
comparable; the script says so and exits with code 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(paths):
    table = defaultdict(lambda: defaultdict(list))
    prints = set()
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
        prints.add(result["env"]["fingerprint"])
        for section in ("end_to_end", "per_layer"):
            for name, metric in result[section].items():
                if metric["value"] is not None:
                    table[result["workload"]][name].append(metric["value"])
    return table, prints


def spread(values):
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv) -> int:
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    parent, parent_prints = load(argv[:cut])
    change, change_prints = load(argv[cut + 1 :])
    prints = parent_prints | change_prints
    if len(prints) > 1:
        print("NOT COMPARABLE: results come from different machines or toolchains:")
        for fingerprint in sorted(prints):
            print(f"  {fingerprint}")
        return 1
    for workload in sorted(set(parent) & set(change)):
        print(f"{workload}: metric, parent median [q1, q3], change median [q1, q3]")
        for name in sorted(set(parent[workload]) & set(change[workload])):
            print(f"  {name:32s} {spread(parent[workload][name]):>40s} {spread(change[workload][name]):>40s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
