"""Closed-loop benchmark of fdvar, driven from outside the package.

    python3 benchmarks/run.py --workload fit-scattered --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  One process, one client: each op of the
workload (workloads.py) is issued only after the previous one returned, and
is checked against the benchmark's own direct sums (checks.py) outside the
timed region.  BLAS is pinned to one thread and FDVAR_THREADS is unset, so
the CLI's default is what gets measured.  With ``--trace 1`` every other
pair of ops runs with spans recorded around fdvar's public functions
(tracing.py); those give the per-layer metrics, and the untraced ops between
them give the tracing overhead.

The report names every metric that applies to the workload (metrics.json)
with its unit and sample count, and is also written with the environment to
``benchmarks/out/``.  The last line of stdout is one JSON object with the
metrics that BENCHMARK.json lists.
"""

import os
import sys
import time

_START = time.perf_counter()
BLAS_THREADS = 1  # at or below nproc; one thread also gave the steadiest op times
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("FDVAR_THREADS", None)
sys.dont_write_bytecode = True  # compile the same sources on every run, write nothing into src/

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3
REF_SAMPLES = 3  # reference timings after each op
WARMUP_KEY = 1 << 30  # input stream of the warm-up ops, apart from the timed ops' 0, 1, ...
TAIL_BEYOND = 10  # a tail percentile needs at least this many samples above it


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["fit-scattered", "path-grid", "diagnostics"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed op wall clock to accumulate")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny: self-test sizes")
    parser.add_argument("--inject-fault", action="store_true",
                        help="negative control: perturb the benchmark's copy of op 0's output before its check")
    return parser.parse_args(argv)


def import_fdvar():
    """Import fdvar from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "fdvar" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'fdvar'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import fdvar
    import fdvar.cli  # noqa: F401  (binds every module the tracer wraps)

    if Path(fdvar.__file__).resolve().parent != (src / "fdvar").resolve():
        sys.exit(f"error: imported fdvar from {fdvar.__file__}, not from {src}")
    return fdvar


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    env = {
        "nproc": nproc,
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "fdvar_threads": os.environ.get("FDVAR_THREADS", "unset"),
        "seed": args.seed,
        "commit": git_commit(),
    }
    # Results with different fingerprints come from different machines or
    # toolchains and are not comparable (compare.py refuses them).
    env["fingerprint"] = "|".join(str(env[k]) for k in ("cpu", "machine", "nproc", "python", "numpy", "scipy", "openblas", "blas_threads"))
    return env


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Reference:
    """A fixed computation whose time tracks the machine's current speed.

    On a shared host the same op can take 30% longer from one minute to the
    next.  The reference is a miniature of fdvar's dual-kernel assembly,
    complex exponentials over a 96 x 4096 lattice and their Gram matrix
    (about 30 ms on a 2-core Xeon VM).  It is timed between ops.  Counting
    op time in median reference times roughly halved the run-to-run spread
    of ops per second on fit-scattered and diagnostics there.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.phases = np.linspace(-1.0, 1.0, 96)[:, None] * np.arange(-2048.0, 2048.0)[None, :] * 0.01
        self.samples: list[float] = []

    def sample(self, count: int) -> None:
        for _ in range(count):
            start = time.perf_counter()
            rows = self.np.exp(2j * math.pi * self.phases)
            rows @ rows.conj().T
            self.samples.append(time.perf_counter() - start)

    def median(self) -> float:
        return statistics.median(self.samples)


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples above it, or None."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None, None
    return sorted(samples)[n - TAIL_BEYOND - 1], int(100 * (n - TAIL_BEYOND) / n)


def end_to_end(samples, op_times, completed, attempted, failed, setup_s, reference) -> dict:
    """(value, samples, note) for every end-to-end metric the samples support."""
    ref = reference.median()
    out = {
        "ref_s.p50": (ref, len(reference.samples), ""),
        "op_ref.p50": (statistics.median(op_times) / ref if op_times else None, len(op_times), ""),
        "ops_per_kref": (1000.0 * ref * len(op_times) / sum(op_times) if op_times else None, len(op_times), ""),
        "setup_s": (setup_s, SETUP_REPS, "imports + median of set-ups"),
        "op_s.p50": (statistics.median(op_times) if op_times else None, len(op_times), ""),
        "ops_per_s": (len(op_times) / sum(op_times) if op_times else None, len(op_times), ""),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1, ""),
        "fail_ratio": (failed / attempted if attempted else None, attempted, ""),
    }
    for kind in ("fit_s", "eval_s", "sweep_s", "closedform_s", "critical_s", "subcritical_s", "verify_s"):
        values = samples.get(kind, [])
        out[f"{kind}.p50"] = (statistics.median(values) if values else None, len(values), "")
        value, pct = tail(values)
        out[f"{kind}.tail"] = (value, len(values), f"p{pct}" if pct is not None else f"n/a below {TAIL_BEYOND + 1} samples")
    points, eval_time = sum(samples.get("eval_points", [])), sum(samples.get("eval_s", []))
    out["eval_points_per_s"] = (points / eval_time if eval_time else None, len(samples.get("eval_s", [])), "")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    fdvar = import_fdvar()
    import tracing
    import workloads

    import_s = time.perf_counter() - _START
    env = environment(args)
    spec = json.loads((HERE / "metrics.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, fdvar, tracing, workloads, import_s, env, spec, bench, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, fdvar, tracing, workloads, import_s, env, spec, bench, workdir) -> int:
    cls = workloads.WORKLOADS[args.workload]
    null = tracing.Tracer()  # never records: the untraced ops' spans cost one flag check
    setups = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        rep_dir = workdir / f"setup{rep}"
        rep_dir.mkdir(parents=True)
        workload = cls(args.seed, args.size, str(rep_dir))
        workload.setup()
        warm_up = getattr(workload, "warm_up", workload.run)
        warm_up(workload.prepare(WARMUP_KEY + rep), null)  # one untimed op
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    reference = Reference()
    reference.sample(3 * REF_SAMPLES)
    tracer = tracing.Tracer()
    samples: dict = {}
    op_times, traced_times, failures = [], [], []
    attempted = failed = completed = traced_ops = 0
    timed = 0.0
    # A traced run also needs at least one traced and one untraced op.
    while timed < args.seconds or (args.trace and not (traced_ops and op_times)):
        i = attempted
        inp = workload.prepare(i)
        traced = args.trace == 1 and (i // 2) % 2 == 1  # ops alternate in pairs: alpha 3 and 0.5
        if traced:
            tracer.op = i
            tracer.install(fdvar)
        attempted += 1
        start = time.perf_counter()
        try:
            out, times = workload.run(inp, tracer if traced else null)
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            timed += time.perf_counter() - start
            failed += 1
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        timed += elapsed
        completed += 1
        if traced:
            traced_ops += 1
            traced_times.append(elapsed)
        else:
            op_times.append(elapsed)
            for key, values in times.items():
                samples.setdefault(key, []).extend(values)
        reference.sample(REF_SAMPLES)
        problems = workload.check(inp, out, args.inject_fault and i == 0)
        if problems:
            failed += 1
            failures.extend(f"op {i}: {p}" for p in problems)

    e2e = end_to_end(samples, op_times, completed, attempted, failed, setup_s, reference)
    report = {name: e2e[name] for name, m in spec["end_to_end"].items() if args.workload in m["workloads"]}
    layers = {}
    if args.trace:
        computed = tracing.layer_metrics(tracer, traced_ops)
        overhead = None
        if traced_times and op_times:
            overhead = statistics.median(traced_times) / statistics.median(op_times) - 1.0
        computed["trace.overhead"] = (overhead, len(traced_times))
        missing = set(spec["per_layer"]) ^ set(computed)
        if missing:
            raise RuntimeError(f"metrics.json and tracing.py disagree on {sorted(missing)}")
        layers = {
            name: computed[name]
            for name, m in spec["per_layer"].items()
            if m.get("all_workloads") or args.workload in m["workloads"]
        }

    result = {
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "op_times": op_times,
        "ref_samples": reference.samples,
        "end_to_end": {k: metric_record(v, spec["end_to_end"][k]["unit"]) for k, v in report.items()},
        "per_layer": {k: metric_record(v, spec["per_layer"][k]["unit"]) for k, v in layers.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        start = tracer.spans[0][1] if tracer.spans else 0.0
        spans = [[n, s - start, e - start, p, op, c] for n, s, e, p, op, c in tracer.spans]
        (OUT / f"trace-{stem}.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "op", "counts"], "spans": spans}) + "\n"
        )
    print_report(result)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    table = result["per_layer"] if args.trace else result["end_to_end"]
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": table[m["name"]]["value"], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(line))
    return 0


def metric_record(entry, unit) -> dict:
    value, n, *note = entry
    record = {"value": value, "unit": unit, "n": n}
    if note and note[0]:
        record["note"] = note[0]
    return record


def print_report(result) -> None:
    env = result["env"]
    print(f"fdvar benchmark: workload={result['workload']} size={result['size']} seed={env['seed']} "
          f"seconds={result['seconds']:g} trace={result['trace']}")
    print("env: " + " ".join(f"{k}={env[k]}" for k in env if k != "fingerprint"))
    for section in ("end_to_end", "per_layer"):
        if result[section]:
            print(f"{section}:")
        for name, m in result[section].items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            note = f"  ({m['note']})" if "note" in m else ""
            print(f"  {name:32s} {value:>14s} {m['unit']:9s} n={m['n']}{note}")
    print(f"checks: {result['attempted']} ops attempted, {result['failed']} failed")
    for failure in result["failures"][:20]:
        print(f"  FAIL {failure}")


if __name__ == "__main__":
    sys.exit(main())
