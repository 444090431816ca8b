"""Spans around fdvar's public functions, recorded from outside the package.

``install`` replaces each traced function with a wrapper at every place the
package binds it (``cli`` and ``verify`` import ``fit`` by name, for
example), and ``uninstall`` puts the originals back; nothing under ``src/``
is edited.  Each span is ``[name, start, end, parent, op, counts]``; spans
stay in memory until the run ends.  Health numbers (the normal-equation
residual ratio, the Hermitian defect, the imaginary residue, subcritical
pair counts) are computed inside ``trace.health`` spans with recording
suspended, so that no layer is charged for them; their time is part of the
reported tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

HEALTH = "trace.health"

# module attribute -> span name; point_evaluations is named by its caller.
_FUNCTIONS = {
    ("solver", "fit"): "solver.fit",
    ("solver", "assemble"): "solver.assemble",
    ("solver", "solve_dual"): "solver.dual",
    ("solver", "solve_direct"): "solver.direct",
    ("solver", "solve_svd"): "solver.svd",
    ("solver", "_check_normal_residual"): "solver.normal_check",
    ("core", "point_evaluations"): None,
    ("core", "sobolev_objective"): "core.objective",
    ("io", "load_config"): "io.load",
    ("io", "load_dataset"): "io.load",
    ("io", "load_model"): "io.load",
    ("io", "save_model"): "io.save_model",
    ("io", "write_csv"): "io.write_csv",
    ("io", "write_json"): "io.write_json",
    ("io", "atomic_write_text"): "io.atomic_write",
    ("io", "dataset_hash"): "io.dataset_hash",
    ("closed_form", "reconstruction"): "closed_form.reconstruction",
    ("critical", "gaussian_sobolev_norm"): "critical.norm",
    ("critical", "trichotomy_sweep"): "critical.sweep",
    ("subcritical", "build_interpolant"): "subcritical.build",
    ("subcritical", "interpolant_sobolev_norm"): "subcritical.norm",
    ("verify", "run_verification"): "verify.run",
}
_METHODS = {
    ("grid", "FrequencyGrid", "lattice"): "grid.lattice",
    ("grid", "FrequencyGrid", "negation_permutation"): "grid.negation",
    ("core", "SpectralCoefficients", "hermitian_projected"): "core.project",
}
_MODULES = ("grid", "core", "solver", "io", "closed_form", "critical", "subcritical", "verify", "cli")


class Tracer:
    """Records spans while ``recording``; a disabled tracer's ``span`` costs one check."""

    def __init__(self):
        self.spans: list[list] = []
        self.health: dict[str, list[float]] = {}
        self.op = None
        self.recording = False
        self._stack: list[int] = []
        self._restore: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, {}])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    @contextlib.contextmanager
    def measuring_health(self):
        idx = self.open(HEALTH)
        self.recording = False
        try:
            yield
        finally:
            self.recording = True
            self.close(idx)

    def note(self, key: str, value: float) -> None:
        self.health.setdefault(key, []).append(float(value))

    # -- installing wrappers -------------------------------------------------
    def install(self, fdvar) -> None:
        modules = [fdvar, *(getattr(fdvar, m) for m in _MODULES)]
        wrappers = {}
        for (mod, attr), name in _FUNCTIONS.items():
            original = getattr(getattr(fdvar, mod), attr)
            wrappers[original] = self._wrap(original, name)
        for module in modules:
            for key, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._restore.append((module, key, value))
                    setattr(module, key, wrappers[value])
        for (mod, cls_name, attr), name in _METHODS.items():
            cls = getattr(getattr(fdvar, mod), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))
        # Tables of functions: fit dispatches through _BACKENDS, verify runs
        # its _CHECKS; each gets a wrapped copy for the traced op.
        solver, verify = fdvar.solver, fdvar.verify
        self._restore.append((solver, "_BACKENDS", solver._BACKENDS))
        solver._BACKENDS = {key: wrappers.get(fn, fn) for key, fn in solver._BACKENDS.items()}
        self._restore.append((verify, "_CHECKS", verify._CHECKS))
        verify._CHECKS = [(n, self._wrap(fn, f"verify.{n}")) for n, fn in verify._CHECKS]
        self.recording = True

    def uninstall(self) -> None:
        self.recording = False
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def _wrap(self, fn, name):
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if before is not None:
                with self.measuring_health():
                    before(self, args)
            span_name = name or (
                "core.residual_eval" if self.parent_name() == "solver.fit" else "core.eval"
            )
            idx = self.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                with self.measuring_health():
                    after(self, self.spans[idx], args, result)
            return result

        return wrapper


# -- counts and health numbers taken at the span boundaries --------------------
def _assembled(tracer, span, args, system):
    n, G = system.matrix.shape
    span[5]["exps"] = n * G
    span[5]["mib"] = n * G * system.matrix.itemsize / 2**20


def _dual_solved(tracer, span, args, phi):
    system = args[0]
    if system.lam <= 0:
        return
    A = system.matrix
    gradient = A.conj().T @ (A @ phi - system.rhs) + system.lam * system.weights * phi
    reference = np.linalg.norm(A.conj().T @ system.rhs)
    tracer.note("normal_residual_ratio", np.linalg.norm(gradient) / reference)


def _before_projection(tracer, args):
    coeffs = args[0]
    scale = max(float(np.abs(coeffs.values).max(initial=0.0)), 1e-300)
    tracer.note("hermitian_defect", coeffs.hermitian_defect() / scale)


def _evaluated(tracer, span, args, values):
    span[5]["phases"] = len(values) * args[0].grid.size
    if span[0] == "core.eval" and len(values):
        tracer.note("imag_residue", np.max(np.abs(values.imag)))


def _reconstructed(tracer, span, args, values):
    span[5]["cos_terms"] = args[0].M * len(values)


def _normed(tracer, span, args, value):
    X = args[0].data.X
    distances = np.sqrt(np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2))
    span[5]["pairs"] = distances.size
    span[5]["pair_terms"] = len(np.unique(np.round(distances, 12)))


def _written(tracer, span, args, result):
    span[5]["bytes"] = len(args[1])


_HOOKS = {
    "solver.assemble": (None, _assembled),
    "solver.dual": (None, _dual_solved),
    "core.project": (_before_projection, None),
    None: (None, _evaluated),
    "closed_form.reconstruction": (None, _reconstructed),
    "subcritical.norm": (None, _normed),
    "io.atomic_write": (None, _written),
}


# -- per-layer metrics -----------------------------------------------------------
VERIFY_CHECKS = (
    "closed-form-oracle",
    "critical-constants",
    "moment-identities",
    "backend-agreement",
    "band-limit-overlap",
    "subcritical-spike",
    "construction-decay",
    "penalty-relaxation",
)


class _Totals:
    """Self and inclusive time, calls and counts per span name over the traced ops."""

    def __init__(self, spans):
        n = len(spans)
        children = [0.0] * n
        health = [0.0] * n
        for i in range(n - 1, -1, -1):  # a child always follows its parent
            name, start, end, parent, _op, _counts = spans[i]
            if parent is not None:
                children[parent] += end - start
                health[parent] += health[i] + (end - start if name == HEALTH else 0.0)
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[tuple[str, str], float] = {}
        self.mib = 0.0
        self.largest_norm = {"pairs": 0, "pair_terms": 0}
        self.fit_builds = 0
        for i, (name, start, end, parent, _op, counts) in enumerate(spans):
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start) - children[i]
            self.incl_s[name] = self.incl_s.get(name, 0.0) + (end - start) - health[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            for key, value in counts.items():
                self.counts[(name, key)] = self.counts.get((name, key), 0) + value
            self.mib = max(self.mib, counts.get("mib", 0.0))
            if counts.get("pairs", 0) > self.largest_norm["pairs"]:
                self.largest_norm = counts
            if name == "grid.lattice" and _has_ancestor(spans, i, "solver.fit"):
                self.fit_builds += 1

    def cli_self(self) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith("cli."))


def _has_ancestor(spans, i, name) -> bool:
    parent = spans[i][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _div(a, b):
    return a / b if b else None


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float | None, int]]:
    """Every per-layer metric as ``(value, samples)``; times and counts are per traced op."""
    t = _Totals(tracer.spans)
    per_op = lambda v: _div(v, ops)
    calls = t.calls.get
    count = lambda name, key: t.counts.get((name, key), 0)
    worst = lambda key: (max(tracer.health[key]), len(tracer.health[key])) if key in tracer.health else (None, 0)
    self_s = lambda name: (per_op(t.self_s.get(name, 0.0)), calls(name, 0))
    incl_s = lambda name: (per_op(t.incl_s.get(name, 0.0)), calls(name, 0))
    fits = calls("solver.fit", 0)
    pairs, terms = t.largest_norm["pairs"], t.largest_norm["pair_terms"]
    norms = calls("subcritical.norm", 0)
    metrics = {
        "grid.lattice_s": self_s("grid.lattice"),
        "grid.lattice_builds": (_div(t.fit_builds, fits), fits),
        "grid.negation_s": self_s("grid.negation"),
        "solver.assemble_s": self_s("solver.assemble"),
        "solver.assemble_exps": (per_op(count("solver.assemble", "exps")), calls("solver.assemble", 0)),
        "solver.assemble_mib": (t.mib if calls("solver.assemble") else None, calls("solver.assemble", 0)),
        "solver.dual_s": incl_s("solver.dual"),
        "solver.normal_check_s": self_s("solver.normal_check"),
        "solver.normal_residual_ratio": worst("normal_residual_ratio"),
        "core.project_s": self_s("core.project"),
        "core.residual_eval_s": self_s("core.residual_eval"),
        "core.objective_s": self_s("core.objective"),
        "core.eval_s": self_s("core.eval"),
        "core.eval_phases": (per_op(count("core.eval", "phases")), calls("core.eval", 0)),
        "core.hermitian_defect": worst("hermitian_defect"),
        "core.imag_residue": worst("imag_residue"),
        "io.load_s": incl_s("io.load"),
        "io.save_model_s": incl_s("io.save_model"),
        "io.write_csv_s": incl_s("io.write_csv"),
        "io.dataset_hash_s": incl_s("io.dataset_hash"),
        "io.bytes_written": (per_op(count("io.atomic_write", "bytes")), calls("io.atomic_write", 0)),
        "closed_form.reconstruction_s": self_s("closed_form.reconstruction"),
        "closed_form.cos_terms": (
            per_op(count("closed_form.reconstruction", "cos_terms")),
            calls("closed_form.reconstruction", 0),
        ),
        "critical.norm_s": (_div(t.self_s.get("critical.norm", 0.0), calls("critical.norm", 0)), calls("critical.norm", 0)),
        "critical.norm_calls": (per_op(calls("critical.norm", 0)), ops),
        "subcritical.build_s": self_s("subcritical.build"),
        "subcritical.norm_s": self_s("subcritical.norm"),
        "subcritical.pairs": (pairs if norms else None, norms),
        "subcritical.pair_terms": (terms if norms else None, norms),
        "subcritical.pair_reuse": (1.0 - terms / pairs if pairs else None, norms),
        "cli.self_s": (per_op(t.cli_self()), sum(v for k, v in t.calls.items() if k.startswith("cli."))),
        "fit.self_s": self_s("solver.fit"),
        "fit.span_cover": (
            1.0 - t.self_s["solver.fit"] / t.incl_s["solver.fit"] if fits else None,
            fits,
        ),
        "trace.health_s": (per_op(sum(end - start for name, start, end, *_ in tracer.spans if name == HEALTH)), ops),
    }
    for check in VERIFY_CHECKS:
        metrics[f"verify.{check}_s"] = incl_s(f"verify.{check}")
    return metrics
