"""Per-layer spans recorded from outside the program.

The tracer replaces public functions at the module attributes where their
callers look them up (``agghb.harness.step``, ``agghb.problems.spectral_norm``,
...) with timing wrappers, and wraps each built ``Problem``'s ``value`` and
``gradient`` with ``dataclasses.replace``.  Nothing in the package changes;
``uninstall`` puts every original back.

Spans are aggregated as they close (calls, total and self time per name,
busy time per layer) instead of being stored, because one pass closes tens
of millions of them.  ``agghb tune`` runs its grid on a thread pool, so the
bookkeeping is per thread and merged on read.  Spans closed while a tune is
open are kept under a ``tune:`` prefix: the single-threaded figures (per-call
times, per-iterate costs) then exclude the pool's lock contention, and the
tune layer is described by its own metrics.

A target that no longer exists is not an error: every metric that depends on
it is reported as absent, naming the missing attribute.
"""

from __future__ import annotations

import dataclasses
import importlib
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name, layer).  A function bound under two modules
# is wrapped at both, under one span name.
TARGETS = (
    ("agghb.cli", "load_libsvm", "libsvm.load_libsvm", "libsvm"),
    ("agghb.harness", "load_libsvm", "libsvm.load_libsvm", "libsvm"),
    ("agghb.harness", "to_dataset", "libsvm.to_dataset", "libsvm"),
    ("agghb.problems", "spectral_norm", "problems.spectral_norm", "problems"),
    ("agghb.harness", "init", "optim.init", "optim"),
    ("agghb.harness", "step", "optim.step", "optim"),
    ("agghb.harness", "virtual_iterate", "optim.virtual_iterate", "optim"),
    ("agghb.harness", "averaging_update", "optim.averaging_update", "optim"),
    ("agghb.theory", "constants", "theory.constants", "theory"),
    ("agghb.theory", "effective_betas", "theory.effective_betas", "theory"),
    ("agghb.theory", "check_nonconvex_condition", "theory.check_nonconvex_condition", "theory"),
    ("agghb.theory", "check_convex_conditions", "theory.check_convex_conditions", "theory"),
    ("agghb.theory", "stepsize_nonconvex", "theory.stepsize_nonconvex", "theory"),
    ("agghb.theory", "stepsize_convex", "theory.stepsize_convex", "theory"),
    ("agghb.theory", "bound_nonconvex", "theory.bound_nonconvex", "theory"),
    ("agghb.theory", "bound_convex", "theory.bound_convex", "theory"),
    ("agghb.harness", "build_problem", "harness.build_problem", "harness"),
    ("agghb.harness", "run", "harness.run", "harness"),
    ("agghb.harness", "tune", "harness.tune", "harness"),
    ("agghb.harness", "reference_solution", "harness.reference_solution", "harness"),
    ("agghb.harness", "verify_bounds", "harness.verify_bounds", "harness"),
    ("agghb.harness", "export_trace", "harness.export_trace", "harness"),
    ("agghb.harness", "read_trace", "harness.read_trace", "harness"),
)

# Spans whose open/closed state other spans are attributed to.
SCOPES = ("harness.run", "harness.reference_solution")
TUNE = "harness.tune"
TUNE_PREFIX = "tune:"


class _ThreadState:
    def __init__(self):
        self.stack: list[list[float]] = []  # one [child seconds] per open span
        self.depth = defaultdict(int)       # open spans per layer
        self.open = defaultdict(int)        # open spans per scope name
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.busy = defaultdict(float)      # outermost-span time per layer
        self.scoped = defaultdict(int)      # (scope, name) -> calls
        self.scoped_busy = defaultdict(float)  # (scope, layer) -> busy seconds


class Tracer:
    """Installs timing wrappers; reads back aggregated span statistics."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        self._tune_open = 0  # set only by the thread that runs tune
        self.missing: dict[str, str] = {}  # span name -> missing dotted target
        # Facts read from return values, main thread only.
        self.run_iters = 0
        self.tune_points = 0
        self.tune_useful = 0
        self.certificates: list[float] = []
        self.trace_bytes = 0
        self.objective_flops = 0.0
        self.objective_seconds = 0.0
        self.flops_per_matvec: dict[str, float] = {}  # data path -> flops

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, layer in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.setdefault(name, module_name)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.setdefault(name, f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, layer, _AFTER.get(name)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def register_data(self, path: str, M: int, n: int, nnz: int) -> None:
        """Computed flops of one matvec on a data file: 2*nnz on the sparse
        branch, 2*M*n on the dense fallback the program takes for narrow
        matrices."""
        try:
            dense_cols = importlib.import_module("agghb.problems")._DENSE_FALLBACK_COLS
        except (ImportError, AttributeError):
            self.missing.setdefault("flops", "agghb.problems._DENSE_FALLBACK_COLS")
            return
        self.flops_per_matvec[path] = 2.0 * (M * n if n <= dense_cols else nnz)

    def wrap_op(self, fn):
        """Span around one CLI invocation; its self time is the CLI's own."""
        return self._wrap(fn, "cli.main", "cli", None)

    # -- span bookkeeping -------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            self._states.append(st)
        return st

    def _wrap(self, fn, name, layer, after):
        tracer = self
        clock = time.perf_counter
        is_tune = name == TUNE

        def wrapped(*args, **kwargs):
            st = tracer._state()
            frame = [0.0]
            st.stack.append(frame)
            st.depth[layer] += 1
            st.open[name] += 1
            if is_tune:
                tracer._tune_open += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if is_tune:
                    tracer._tune_open -= 1
                st.stack.pop()
                st.depth[layer] -= 1
                st.open[name] -= 1
                prefix = TUNE_PREFIX if tracer._tune_open else ""
                key = prefix + name
                st.calls[key] += 1
                st.total[key] += dt
                st.self_time[key] += dt - frame[0]
                if st.stack:
                    st.stack[-1][0] += dt
                outermost = st.depth[layer] == 0
                if outermost:
                    st.busy[prefix + layer] += dt
                for scope in SCOPES:
                    if st.open[scope]:
                        st.scoped[scope, key] += 1
                        if outermost:
                            st.scoped_busy[scope, prefix + layer] += dt
            if after is not None:
                result = after(tracer, result, args, kwargs, dt)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _wrap_objective(self, fn, name, flops_per_call):
        """Problem callables: the span plus the computed-flop tally."""

        def tally(tracer, out, args, kwargs, dt):
            if not tracer._tune_open:
                tracer.objective_seconds += dt
                tracer.objective_flops += flops_per_call
            return out

        return self._wrap(fn, name, "problems", tally if flops_per_call else None)

    # -- reading ----------------------------------------------------------

    def merged(self):
        calls, total, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
        busy, scoped, scoped_busy = defaultdict(float), defaultdict(int), defaultdict(float)
        for st in self._states:
            for src, dst in ((st.calls, calls), (st.total, total),
                             (st.self_time, self_time), (st.busy, busy),
                             (st.scoped, scoped), (st.scoped_busy, scoped_busy)):
                for k, v in src.items():
                    dst[k] += v
        return calls, total, self_time, busy, scoped, scoped_busy


# -- hooks on return values -------------------------------------------------

def _after_build_problem(tracer: Tracer, problem, args, kwargs, dt):
    if not dataclasses.is_dataclass(problem):
        tracer.missing.setdefault("problems.value", "agghb.problems.Problem (not a dataclass)")
        tracer.missing.setdefault("problems.gradient", "agghb.problems.Problem (not a dataclass)")
        return problem
    params = args[1] if len(args) > 1 else kwargs.get("params", {})
    per_matvec = tracer.flops_per_matvec.get(str(params.get("data")), 0.0)
    changes = {}
    for field, matvecs in (("value", 1), ("gradient", 2)):
        fn = getattr(problem, field, None)
        if fn is None:
            tracer.missing.setdefault(f"problems.{field}", f"agghb.problems.Problem.{field}")
            continue
        changes[field] = tracer._wrap_objective(fn, f"problems.{field}", matvecs * per_matvec)
    return dataclasses.replace(problem, **changes) if changes else problem


def _after_run(tracer: Tracer, trace, args, kwargs, dt):
    if not tracer._tune_open:
        f = getattr(trace, "f", None)
        if f is None:
            tracer.missing.setdefault("harness.run.iters", "agghb.harness.Trace.f")
        else:
            tracer.run_iters += len(f)
    return trace


def _after_tune(tracer: Tracer, result, args, kwargs, dt):
    try:
        _, sweep = result
        tracer.tune_points += len(sweep)
        tracer.tune_useful += sum(1 for e in sweep if not e.diverged)
    except (TypeError, ValueError, AttributeError):
        tracer.missing.setdefault("harness.tune.sweep", "agghb.harness.SweepEntry.diverged")
    return result


def _after_reference(tracer: Tracer, ref, args, kwargs, dt):
    gnorm = getattr(ref, "grad_norm", None)
    if gnorm is None:
        tracer.missing.setdefault("harness.reference_solution.certificate",
                                  "agghb.harness.Reference.grad_norm")
    else:
        tracer.certificates.append(float(gnorm))
    return ref


def _after_export(tracer: Tracer, paths, args, kwargs, dt):
    try:
        tracer.trace_bytes += sum(Path(p).stat().st_size for p in paths)
    except (TypeError, OSError):
        tracer.missing.setdefault("harness.trace.bytes", "agghb.harness.export_trace paths")
    return paths


_AFTER = {
    "harness.build_problem": _after_build_problem,
    "harness.run": _after_run,
    "harness.tune": _after_tune,
    "harness.reference_solution": _after_reference,
    "harness.export_trace": _after_export,
}


# -- per-layer metrics --------------------------------------------------------

# metric -> (unit, span names it needs)
PER_LAYER = {
    "libsvm.load_libsvm.s": ("s", ("libsvm.load_libsvm",)),
    "libsvm.to_dataset.s": ("s", ("libsvm.to_dataset",)),
    "libsvm.load_libsvm.calls": ("count", ("libsvm.load_libsvm",)),
    "problems.spectral_norm.s": ("s", ("problems.spectral_norm",)),
    "problems.spectral_norm.calls": ("count", ("problems.spectral_norm",)),
    "problems.value.us": ("us", ("problems.value",)),
    "problems.gradient.us": ("us", ("problems.gradient",)),
    "problems.value.calls_per_iter": ("count", ("problems.value", "harness.run", "harness.run.iters")),
    "problems.gradient.calls_per_iter": ("count", ("problems.gradient", "harness.run", "harness.run.iters")),
    "problems.objective.gflops": ("GFLOP/s-calc", ("problems.value", "problems.gradient", "flops")),
    "optim.step.us": ("us", ("optim.step",)),
    "optim.virtual_iterate.us": ("us", ("optim.virtual_iterate",)),
    "optim.averaging_update.us": ("us", ("optim.averaging_update",)),
    "optim.busy_frac": ("frac", ("optim.init", "optim.step", "optim.virtual_iterate",
                                 "optim.averaging_update", "harness.run")),
    "theory.busy_s": ("s", tuple(t[2] for t in TARGETS if t[3] == "theory")),
    "harness.run.us_per_iter": ("us", ("harness.run", "harness.run.iters")),
    "harness.run.self_us_per_iter": ("us", ("harness.run", "harness.run.iters")),
    "harness.tune.s_per_point": ("s", ("harness.tune", "harness.tune.sweep")),
    "harness.tune.useful_frac": ("frac", ("harness.tune", "harness.tune.sweep")),
    "harness.tune.grad_calls": ("count", ("harness.tune", "problems.gradient")),
    "harness.reference_solution.s": ("s", ("harness.reference_solution",)),
    "harness.reference_solution.grad_calls": ("count", ("harness.reference_solution", "problems.gradient")),
    "harness.reference_solution.certificate": ("norm", ("harness.reference_solution",
                                                        "harness.reference_solution.certificate")),
    "harness.build_problem.s": ("s", ("harness.build_problem",)),
    "harness.verify_bounds.ms": ("ms", ("harness.verify_bounds", "harness.reference_solution")),
    "harness.export_trace.s": ("s", ("harness.export_trace",)),
    "harness.read_trace.s": ("s", ("harness.read_trace",)),
    "harness.trace.bytes": ("bytes", ("harness.export_trace", "harness.trace.bytes")),
    "cli.self_s": ("s", ("cli.main",)),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Per-layer figures of one traced pass, or absence records naming the
    missing target.  Figures for layers a workload never enters read 0."""
    calls, total, self_time, busy, scoped, scoped_busy = tracer.merged()
    iters = tracer.run_iters
    t = TUNE_PREFIX
    values = {
        "libsvm.load_libsvm.s": total["libsvm.load_libsvm"],
        "libsvm.to_dataset.s": total["libsvm.to_dataset"],
        "libsvm.load_libsvm.calls": calls["libsvm.load_libsvm"],
        "problems.spectral_norm.s": total["problems.spectral_norm"],
        "problems.spectral_norm.calls": calls["problems.spectral_norm"],
        "problems.value.us": 1e6 * _ratio(total["problems.value"], calls["problems.value"]),
        "problems.gradient.us": 1e6 * _ratio(total["problems.gradient"], calls["problems.gradient"]),
        "problems.value.calls_per_iter": _ratio(scoped["harness.run", "problems.value"], iters),
        "problems.gradient.calls_per_iter": _ratio(scoped["harness.run", "problems.gradient"], iters),
        "problems.objective.gflops": 1e-9 * _ratio(tracer.objective_flops, tracer.objective_seconds),
        "optim.step.us": 1e6 * _ratio(total["optim.step"], calls["optim.step"]),
        "optim.virtual_iterate.us": 1e6 * _ratio(total["optim.virtual_iterate"],
                                                 calls["optim.virtual_iterate"]),
        "optim.averaging_update.us": 1e6 * _ratio(total["optim.averaging_update"],
                                                  calls["optim.averaging_update"]),
        "optim.busy_frac": _ratio(scoped_busy["harness.run", "optim"], total["harness.run"]),
        "theory.busy_s": busy["theory"] + busy[t + "theory"],
        "harness.run.us_per_iter": 1e6 * _ratio(total["harness.run"], iters),
        "harness.run.self_us_per_iter": 1e6 * _ratio(self_time["harness.run"], iters),
        "harness.tune.s_per_point": _ratio(total[TUNE], tracer.tune_points),
        "harness.tune.useful_frac": _ratio(tracer.tune_useful, tracer.tune_points),
        "harness.tune.grad_calls": calls[t + "problems.gradient"],
        "harness.reference_solution.s": total["harness.reference_solution"],
        "harness.reference_solution.grad_calls":
            scoped["harness.reference_solution", "problems.gradient"],
        "harness.reference_solution.certificate": max(tracer.certificates, default=0.0),
        "harness.build_problem.s": total["harness.build_problem"],
        "harness.verify_bounds.ms": 1e3 * _ratio(
            total["harness.verify_bounds"] - total["harness.reference_solution"],
            calls["harness.verify_bounds"]),
        "harness.export_trace.s": total["harness.export_trace"],
        "harness.read_trace.s": total["harness.read_trace"],
        "harness.trace.bytes": tracer.trace_bytes,
        "cli.self_s": self_time["cli.main"],
    }
    out = {}
    for metric, (unit, needs) in PER_LAYER.items():
        gone = sorted({tracer.missing[n] for n in needs if n in tracer.missing})
        if gone:
            out[metric] = {"value": None, "unit": unit, "absent": "missing " + ", ".join(gone)}
        else:
            out[metric] = {"value": values[metric], "unit": unit}
    return out
