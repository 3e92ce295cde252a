"""In-memory span tracer that wraps thermodual's public functions from outside.

Each hook replaces one attribute where its callers look it up (a module
global such as `thermodual.optimize.thermal_state`, or a method on a class)
with a wrapper that records a span: name, start, end, parent span and
experiment id, plus a few counts taken from the arguments or the result.
The hooks record only while `Tracer.active` is set, so the harness's own
correctness checks do not show up in the trace.  Nothing inside the package
changes.

A hook whose target no longer exists is skipped and listed in `missing`, so
a refactor that renames an internal function loses that span instead of
breaking the benchmark; counts that can no longer be read are listed there
too.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# span fields, kept as lists for low overhead
NAME, START, END, PARENT, EXPERIMENT, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.experiment = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.experiment, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list):
        span[END] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own (used for the per-experiment root span)."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrapper(self, name, fn, attrs=None, when=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or (when is not None and not when(args)):
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                try:
                    span[ATTRS] = attrs(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the call's signature or result changed: keep the span, lose its counts
                    if f"{name} counts" not in tracer.missing:
                        tracer.missing.append(f"{name} counts")
            return result

        return traced

    # -- installing hooks ----------------------------------------------------

    def hook(self, owner, attr: str, name: str, attrs=None, when=None):
        """Replace owner.attr (a module or class attribute) with a traced wrapper."""
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(label)
            return
        self._restore.append((owner, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self._wrapper(name, raw.__func__, attrs, when)))
        else:
            setattr(owner, attr, self._wrapper(name, raw, attrs, when))

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def write(self, path: Path):
        """Write every span once, one JSON object per line, gzip-compressed."""
        keys = ("name", "start", "end", "parent", "experiment", "attrs")
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _observable_work(args, kwargs, result):
    names = ("rho", "obs", "shots_per_term")
    bound = {**dict(zip(names, args)), **kwargs}
    terms = len(bound["obs"].terms)
    return {"terms": terms, "draws": terms * bound["shots_per_term"]}


def install_thermodual_hooks(tracer: Tracer):
    """Hook every layer boundary the per-layer metrics are derived from."""
    from thermodual import encoding, gibbs, operators, shots

    hook = tracer.hook
    hook("thermodual.cli", "build_system", "models.build")
    hook("thermodual.cli", "dual_eigenvalue_solve", "oracle.dual_solve",
         attrs=lambda a, k, r: {"low_confidence": int(bool(r.low_confidence))})
    hook("thermodual.cli", "run", "optimize.run",
         attrs=lambda a, k, r: {"iterations": r.iterations,
                             "fallback": sum(1 for rec in r.records if rec.fallback)})
    hook("thermodual.cli", "_encoded_fidelity", "cli.fidelity")
    hook("thermodual.oracle", "effective_hamiltonian", "oracle.effective_hamiltonian")
    for module in ("thermodual.optimize", "thermodual.cli", "thermodual.shots"):
        hook(module, "thermal_state", "gibbs.thermal_state")
    hook(gibbs.SpectralDecomposition, "of", "gibbs.eigh",
         attrs=lambda a, k, r: {"d3": len(a[0] if a else k["matrix"]) ** 3})
    hook("thermodual.optimize", "hessian_exact", "gibbs.hessian_exact")
    hook("thermodual.optimize", "objective_f", "gibbs.objective_f")
    hook(operators.PauliString, "to_dense", "operators.pauli_dense")
    # only cache fills: the cached lookups cost nothing worth a span
    hook(operators.Observable, "to_dense", "operators.observable_dense",
         when=lambda a: getattr(a[0], "_dense", None) is None)
    for module in ("thermodual.optimize", "thermodual.gibbs"):
        hook(module, "expectation", "operators.expectation")
    hook("thermodual.shots", "estimate_observable", "shots.estimate_observable",
         attrs=_observable_work)
    hook(shots.ShotEstimator, "hessian", "shots.estimate_hessian",
         attrs=lambda a, k, r: {"samples": a[0].shots_per_hessian_eval})
    hook(shots.ShotEstimator, "__init__", "shots.estimator_init")
    for attr, value in list(vars(encoding).items()):
        if (
            not attr.startswith("_")
            and callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == encoding.__name__
        ):
            hook(encoding, attr, "encoding.call")
    hook(encoding.LogicalTarget, "from_coefficients", "encoding.call")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit) in the order printed; BENCHMARK.json lists the same names
LAYER_METRICS = (
    ("gibbs.thermal_state.calls", "count"), ("gibbs.thermal_state.s", "s"),
    ("gibbs.eigh.calls", "count"), ("gibbs.eigh.s", "s"), ("gibbs.eigh.d3", "count"),
    ("gibbs.hessian_exact.calls", "count"), ("gibbs.hessian_exact.s", "s"),
    ("gibbs.objective_f.calls", "count"), ("gibbs.objective_f.s", "s"),
    ("gibbs.self_s", "s"),
    ("oracle.dual_solve.calls", "count"), ("oracle.dual_solve.s", "s"),
    ("oracle.eig_calls", "count"), ("oracle.low_confidence", "count"),
    ("oracle.self_s", "s"),
    ("operators.pauli_dense.calls", "count"), ("operators.pauli_dense.s", "s"),
    ("operators.observable_dense.fills", "count"), ("operators.observable_dense.s", "s"),
    ("operators.expectation.calls", "count"), ("operators.expectation.s", "s"),
    ("operators.self_s", "s"),
    ("shots.estimate_observable.calls", "count"), ("shots.estimate_observable.s", "s"),
    ("shots.terms", "count"), ("shots.draws", "count"),
    ("shots.estimate_hessian.calls", "count"), ("shots.estimate_hessian.s", "s"),
    ("shots.hessian_samples", "count"), ("shots.estimator_init.s", "s"),
    ("shots.shots_per_s", "1/s"), ("shots.self_s", "s"),
    ("optimize.solves", "count"), ("optimize.evals", "count"),
    ("optimize.useful_eval_ratio", "ratio"), ("optimize.fallback_steps", "count"),
    ("optimize.self_s", "s"),
    ("models.build.calls", "count"), ("models.build.s", "s"), ("models.self_s", "s"),
    ("encoding.calls", "count"), ("encoding.s", "s"),
    ("cli.fidelity.s", "s"), ("cli.self_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_frac", "fraction"),
)

# span names reported as `<name>.calls` and `<name>.s`
_COUNTED = (
    "gibbs.thermal_state", "gibbs.eigh", "gibbs.hessian_exact", "gibbs.objective_f",
    "oracle.dual_solve", "operators.pauli_dense", "operators.expectation",
    "shots.estimate_observable", "shots.estimate_hessian", "models.build",
)


def layer_metrics(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer counts and seconds over spans[lo:hi] (one traced round).

    `<layer>.<fn>.s` is inclusive span time; `<layer>.self_s` sums, over all
    spans of that module, the span time minus the time its child spans
    cover.  `cli.self_s` is the experiment time outside every hooked call.
    """
    calls = defaultdict(int)
    seconds = defaultdict(float)
    attr_sums = defaultdict(float)
    child_time = defaultdict(float)
    for span in spans[lo:hi]:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    self_s = defaultdict(float)
    evals = 0
    encoding_calls = 0
    encoding_s = 0.0
    root_self = 0.0
    for index in range(lo, hi):
        span = spans[index]
        name = span[NAME]
        duration = span[END] - span[START]
        own = duration - child_time[index]
        calls[name] += 1
        seconds[name] += duration
        self_s[name.split(".")[0]] += own
        if span[ATTRS]:
            for key, value in span[ATTRS].items():
                attr_sums[f"{name}:{key}"] += value
        parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
        if name == "cli.run_experiment":
            root_self += own
        elif name == "gibbs.thermal_state" and parent == "optimize.run":
            evals += 1
        elif name == "encoding.call" and parent != "encoding.call":
            encoding_calls += 1
            encoding_s += duration

    out: dict[str, float] = {}
    for name in _COUNTED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = seconds[name]
    out["gibbs.eigh.d3"] = attr_sums["gibbs.eigh:d3"]
    out["oracle.eig_calls"] = calls["oracle.effective_hamiltonian"]
    out["oracle.low_confidence"] = attr_sums["oracle.dual_solve:low_confidence"]
    out["operators.observable_dense.fills"] = calls["operators.observable_dense"]
    out["operators.observable_dense.s"] = seconds["operators.observable_dense"]
    out["shots.terms"] = attr_sums["shots.estimate_observable:terms"]
    out["shots.draws"] = attr_sums["shots.estimate_observable:draws"]
    out["shots.hessian_samples"] = attr_sums["shots.estimate_hessian:samples"]
    out["shots.estimator_init.s"] = seconds["shots.estimator_init"]
    iterations = attr_sums["optimize.run:iterations"]
    out["optimize.solves"] = calls["optimize.run"]
    out["optimize.evals"] = evals
    out["optimize.useful_eval_ratio"] = iterations / evals if evals else 0.0
    out["optimize.fallback_steps"] = attr_sums["optimize.run:fallback"]
    out["encoding.calls"] = encoding_calls
    out["encoding.s"] = encoding_s
    out["cli.fidelity.s"] = seconds["cli.fidelity"]
    out["cli.self_s"] = root_self
    for module in ("gibbs", "oracle", "operators", "shots", "optimize", "models"):
        out[f"{module}.self_s"] = self_s[module]
    out["trace.spans"] = hi - lo
    return out
