"""Per-layer call tracing of survbench, installed from outside the package.

Each traced public function is replaced, wherever a survbench module binds
it by name, with a wrapper that times the call on ``perf_counter``. The
wrappers keep a stack of open calls, so every call also knows the time
spent in traced calls beneath it (its self time is the rest).

Low-frequency calls (fits, CV, metrics) are stored as individual spans
with their parent span. High-frequency calls (the network and Cox kernels,
tens of thousands per cell) are aggregated into count, total and self time
under the nearest stored span instead. ``install`` and ``uninstall``
restore the original bindings exactly, so an untraced pass in the same
process runs the unmodified code.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import numpy as np

# (module, attribute, layer metric name, aggregated per parent span)
FUNCTIONS = (
    ("survbench.core", "risk_set_sums", "core.risk_set_sums", True),
    ("survbench.core", "train_test_split", "core.train_test_split", False),
    ("survbench.coxlasso", "cv_lambda", "coxlasso.cv_lambda", False),
    ("survbench.coxlasso", "fit_lasso", "coxlasso.fit_lasso", False),
    ("survbench.coxlasso", "partial_loglik", "coxlasso.partial_loglik", True),
    ("survbench.coxlasso", "partial_loglik_grad",
     "coxlasso.partial_loglik_grad", True),
    ("survbench.baseline", "select_bandwidth_gl",
     "baseline.select_bandwidth_gl", False),
    ("survbench.baseline", "ramlau_hansen", "baseline.ramlau_hansen", True),
    ("survbench.nnet.mlp", "init_mlp", "mlp.init_mlp", False),
    ("survbench.nnet.mlp", "mlp_forward", "mlp.mlp_forward", True),
    ("survbench.nnet.mlp", "mlp_backward", "mlp.mlp_backward", True),
    ("survbench.nnet.mlp", "unpack", "mlp.unpack", True),
    ("survbench.nnet.coxnnet", "coxnnet_fit", "coxnnet.coxnnet_fit", False),
    ("survbench.nnet.coxnnet", "coxnnet_loss_and_grad",
     "coxnnet.coxnnet_loss_and_grad", True),
    ("survbench.nnet.discrete", "duplicate", "discrete.duplicate", False),
    ("survbench.nnet.discrete", "nnsurv_loss_and_grad",
     "discrete.nnsurv_loss_and_grad", True),
    ("survbench.nnet.discrete", "nnsurv_fit", "discrete.nnsurv_fit", False),
    ("survbench.models", "fit_model", "models.fit", False),
    ("survbench.metrics", "metric_report", "metrics.metric_report", False),
    ("survbench.metrics", "c_index_td", "metrics.c_index_td", False),
    ("survbench.metrics", "brier_trace", "metrics.brier_trace", False),
    ("survbench.metrics", "reference_metrics", "metrics.reference_metrics",
     False),
    ("survbench.metrics", "kaplan_meier", "metrics.kaplan_meier", True),
    ("survbench.simgen", "generate", "simgen.generate", False),
    ("survbench.simgen", "true_survival", "simgen.true_survival", True),
    ("survbench.bench", "run_grid", "bench.run_grid", False),
)

# (module, class, method, layer metric name, aggregated per parent span)
METHODS = (
    ("survbench.nnet.mlp", "Adam", "step", "mlp.adam_step", True),
    ("survbench.models", "CoxLassoModel", "predict_survival",
     "models.predict", False),
    ("survbench.models", "CoxnnetModel", "predict_survival",
     "models.predict", False),
    ("survbench.models", "DiscreteTimeModel", "predict_survival",
     "models.predict", False),
)

MODEL_NAMES = ("coxl1", "coxnnet", "nnsurv", "nnsurv_deep")


def _fit_name(args, kwargs):
    return "models.fit." + (args[0] if args else kwargs["name"])


def _predict_name(args, kwargs):
    model = args[0]
    kind = type(model).__name__
    if kind == "CoxLassoModel":
        return "models.predict.coxl1"
    if kind == "CoxnnetModel":
        return "models.predict.coxnnet"
    return ("models.predict.nnsurv" if model.fit.depth == 1
            else "models.predict.nnsurv_deep")


_DYNAMIC_NAMES = {"models.fit": _fit_name, "models.predict": _predict_name}


def _count_cells(tracer, args, kwargs, result):
    values = args[1] if len(args) > 1 else kwargs["values"]
    tracer.counters["core.risk_set_sums.cells"] += np.asarray(values).size


def _count_forward_rows(tracer, args, kwargs, result):
    X = args[1] if len(args) > 1 else kwargs["X"]
    tracer.counters["mlp.mlp_forward.rows"] += np.atleast_2d(X).shape[0]


def _count_duplicate_rows(tracer, args, kwargs, result):
    tracer.counters["discrete.duplicate.rows"] += result.n_rows


def _count_ista(tracer, args, kwargs, result):
    tracer.counters["coxlasso.ista_iters"] += result.n_iter
    tracer.counters["coxlasso.nonconverged"] += not result.converged


_AFTER = {
    "core.risk_set_sums": _count_cells,
    "mlp.mlp_forward": _count_forward_rows,
    "discrete.duplicate": _count_duplicate_rows,
    "coxlasso.fit_lasso": _count_ista,
}


def layer_names() -> list:
    """Every call-level name the tracer reports, in a fixed order."""
    names = []
    for name in dict.fromkeys(t[-2] for t in FUNCTIONS + METHODS):
        if name in _DYNAMIC_NAMES:
            names.extend(f"{name}.{m}" for m in MODEL_NAMES)
        else:
            names.append(name)
    return names


COUNTERS = ("core.risk_set_sums.cells", "coxlasso.ista_iters",
            "coxlasso.nonconverged", "mlp.mlp_forward.rows",
            "discrete.duplicate.rows")


class Tracer:
    """Call stack, stored spans and per-parent aggregates of one process."""

    def __init__(self):
        self._t0 = perf_counter()
        self._stack = []     # open calls: [child seconds, owning span id]
        self.spans = []      # stored spans, in start order
        self.aggregates = {}  # (owning span id, name) -> [calls, s, self_s]
        self.totals = {}      # name -> [calls, s, self_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._patches = []    # (owner, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, aggregated):
        namer = _DYNAMIC_NAMES.get(name)
        after = _AFTER.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            call_name = namer(args, kwargs) if namer else name
            owner = stack[-1][1] if stack else None
            if aggregated:
                span = None
            else:
                span = {"id": len(self.spans), "parent": owner,
                        "name": call_name}
                self.spans.append(span)
                owner = span["id"]
            frame = [0.0, owner]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s = elapsed - frame[0]
                self._add(self.totals, call_name, elapsed, self_s)
                if span is None:
                    parent = stack[-1][1] if stack else None
                    self._add(self.aggregates, (parent, call_name), elapsed,
                              self_s)
                else:
                    span["start"] = start - self._t0
                    span["end"] = start + elapsed - self._t0
                    span["self_s"] = self_s
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _add(table, key, elapsed, self_s):
        entry = table.get(key)
        if entry is None:
            table[key] = [1, elapsed, self_s]
        else:
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += self_s

    def install(self) -> None:
        """Rebind every traced function in every loaded survbench module."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "survbench" or key.startswith("survbench.")]
        for module_name, attr, name, aggregated in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(original, name, aggregated)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)
        for module_name, cls_name, method, name, aggregated in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name, aggregated))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self, row_seconds: float, wall_untraced: float,
                      wall_traced: float) -> dict:
        """Per-layer metric values. ``row_seconds`` is the sum of the
        ``wall_seconds`` of the rows run_grid wrote in the traced pass."""
        out = {}
        for name in layer_names():
            calls, s, self_s = self.totals.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = s
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        iters = self.counters["coxlasso.ista_iters"]
        fit_ids = {sp["id"] for sp in self.spans
                   if sp["name"] == "coxlasso.fit_lasso"}
        evals = sum(entry[0] for (parent, name), entry
                    in self.aggregates.items()
                    if name == "coxlasso.partial_loglik" and parent in fit_ids)
        out["coxlasso.s_per_iter"] = (
            out["coxlasso.fit_lasso.s"] / iters if iters else 0.0)
        out["coxlasso.evals_per_iter"] = evals / iters if iters else 0.0
        out["bench.harness_s"] = (
            out["bench.run_grid.s"] - row_seconds
            if out["bench.run_grid.calls"] else 0.0)
        out["trace.overhead_frac"] = wall_traced / wall_untraced - 1.0
        return out

    def write(self, path) -> None:
        """Write stored spans and per-parent aggregates as JSON."""
        aggregates = [
            {"parent": parent, "name": name, "calls": calls, "s": s,
             "self_s": self_s}
            for (parent, name), (calls, s, self_s) in self.aggregates.items()
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "aggregates": aggregates}, fh)
