"""The benchmark's per-layer tracer rebinds survbench functions by name
from outside the package; these tests fail when a refactor removes or
bypasses a traced name."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture()
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for entry in module.FUNCTIONS + module.METHODS:
        importlib.import_module(entry[0])
    return module


def bindings(tracer_module):
    out = []
    for module_name, attr, *_ in tracer_module.FUNCTIONS:
        out.append((sys.modules[module_name], attr))
    for module_name, cls_name, method, *_ in tracer_module.METHODS:
        out.append((getattr(sys.modules[module_name], cls_name), method))
    return out


def test_every_traced_name_exists_and_is_restored(tracer_module):
    before = [vars(owner)[attr] for owner, attr in
              bindings(tracer_module)]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(bindings(tracer_module), before):
            assert vars(owner)[attr] is not original, f"{attr} not traced"
    finally:
        tracer.uninstall()
    after = [vars(owner)[attr] for owner, attr in bindings(tracer_module)]
    assert all(a is b for a, b in zip(after, before))


def test_network_training_runs_through_traced_kernels(tracer_module):
    from survbench.nnet import TrainConfig
    from survbench.nnet.coxnnet import coxnnet_fit
    from survbench.nnet.discrete import nnsurv_fit
    from survbench.simgen import ModelFamily, SimulationSpec, Weibull, generate

    spec = SimulationSpec(family=ModelFamily.COX, baseline=Weibull(2.0, 1.3e-7),
                          n=60, p=3, k=2, censor_target=0.3, seed=0)
    data = generate(spec).data
    cfg = TrainConfig(ridge=1.0, epochs=3, min_epochs=1)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        coxnnet_fit(data, 0, cfg)
        nnsurv_fit(data, 0, cfg, depth=1, n_intervals=4)
    finally:
        tracer.uninstall()
    for name in ("mlp.init_mlp", "mlp.mlp_forward", "mlp.mlp_backward",
                 "mlp.unpack", "mlp.adam_step", "core.risk_set_sums",
                 "coxnnet.coxnnet_loss_and_grad",
                 "discrete.nnsurv_loss_and_grad", "discrete.duplicate"):
        calls = tracer.totals.get(name, (0,))[0]
        assert calls > 0, f"{name} was never called through the tracer"
    assert np.isfinite(sum(entry[1] for entry in tracer.totals.values()))


def test_scoring_runs_through_traced_layers(tracer_module):
    from survbench import metrics
    from survbench.core import train_test_split
    from survbench.models import MODEL_NAMES, fit_model
    from survbench.nnet import TrainConfig
    from survbench.simgen import ModelFamily, SimulationSpec, Weibull, generate

    spec = SimulationSpec(family=ModelFamily.COX, baseline=Weibull(2.0, 1.3e-7),
                          n=90, p=3, k=2, censor_target=0.3, seed=0)
    sim = generate(spec)
    train, test, split = train_test_split(sim.data, 2 / 3, seed=0)
    cfg = TrainConfig(ridge=1.0, epochs=3, min_epochs=1)
    fitted = [fit_model(name, train, seed=0, config=cfg, lasso_cv_folds=2)
              for name in MODEL_NAMES]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for model in fitted:
            curves = model.predict_survival(test.X)
            metrics.metric_report(curves, test.time, test.event)
        metrics.reference_metrics(sim, split.test)
    finally:
        tracer.uninstall()
    for name in ([f"models.predict.{m}" for m in MODEL_NAMES]
                 + ["metrics.metric_report", "metrics.c_index_td",
                    "metrics.brier_trace", "metrics.kaplan_meier",
                    "metrics.reference_metrics", "simgen.true_survival"]):
        calls = tracer.totals.get(name, (0,))[0]
        assert calls > 0, f"{name} was never called through the tracer"
