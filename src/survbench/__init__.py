"""Survival-analysis benchmark toolkit.

Simulates right-censored survival data from Cox / AH / AFT models,
fits high-dimensional survival predictors (Lasso-Cox with a kernel
baseline, a partial-likelihood network, discrete-time hazard networks),
and scores them with censoring-aware metrics.
"""

from .core import (
    Split,
    SurvivalCurve,
    SurvivalDataset,
    standardize_covariates,
    train_test_split,
)
from .simgen import (
    LogNormal,
    ModelFamily,
    SimulatedDataset,
    SimulationSpec,
    Weibull,
    draw_survival_time,
    generate,
    true_survival,
)
from .metrics import (
    MetricReport,
    c_index_td,
    kaplan_meier,
    metric_report,
    reference_metrics,
)
from .models import (
    MODEL_NAMES,
    CoxLassoModel,
    CoxnnetModel,
    DiscreteTimeModel,
    fit_model,
    load_model,
    save_model,
)

__all__ = [
    "Split",
    "SurvivalCurve",
    "SurvivalDataset",
    "standardize_covariates",
    "train_test_split",
    "LogNormal",
    "ModelFamily",
    "SimulatedDataset",
    "SimulationSpec",
    "Weibull",
    "draw_survival_time",
    "generate",
    "true_survival",
    "MetricReport",
    "c_index_td",
    "kaplan_meier",
    "metric_report",
    "reference_metrics",
    "MODEL_NAMES",
    "CoxLassoModel",
    "CoxnnetModel",
    "DiscreteTimeModel",
    "fit_model",
    "load_model",
    "save_model",
]

__version__ = "0.1.0"
