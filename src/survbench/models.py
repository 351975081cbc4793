"""Uniform predictor role over the four fitting pipelines.

Every fitted model maps covariate rows to one batch of survival curves;
the Cox-family models also expose scalar risk scores. ``fit_model``
dispatches a method name to its recipe (``coxlasso.coxl1_fit``,
``coxnnet_fit``, ``nnsurv_fit``), adding the kernel baseline with
data-driven bandwidth to the Cox-family fits; ``save_model`` /
``load_model`` give a versioned JSON dump that round-trips bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import coxlasso
from .baseline import (
    BaselineEstimate,
    default_grid,
    ramlau_hansen,
    select_bandwidth_gl,
    survival_from_scores,
)
from .core import SurvivalCurve, SurvivalDataset
from .coxlasso import CoxFit
from .nnet import TrainConfig
from .nnet.coxnnet import CoxnnetFit, coxnnet_fit, coxnnet_scores
from .nnet.discrete import (
    DiscreteTimeGrid,
    NnsurvFit,
    nnsurv_fit,
    nnsurv_survival,
)
from .nnet.mlp import MlpParams

MODEL_NAMES = ("coxl1", "coxnnet", "nnsurv", "nnsurv_deep")
FORMAT_VERSION = 1


@dataclass(frozen=True)
class CoxLassoModel:
    """L1-penalized Cox fit with a kernel baseline for full curves."""

    fit: CoxFit
    base: BaselineEstimate

    def predict_risk(self, X) -> np.ndarray:
        return coxlasso.risk_score(self.fit, X)

    def predict_survival(self, X) -> SurvivalCurve:
        return survival_from_scores(self.base, self.predict_risk(X))


@dataclass(frozen=True)
class CoxnnetModel:
    """Partial-likelihood network with a kernel baseline."""

    fit: CoxnnetFit
    base: BaselineEstimate

    def predict_risk(self, X) -> np.ndarray:
        return coxnnet_scores(self.fit, X)

    def predict_survival(self, X) -> SurvivalCurve:
        return survival_from_scores(self.base, self.predict_risk(X))


@dataclass(frozen=True)
class DiscreteTimeModel:
    """Discrete-time hazard network (shallow or deep)."""

    fit: NnsurvFit

    def predict_survival(self, X) -> SurvivalCurve:
        return nnsurv_survival(self.fit,
                               np.atleast_2d(np.asarray(X, dtype=np.float64)))


FittedModel = Union[CoxLassoModel, CoxnnetModel, DiscreteTimeModel]


def _cox_family_baseline(train: SurvivalDataset, scores: np.ndarray) -> BaselineEstimate:
    grid = default_grid(train)
    bandwidth = select_bandwidth_gl(train, scores, grid)
    return ramlau_hansen(train, scores, bandwidth, grid)


def fit_model(name: str, train: SurvivalDataset, seed: int = 0,
              config: TrainConfig | None = None,
              lasso_cv_folds: int = 5) -> FittedModel:
    """Run the complete fitting pipeline for one method name."""
    if name not in MODEL_NAMES:
        raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
    if name == "coxl1":
        fit = coxlasso.coxl1_fit(train, seed, lasso_cv_folds)
        scores = coxlasso.risk_score(fit, train.X)
        return CoxLassoModel(fit=fit, base=_cox_family_baseline(train, scores))
    if name == "coxnnet":
        fit = coxnnet_fit(train, seed, config)
        scores = coxnnet_scores(fit, train.X)
        return CoxnnetModel(fit=fit, base=_cox_family_baseline(train, scores))
    depth = 1 if name == "nnsurv" else 2
    return DiscreteTimeModel(fit=nnsurv_fit(train, seed, config, depth=depth))


# ---------------------------------------------------------------------------
# serialization

def _arr(a: np.ndarray) -> list:
    return np.asarray(a, dtype=np.float64).tolist()


def _mlp_to_dict(params: MlpParams) -> dict:
    return {
        "shapes": [list(w.shape) for w in params.weights],
        "activations": list(params.activations),
        "weights": [_arr(w) for w in params.weights],
        "biases": [None if b is None else _arr(b) for b in params.biases],
    }


def _mlp_from_dict(d: dict, logit_head: bool = False) -> MlpParams:
    # from_layers checks shapes, activations and finiteness of the file's net
    acts = list(d["activations"])
    if logit_head and acts and acts[-1] == "sigmoid":
        # nnsurv files written with a final sigmoid layer hold the same
        # weights; nnsurv_hazards applies the sigmoid to their logits
        acts[-1] = "identity"
    return MlpParams.from_layers(d["weights"], d["biases"], acts)


def _baseline_to_dict(base: BaselineEstimate) -> dict:
    return {"grid": _arr(base.grid), "alpha_hat": _arr(base.alpha_hat),
            "bandwidth": base.bandwidth, "cumulative": _arr(base.cumulative)}


def _baseline_from_dict(d: dict) -> BaselineEstimate:
    return BaselineEstimate(
        grid=np.asarray(d["grid"]), alpha_hat=np.asarray(d["alpha_hat"]),
        bandwidth=float(d["bandwidth"]), cumulative=np.asarray(d["cumulative"]))


def model_to_dict(model: FittedModel) -> dict:
    if isinstance(model, CoxLassoModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "coxl1",
            "beta_hat": _arr(model.fit.beta_hat),
            "lam": model.fit.lam,
            "mean": _arr(model.fit.mean),
            "scale": _arr(model.fit.scale),
            "baseline": _baseline_to_dict(model.base),
        }
    if isinstance(model, CoxnnetModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "coxnnet",
            "net": _mlp_to_dict(model.fit.params),
            "mean": _arr(model.fit.mean),
            "scale": _arr(model.fit.scale),
            "ridge": model.fit.ridge,
            "baseline": _baseline_to_dict(model.base),
        }
    if isinstance(model, DiscreteTimeModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "nnsurv",
            "net": _mlp_to_dict(model.fit.params),
            "cuts": _arr(model.fit.grid.cuts),
            "mean": _arr(model.fit.mean),
            "scale": _arr(model.fit.scale),
            "depth": model.fit.depth,
            "ridge": model.fit.ridge,
        }
    raise TypeError(f"not a fitted model: {type(model)!r}")


def model_from_dict(d: dict) -> FittedModel:
    version = d.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    kind = d["kind"]
    if kind == "coxl1":
        fit = CoxFit(beta_hat=np.asarray(d["beta_hat"]), lam=float(d["lam"]),
                     mean=np.asarray(d["mean"]), scale=np.asarray(d["scale"]),
                     n_iter=0, objective=float("nan"),
                     objective_trace=np.zeros(1))
        return CoxLassoModel(fit=fit, base=_baseline_from_dict(d["baseline"]))
    if kind == "coxnnet":
        fit = CoxnnetFit(params=_mlp_from_dict(d["net"]),
                         mean=np.asarray(d["mean"]), scale=np.asarray(d["scale"]),
                         ridge=float(d["ridge"]), loss_trace=np.zeros(0))
        return CoxnnetModel(fit=fit, base=_baseline_from_dict(d["baseline"]))
    if kind == "nnsurv":
        fit = NnsurvFit(params=_mlp_from_dict(d["net"], logit_head=True),
                        grid=DiscreteTimeGrid(cuts=np.asarray(d["cuts"])),
                        mean=np.asarray(d["mean"]), scale=np.asarray(d["scale"]),
                        depth=int(d["depth"]), ridge=float(d["ridge"]),
                        loss_trace=np.zeros(0))
        return DiscreteTimeModel(fit=fit)
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(model: FittedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path) -> FittedModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
