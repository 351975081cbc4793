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


def fit_model(name: str, train: SurvivalDataset, seed: int = 0,
              config: TrainConfig | None = None,
              lasso_cv_folds: int = 5) -> FittedModel:
    """Run the complete fitting pipeline for one method name."""
    if name not in MODEL_NAMES:
        raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
    if name == "coxl1":
        fit = coxlasso.coxl1_fit(train, seed, lasso_cv_folds)
        scores = coxlasso.risk_score(fit, train.X)
        base = select_bandwidth_gl(train, scores, default_grid(train))
        return CoxLassoModel(fit=fit, base=base)
    if name == "coxnnet":
        fit = coxnnet_fit(train, seed, config)
        scores = coxnnet_scores(fit, train.X)
        base = select_bandwidth_gl(train, scores, default_grid(train))
        return CoxnnetModel(fit=fit, base=base)
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


def _read(d: dict, key: str):
    """``d[key]``, or a ValueError naming the missing key."""
    if not isinstance(d, dict) or key not in d:
        raise ValueError(f"model file: missing key {key!r}")
    return d[key]


def _vector(d: dict, key: str, size: int | None = None,
            valid=np.isfinite, what: str = "finite") -> np.ndarray:
    """``d[key]`` as a 1-D float array, of ``size`` entries when given,
    every entry passing ``valid``; a ValueError naming the key otherwise."""
    value = _read(d, key)
    try:
        a = np.asarray(value, dtype=np.float64)
        ok = (a.ndim == 1 and (size is None or a.size == size)
              and bool(np.all(valid(a))))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        count = "" if size is None else f"{size} "
        raise ValueError(f"model file: {key!r} must be a 1-D array of "
                         f"{count}{what} values")
    return a


def _scalar(d: dict, key: str) -> float:
    """``d[key]`` as a finite float; a ValueError naming the key otherwise."""
    value = _read(d, key)
    try:
        value = float(value)
    except (TypeError, ValueError):
        value = np.nan
    if not np.isfinite(value):
        raise ValueError(f"model file: {key!r} must be a finite number")
    return value


def _transform(d: dict, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The stored standardization: a finite ``mean`` and a ``scale`` that
    is positive (infinite for a constant column), one entry per input."""
    return (_vector(d, "mean", width),
            _vector(d, "scale", width, valid=lambda a: a > 0,
                    what="positive"))


def _mlp_from_dict(d: dict, logit_head: bool = False) -> MlpParams:
    # from_layers checks shapes, activations and finiteness of the file's net
    acts = list(_read(d, "activations"))
    if logit_head and acts and acts[-1] == "sigmoid":
        # nnsurv files written with a final sigmoid layer hold the same
        # weights; nnsurv_hazards applies the sigmoid to their logits
        acts[-1] = "identity"
    return MlpParams.from_layers(_read(d, "weights"), _read(d, "biases"), acts)


def _baseline_to_dict(base: BaselineEstimate) -> dict:
    return {"grid": _arr(base.grid), "alpha_hat": _arr(base.alpha_hat),
            "bandwidth": base.bandwidth, "cumulative": _arr(base.cumulative)}


def _baseline_from_dict(d: dict) -> BaselineEstimate:
    grid = _vector(d, "grid")
    if grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("model file: baseline 'grid' must strictly increase")
    return BaselineEstimate(
        grid=grid, alpha_hat=_vector(d, "alpha_hat", grid.size),
        bandwidth=_scalar(d, "bandwidth"),
        cumulative=_vector(d, "cumulative", grid.size))


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
    """The model a ``model_to_dict`` dump describes, checked before it is
    built: a missing key, a ``mean`` or ``scale`` that is not one finite
    (scale: positive, or infinite for a constant column) entry per network
    or coefficient input, a non-finite coefficient, penalty or bandwidth,
    a baseline whose arrays differ in length, are not finite or whose
    grid does not strictly increase, and a ``depth`` other than the net's
    hidden layers each raise a ValueError naming the key."""
    version = d.get("format_version") if isinstance(d, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    kind = _read(d, "kind")
    if kind == "coxl1":
        beta_hat = _vector(d, "beta_hat")
        mean, scale = _transform(d, beta_hat.size)
        fit = CoxFit(beta_hat=beta_hat, lam=_scalar(d, "lam"), mean=mean,
                     scale=scale, n_iter=0, objective_trace=np.zeros(1))
        return CoxLassoModel(fit=fit,
                             base=_baseline_from_dict(_read(d, "baseline")))
    if kind == "coxnnet":
        params = _mlp_from_dict(_read(d, "net"))
        mean, scale = _transform(d, params.weights[0].shape[0])
        fit = CoxnnetFit(params=params, mean=mean, scale=scale,
                         ridge=_scalar(d, "ridge"),
                         loss_trace=np.zeros(0))
        return CoxnnetModel(fit=fit,
                            base=_baseline_from_dict(_read(d, "baseline")))
    if kind == "nnsurv":
        params = _mlp_from_dict(_read(d, "net"), logit_head=True)
        # the network's input is the covariates plus the interval midpoint
        mean, scale = _transform(d, params.weights[0].shape[0])
        depth = _read(d, "depth")
        if depth not in (1, 2) or depth != params.n_layers - 1:
            raise ValueError(f"model file: 'depth' {depth!r} is not the "
                             f"net's {params.n_layers - 1} hidden layers "
                             "(1 or 2)")
        fit = NnsurvFit(params=params,
                        grid=DiscreteTimeGrid(cuts=_vector(d, "cuts")),
                        mean=mean, scale=scale, depth=int(depth),
                        ridge=_scalar(d, "ridge"),
                        loss_trace=np.zeros(0))
        return DiscreteTimeModel(fit=fit)
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(model: FittedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path) -> FittedModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
