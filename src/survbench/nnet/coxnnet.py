"""Partial-likelihood network: a one-hidden-layer tanh net whose scalar
output replaces the linear predictor of a Cox regression.

The loss is the negative Cox partial log-likelihood of the network
outputs (``core.cox_loss``, the one coxl1 also uses) plus a squared-L2
penalty on all weights and biases; risk sets are global, so training is
full-batch. The fitted per-subject scores exp(theta_i) plug into the
kernel baseline estimator to produce full survival curves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..core import (
    SurvivalDataset,
    apply_standardization,
    cox_loss,
    cox_loss_and_grad,
    standardize_covariates,
    stratified_folds,
    stratified_cut,
)
from ..metrics import _concordance
from .config import TrainConfig
from .mlp import (
    MlpParams,
    init_mlp,
    mlp_backward,
    mlp_forward,
    pack,
    pack_grads,
    squared_norm,
    unpack,
)
from .train import fit_adam, select_ridge


@dataclass(frozen=True)
class CoxnnetFit:
    """Trained network with its input transform and per-subject scores."""

    params: MlpParams
    mean: np.ndarray
    scale: np.ndarray
    ridge: float
    train_scores: np.ndarray  # exp(theta_i) on the training subjects
    loss_trace: np.ndarray


def coxnnet_loss_and_grad(params: MlpParams, data: SurvivalDataset, lam: float):
    """Penalized negative partial log-likelihood of the network output and
    its gradient with respect to every parameter (packed)."""
    if lam < 0:
        raise ValueError("ridge weight must be nonnegative")
    theta, caches = mlp_forward(params, data.X)
    theta = theta[:, 0]
    if not (data.event == 1).any():
        warnings.warn("all subjects censored; loss reduces to the penalty",
                      RuntimeWarning, stacklevel=2)
    neg_ll, d_theta = cox_loss_and_grad(theta, data.time, data.event)
    loss = neg_ll + lam * squared_norm(params)
    d_w, d_b = mlp_backward(params, caches, d_theta[:, None])
    grad = pack_grads(params, d_w, d_b) + 2.0 * lam * pack(params)
    return loss, grad


def _train_network(zdata: SurvivalDataset, lam: float, config: TrainConfig,
                   seed: int):
    """Full-batch Adam with early stopping on a held-out partial likelihood."""
    rng = np.random.default_rng(seed)
    hidden = config.hidden_for(zdata.p)
    params = init_mlp((zdata.p, hidden, 1), ("tanh", "identity"),
                      seed=int(rng.integers(2 ** 31)), output_bias=False)

    val_idx, train_idx = stratified_cut(zdata.event, config.val_fraction, rng)
    monitor_val = val_idx.size >= 3 and zdata.event[val_idx].sum() >= 2
    train = zdata.subset(train_idx) if monitor_val else zdata
    held_score = None
    if monitor_val:
        val = zdata.subset(val_idx)

        def held_score(vec):
            theta, _ = mlp_forward(unpack(params, vec), val.X)
            return cox_loss(theta[:, 0], val.time, val.event)

    vec, trace = fit_adam(
        pack(params),
        lambda vec, batch: coxnnet_loss_and_grad(unpack(params, vec), batch, lam),
        lambda: (train,), held_score, config)
    return unpack(params, vec), trace


def _scalar_concordance(scores: np.ndarray, time: np.ndarray,
                        event: np.ndarray) -> float:
    """Harrell concordance of risk scores (higher score, earlier event):
    the time-dependent pair count on -score, the same at every event's
    time; 0.5 when no pair is comparable."""
    neg = -np.asarray(scores, dtype=np.float64)
    concordant, comparable = _concordance(
        lambda rows, subj: np.broadcast_to(neg[rows, None],
                                           (rows.size, subj.size)),
        time, event)
    return concordant / comparable if comparable else 0.5


def _select_ridge(zdata: SurvivalDataset, config: TrainConfig,
                  rng: np.random.Generator) -> float:
    """k-fold CV over the ridge grid, scored by held-out rank concordance
    of the network scores (a far lower-variance signal than the held-out
    partial likelihood at these sample sizes)."""
    n_events = int(zdata.event.sum())
    fracs = config.ridge_grid if config.ridge_grid is not None else (1e-2, 1e-1, 1.0)
    labels = stratified_folds(zdata.event, config.cv_folds, rng)

    def fold_scorer(held_mask, seed):
        train = zdata.subset(np.flatnonzero(~held_mask))
        held = zdata.subset(np.flatnonzero(held_mask))
        if train.event.sum() == 0 or held.event.sum() == 0:
            return None

        def score(lam):
            params, _ = _train_network(train, lam, config, seed)
            theta_held, _ = mlp_forward(params, held.X)
            return _scalar_concordance(theta_held[:, 0], held.time, held.event)
        return score

    return select_ridge([frac * n_events for frac in fracs], labels,
                        fold_scorer, config, rng)


def coxnnet_fit(data: SurvivalDataset, config: TrainConfig | None = None) -> CoxnnetFit:
    """Standardize, pick the ridge weight (CV unless fixed), train, and
    return the network with its plug-in scores exp(theta_i)."""
    config = config or TrainConfig()
    Z, mean, scale = standardize_covariates(data.X)
    zdata = SurvivalDataset(Z, data.time, data.event)
    rng = np.random.default_rng(config.seed)

    if config.ridge is not None:
        ridge = config.ridge
    else:
        ridge = _select_ridge(zdata, config, rng)
    params, trace = _train_network(zdata, ridge, config, int(rng.integers(2 ** 31)))
    theta, _ = mlp_forward(params, zdata.X)
    return CoxnnetFit(params=params, mean=mean, scale=scale, ridge=ridge,
                      train_scores=np.exp(theta[:, 0]), loss_trace=trace)


def coxnnet_scores(fit: CoxnnetFit, X) -> np.ndarray:
    """Plug-in risk scores exp(theta(x)) for new covariate rows."""
    Z = apply_standardization(np.atleast_2d(np.asarray(X, dtype=np.float64)),
                              fit.mean, fit.scale)
    theta, _ = mlp_forward(fit.params, Z)
    return np.exp(theta[:, 0])
