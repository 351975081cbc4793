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
    check_rows,
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
    squared_norm,
)
from .train import fit_adam, fit_network


@dataclass(frozen=True)
class CoxnnetFit:
    """Trained network with its input transform."""

    params: MlpParams
    mean: np.ndarray
    scale: np.ndarray
    ridge: float
    loss_trace: np.ndarray


def _per_network(theta: np.ndarray):
    """Network outputs (rows, 1), or (C, rows, 1) for a stack, as a (C, rows)
    array of one linear predictor per network."""
    return theta[..., 0].reshape(-1, theta.shape[-2])


def coxnnet_loss_and_grad(params: MlpParams, data: SurvivalDataset, lam):
    """Penalized negative partial log-likelihood of the network output and
    its gradient with respect to every parameter, laid out like
    ``params.vec``. For a stack of networks ``lam`` holds one ridge weight
    per network and the losses have shape (C,); the Cox kernel runs once
    per network on its own linear predictor."""
    lam = np.asarray(lam, dtype=np.float64)
    if (lam < 0).any():
        raise ValueError("ridge weight must be nonnegative")
    theta, caches = mlp_forward(params, data.X)
    if not (data.event == 1).any():
        warnings.warn("all subjects censored; loss reduces to the penalty",
                      RuntimeWarning, stacklevel=2)
    etas = _per_network(theta)
    neg_ll, d_theta = np.empty(etas.shape[0]), np.empty_like(etas)
    for c, eta in enumerate(etas):
        neg_ll[c], d_theta[c] = cox_loss_and_grad(eta, data.risk_index,
                                                  data.event)
    loss = neg_ll.reshape(lam.shape) + lam * squared_norm(params)
    grad = mlp_backward(params, caches, d_theta.reshape(theta.shape))
    grad += (2.0 * lam)[..., None] * params.vec
    return loss, grad


def _train_network(zdata: SurvivalDataset, rows: np.ndarray, lams,
                   config: TrainConfig, seed: int):
    """Full-batch Adam on rows ``rows`` (an index array) of ``zdata``, with
    early stopping on a held-out partial likelihood of a split cut from
    them, one network per ridge weight in ``lams``: all start from the
    same weights. Returns the stack of best iterates and the loss traces."""
    rng = np.random.default_rng(seed)
    hidden = config.hidden_for(zdata.p)
    params = init_mlp((zdata.p, hidden, 1), ("tanh", "identity"),
                      seed=int(rng.integers(2 ** 31)), output_bias=False)

    event = zdata.event[rows]
    val_idx, train_idx = stratified_cut(event, config.val_fraction, rng)
    monitor_val = val_idx.size >= 3 and event[val_idx].sum() >= 2
    train = zdata.subset(rows[train_idx] if monitor_val else rows)
    held_score = None
    if monitor_val:
        val = zdata.subset(rows[val_idx])

        def held_score(stack):
            theta, _ = mlp_forward(stack, val.X)
            return np.array([cox_loss(eta, val.risk_index, val.event)
                             for eta in _per_network(theta)])

    return fit_adam(
        params, lams,
        lambda stack, lams, batch: coxnnet_loss_and_grad(stack, batch, lams),
        lambda: (train,), held_score, config)


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


def coxnnet_fit(data: SurvivalDataset, seed: int = 0,
                config: TrainConfig | None = None) -> CoxnnetFit:
    """Standardize, pick the ridge weight (CV unless fixed), train, and
    return the network with its input transform; ``seed`` drives every
    random draw of the fit. ``coxnnet_scores`` gives the plug-in scores
    exp(theta_i) of any rows, the training rows included."""
    config = config or TrainConfig()
    Z, mean, scale = standardize_covariates(data.X)
    zdata = SurvivalDataset(Z, data.time, data.event)

    def train(rows, lams, train_seed):
        return _train_network(zdata, rows, lams, config, train_seed)

    def held_scores(stack, rows):
        # rank concordance: a far lower-variance signal than the held-out
        # partial likelihood at these sample sizes
        held = zdata.subset(rows)
        theta_held, _ = mlp_forward(stack, held.X)
        return np.array([_scalar_concordance(eta, held.time, held.event)
                         for eta in _per_network(theta_held)])

    ridge, params, trace = fit_network(
        config, seed, int(zdata.event.sum()), (1e-2, 1e-1, 1.0), zdata.event,
        lambda rng: stratified_folds(zdata.event, config.cv_folds, rng),
        train, held_scores)
    return CoxnnetFit(params=params, mean=mean, scale=scale, ridge=ridge,
                      loss_trace=trace)


def coxnnet_scores(fit: CoxnnetFit, X) -> np.ndarray:
    """Plug-in risk scores exp(theta(x)) for new covariate rows."""
    Z = apply_standardization(check_rows(X, fit.mean.size), fit.mean, fit.scale)
    theta, _ = mlp_forward(fit.params, Z)
    return np.exp(theta[:, 0])
