"""L1-penalized Cox regression.

The partial log-likelihood is the shared one in ``core`` (Breslow-style
risk sets, ties mutually at risk, log-sum-exp stabilization), applied to
the linear predictor X beta. Fitting minimizes the negative partial
log-likelihood plus an L1 penalty by proximal gradient descent with
backtracking, which keeps the objective monotone and produces exact
zeros for inactive coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    SurvivalDataset,
    apply_standardization,
    check_rows,
    cox_loss,
    cox_loss_and_grad,
    cross_validate,
    standardize_covariates,
    stratified_folds,
)


@dataclass(frozen=True)
class CoxFit:
    """Result of one penalized fit, on the standardized covariate scale."""

    beta_hat: np.ndarray
    lam: float
    mean: np.ndarray
    scale: np.ndarray
    n_iter: int
    objective: float
    objective_trace: np.ndarray = field(repr=False)
    converged: bool = True


def _check_beta(data: SurvivalDataset, beta) -> np.ndarray:
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (data.p,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({data.p},)")
    if not np.all(np.isfinite(beta)):
        raise ValueError("coefficients must be finite")
    return beta


def partial_loglik(data: SurvivalDataset, beta) -> float:
    """Cox partial log-likelihood
    sum_i delta_i [beta'x_i - log sum_{l in R_i} exp(beta'x_l)]."""
    beta = _check_beta(data, beta)
    return -cox_loss(data.X @ beta, data.risk_index, data.event)


def partial_loglik_grad(data: SurvivalDataset, beta) -> np.ndarray:
    """Score vector sum_i delta_i [x_i - weighted risk-set mean of x], by
    the chain rule through the linear predictor: -X' d(-pll)/d eta."""
    beta = _check_beta(data, beta)
    _, d_eta = cox_loss_and_grad(data.X @ beta, data.risk_index, data.event)
    return -(d_eta @ data.X)


def soft_threshold(z: np.ndarray, thresh: float) -> np.ndarray:
    return np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)


def proximal_gradient(value_fn, grad_fn, lam: float, beta0: np.ndarray,
                      tol: float = 1e-7, max_iter: int = 10_000):
    """Minimize value_fn(beta) + lam * ||beta||_1 by ISTA with backtracking.

    Returns (beta, objective trace). The backtracking condition enforces
    the quadratic upper bound, so the penalized objective never increases.
    """
    beta = np.asarray(beta0, dtype=np.float64).copy()
    g = value_fn(beta)
    if not np.isfinite(g):
        raise RuntimeError("objective not finite at the starting point")
    obj = g + lam * np.abs(beta).sum()
    trace = [obj]
    step = 1.0
    prev_beta = prev_grad = None
    for it in range(1, max_iter + 1):
        grad = grad_fn(beta)
        if prev_beta is not None:
            # Barzilai-Borwein curvature estimate seeds the line search
            db = beta - prev_beta
            dg = grad - prev_grad
            denom = db @ dg
            if denom > 0:
                step = float((db @ db) / denom)
            else:
                step *= 2.0
        prev_beta, prev_grad = beta, grad
        while True:
            cand = soft_threshold(beta - step * grad, step * lam)
            delta = cand - beta
            g_cand = value_fn(cand)
            bound = g + grad @ delta + (delta @ delta) / (2.0 * step)
            if np.isfinite(g_cand) and g_cand <= bound + 1e-12:
                break
            step *= 0.5
            if step < 1e-20:
                raise RuntimeError("line search failed; objective may be diverging")
        beta = cand
        g = g_cand
        new_obj = g + lam * np.abs(beta).sum()
        if not np.isfinite(new_obj):
            raise RuntimeError("objective diverged to a non-finite value")
        trace.append(new_obj)
        rel_change = abs(obj - new_obj) / max(1.0, abs(obj))
        obj = new_obj
        if rel_change < tol:
            return beta, np.asarray(trace), True
    return beta, np.asarray(trace), False


def lambda_max(data: SurvivalDataset) -> float:
    """Smallest penalty that keeps the null model optimal: the sup-norm of
    the gradient at beta = 0, on the standardized scale fit_lasso uses."""
    Z, _, _ = standardize_covariates(data.X)
    zdata = SurvivalDataset(Z, data.time, data.event)
    g = partial_loglik_grad(zdata, np.zeros(data.p))
    return float(np.abs(g).max())


def lambda_path(data: SurvivalDataset, n_points: int = 20,
                ratio: float = 0.01) -> np.ndarray:
    """Log-spaced penalty path from lambda_max down to ratio * lambda_max."""
    top = lambda_max(data)
    if top <= 0:
        return np.zeros(n_points)
    return np.geomspace(top, ratio * top, n_points)


def fit_lasso(data: SurvivalDataset, lam: float, tol: float = 1e-7,
              max_iter: int = 10_000, beta0=None,
              standardized: bool = False) -> CoxFit:
    """Minimize -partial_loglik + lam * ||beta||_1.

    Covariates are standardized internally (transform stored on the fit)
    unless ``standardized`` marks them as already centered and scaled.
    """
    if lam < 0:
        raise ValueError("penalty must be nonnegative")
    if standardized:
        Z, mean, scale = data.X, np.zeros(data.p), np.ones(data.p)
        zdata = data
    else:
        Z, mean, scale = standardize_covariates(data.X)
        zdata = SurvivalDataset(Z, data.time, data.event)

    beta0 = np.zeros(data.p) if beta0 is None else np.asarray(beta0, float)
    beta, trace, converged = proximal_gradient(
        lambda b: -partial_loglik(zdata, b),
        lambda b: -partial_loglik_grad(zdata, b),
        lam, beta0, tol=tol, max_iter=max_iter)
    return CoxFit(beta_hat=beta, lam=float(lam), mean=mean, scale=scale,
                  n_iter=trace.size - 1, objective=float(trace[-1]),
                  objective_trace=trace, converged=converged)


def cv_lambda(data: SurvivalDataset, nfolds: int, path, seed: int = 0,
              tol: float = 1e-7) -> float:
    """The penalty of ``path`` with the highest Verweij-van Houwelingen
    cross-validated partial likelihood: per fold, the full-data minus the
    train-fold partial likelihood at the train-fold solution, along the
    path warm-started from its largest penalty. ``core.cross_validate``
    runs the folds; the largest penalty wins ties and every-fold skips."""
    if nfolds < 2:
        raise ValueError("need at least two folds")
    path = np.asarray(path, dtype=np.float64)
    if path.size == 0:
        raise ValueError("empty penalty path")
    labels = stratified_folds(data.event, nfolds,
                              np.random.default_rng(seed))

    def fold_scores(fold, held):
        train = data.subset(np.flatnonzero(~held))
        Z, mean, scale = standardize_covariates(train.X)
        ztrain = SurvivalDataset(Z, train.time, train.event)
        zfull = SurvivalDataset(apply_standardization(data.X, mean, scale),
                                data.time, data.event)
        beta = np.zeros(data.p)
        scores = np.empty(path.size)
        for j, lam in enumerate(path):
            beta = fit_lasso(ztrain, lam, tol=tol, beta0=beta,
                             standardized=True).beta_hat
            scores[j] = partial_loglik(zfull, beta) - partial_loglik(ztrain, beta)
        return scores

    # path runs from the largest penalty down; prefer the sparser model on ties
    return cross_validate(path, labels, data.event, nfolds, fold_scores)


def risk_score(fit: CoxFit, x) -> np.ndarray:
    """exp(beta_hat' z) per row of ``x``, with the fit's standardization
    applied; always an array, one entry per row."""
    z = apply_standardization(check_rows(x, fit.beta_hat.shape[0]),
                              fit.mean, fit.scale)
    return np.exp(z @ fit.beta_hat)
