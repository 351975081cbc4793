"""Kernel estimation of the baseline hazard with plug-in risk scores.

The smoother puts an Epanechnikov kernel at every observed event time,
weighted by the inverse of the mean plug-in score over the subjects still
at risk, which makes it consistent for the baseline hazard of any
proportional-hazards-style model whose scores are supplied. Bandwidths
come from a Goldenshluger-Lepski comparison of estimates across a dyadic
candidate grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import SurvivalCurve, SurvivalDataset, risk_set_sums


@dataclass(frozen=True)
class BaselineEstimate:
    """Smoothed baseline hazard on an evaluation grid.

    ``cumulative`` is the trapezoidal integral of ``alpha_hat`` from the
    first grid point.
    """

    grid: np.ndarray
    alpha_hat: np.ndarray
    bandwidth: float
    cumulative: np.ndarray


def epanechnikov(u: np.ndarray) -> np.ndarray:
    """K(u) = 0.75 (1 - u^2) on |u| <= 1, written over ``u`` when it is a
    float64 array."""
    u = np.asarray(u, dtype=np.float64)
    np.multiply(u, u, out=u)
    np.subtract(1.0, u, out=u)
    np.maximum(0.0, u, out=u)
    u *= 0.75
    return u


def default_grid(data: SurvivalDataset, n_points: int = 200) -> np.ndarray:
    """Evaluation grid from 0 to the largest observed time."""
    return np.linspace(0.0, float(data.time.max()), n_points)


def default_bandwidth_grid(data: SurvivalDataset) -> np.ndarray:
    """Dyadic bandwidths over [range/50, range/2] of the observed times."""
    span = float(data.time.max())
    grid = []
    m = span / 2.0
    while m >= span / 50.0:
        grid.append(m)
        m /= 2.0
    return np.asarray(grid[::-1])


def _validate(data: SurvivalDataset, scores, grid) -> tuple:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (data.n,):
        raise ValueError("one score per subject is required")
    if np.any(scores <= 0) or not np.all(np.isfinite(scores)):
        raise ValueError("scores must be positive and finite")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    return scores, grid


def ramlau_hansen(data: SurvivalDataset, scores, bandwidth: float,
                  grid) -> BaselineEstimate:
    """Kernel baseline-hazard estimate with plug-in scores.

    Each event at T_i contributes K((t - T_i)/m) / (m * n * mean score of
    its risk set); censored subjects only shrink the risk-set weights.
    """
    scores, grid = _validate(data, scores, grid)
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")

    events = data.event == 1
    if not events.any():
        warnings.warn("all subjects censored; baseline hazard estimated as 0",
                      RuntimeWarning, stacklevel=2)
        alpha = np.zeros(grid.size)
    else:
        mean_risk_score = risk_set_sums(data.risk_index.later, scores) / data.n
        weights = 1.0 / (data.n * mean_risk_score[events])
        u = grid[:, None] - data.time[None, events]
        u /= bandwidth
        alpha = epanechnikov(u) @ weights / bandwidth
    alpha = np.maximum(alpha, 0.0)

    cumulative = np.concatenate(
        [[0.0], np.cumsum(np.diff(grid) * (alpha[1:] + alpha[:-1]) / 2.0)])
    return BaselineEstimate(grid=grid, alpha_hat=alpha,
                            bandwidth=float(bandwidth), cumulative=cumulative)


def select_bandwidth_gl(data: SurvivalDataset, scores, grid,
                        bandwidth_grid=None,
                        kappa: float = 1.0) -> BaselineEstimate:
    """Goldenshluger-Lepski bandwidth choice; returns the estimate at the
    chosen bandwidth, as ``ramlau_hansen`` computes it.

    Balances a pairwise-comparison bias proxy
    A(m) = max_{m' <= m} [ sup_grid |a_{m'} - a_m| - V(m') ]_+
    against the variance proxy V(m) = kappa log(n) / (n m); ties go to
    the larger bandwidth.
    """
    if bandwidth_grid is None:
        bandwidth_grid = default_bandwidth_grid(data)
    ms = np.sort(np.asarray(bandwidth_grid, dtype=np.float64))
    if ms.size == 0:
        raise ValueError("empty bandwidth grid")
    scores, grid = _validate(data, scores, grid)

    estimates = [ramlau_hansen(data, scores, m, grid) for m in ms]
    alphas = [est.alpha_hat for est in estimates]
    v = kappa * np.log(data.n) / (data.n * ms)
    crit = np.empty(ms.size)
    for j in range(ms.size):
        gaps = [
            max(float(np.max(np.abs(alphas[jp] - alphas[j]))) - v[jp], 0.0)
            for jp in range(j + 1)
        ]
        crit[j] = max(gaps) + v[j]
    return estimates[ms.size - 1 - int(np.argmin(crit[::-1]))]


def survival_from_scores(base: BaselineEstimate, scores) -> SurvivalCurve:
    """S(t) = exp(-score * integrated baseline hazard) on the estimate's
    grid: one curve for a scalar score, a batch with one row per subject
    for an array of scores."""
    scores = np.asarray(scores, dtype=np.float64)
    if np.any(scores <= 0):
        raise ValueError("scores must be positive")
    probs = -scores[..., None] * base.cumulative
    np.exp(probs, out=probs)
    return SurvivalCurve(grid=base.grid, probs=probs)
