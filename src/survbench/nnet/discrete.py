"""Discrete-time hazard networks.

Observed time is cut into L intervals; every subject is duplicated into
one input row per interval survived, with the interval midpoint appended
as an extra covariate (Biganzoli et al. 1998). The network's linear head
emits each row's hazard logit z, the log-odds of the conditional event
probability h = sigma(z) (the logistic-hazard form of Gensheimer &
Narasimhan 2019). The data loss is the exact cross-entropy
log(1 + e^z) - d z against the per-interval death indicator d; the
training driver adds the squared-L2 penalty. A one-hidden-layer ReLU
net is the shallow variant; the deep variant adds a second hidden
layer. Survival curves are cumulative products of one minus the
predicted hazards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..core import (
    SurvivalCurve,
    SurvivalDataset,
    apply_standardization,
    check_rows,
    standardize_covariates,
    stratified_cut,
)
from .config import TrainConfig
from .mlp import MlpParams, init_mlp, mlp_backward, mlp_forward
from .train import fit_adam, fit_network

HAZARD_CLIP = 1e-12
_PREDICT_BLOCK = 64  # subjects per forward pass: bounds the network's temporaries


@dataclass(frozen=True)
class DiscreteTimeGrid:
    """Interval cut points 0 = t_0 < t_1 < ... < t_L and their midpoints."""

    cuts: np.ndarray

    def __post_init__(self):
        cuts = np.asarray(self.cuts, dtype=np.float64)
        if cuts.size < 3 or cuts[0] != 0.0 or np.any(np.diff(cuts) <= 0):
            raise ValueError("cuts must start at 0 and strictly increase, L >= 2")
        cuts.setflags(write=False)
        object.__setattr__(self, "cuts", cuts)

    @property
    def n_intervals(self) -> int:
        return self.cuts.size - 1

    @property
    def midpoints(self) -> np.ndarray:
        return (self.cuts[:-1] + self.cuts[1:]) / 2.0

    def interval_of(self, t) -> np.ndarray:
        """1-based interval index of each time; beyond the last cut maps
        to interval L."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.cuts[1:-1], t, side="left") + 1
        return np.minimum(idx, self.n_intervals)


@dataclass(frozen=True)
class DuplicatedBatch:
    """Per-interval training rows: (x_i, a_l) inputs with death targets."""

    features: np.ndarray  # (rows, p + 1), midpoint appended unstandardized
    targets: np.ndarray  # d_il in {0, 1}
    subject: np.ndarray  # original subject index per row

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


def build_time_grid(data: SurvivalDataset, n_intervals: int) -> DiscreteTimeGrid:
    """Cut points at empirical quantiles of the observed times.

    Tied times can make neighbouring quantiles coincide; such duplicate
    cuts are merged, so the grid may hold fewer than ``n_intervals``.
    """
    if n_intervals < 2:
        raise ValueError("need at least two intervals")
    if np.unique(data.time).size < n_intervals:
        raise ValueError(
            f"{n_intervals} intervals need at least {n_intervals} distinct times")
    qs = np.quantile(data.time, np.linspace(0.0, 1.0, n_intervals + 1)[1:])
    cuts = np.unique(np.concatenate([[0.0], qs]))
    if cuts.size < 3:
        raise ValueError("tied times leave fewer than two intervals")
    return DiscreteTimeGrid(cuts=cuts)


def duplicate(data: SurvivalDataset, grid: DiscreteTimeGrid) -> DuplicatedBatch:
    """One row per (subject, interval survived); the target is 0 except in
    the subject's final interval, where it equals the event indicator."""
    last = grid.interval_of(data.time)
    ends = np.cumsum(last)  # one past each subject's final row
    subject = np.repeat(np.arange(data.n), last)
    interval = np.arange(subject.size) - (ends - last)[subject]  # 0-based
    targets = np.zeros(subject.size)
    targets[ends - 1] = data.event
    return DuplicatedBatch(
        features=np.column_stack([data.X[subject], grid.midpoints[interval]]),
        targets=targets,
        subject=subject,
    )


def _hazard(z: np.ndarray) -> np.ndarray:
    """sigma(z): the discrete hazard of logit z."""
    return 1.0 / (1.0 + np.exp(-z))


def _cross_entropy(z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per-row -[d log h + (1 - d) log(1 - h)] at h = sigma(z), exact at
    any logit."""
    return np.logaddexp(0.0, z) - d * z


def nnsurv_loss_and_grad(params: MlpParams, features: np.ndarray,
                         targets: np.ndarray):
    """Summed cross-entropy of the hazard logits and its gradient, laid out
    like ``params.vec``; for a stack of networks the losses have shape
    (C,)."""
    z, caches = mlp_forward(params, features)
    z = z[..., 0]
    d = np.asarray(targets, dtype=np.float64)
    loss = np.add.reduce(_cross_entropy(z, d), axis=-1)
    d_out = (_hazard(z) - d)[..., None]  # d ce / d z
    return loss, mlp_backward(params, caches, d_out)


@dataclass(frozen=True)
class NnsurvFit:
    """Trained discrete-time model: network, time grid, input transform."""

    params: MlpParams
    grid: DiscreteTimeGrid
    mean: np.ndarray  # over the p + 1 duplicated-row features
    scale: np.ndarray
    depth: int
    ridge: float
    loss_trace: np.ndarray


def _mean_cross_entropy(params, features, targets):
    """Held-out mean cross-entropy, one per network of a stack."""
    z, _ = mlp_forward(params, features)
    return np.mean(_cross_entropy(z[..., 0], targets), axis=-1)


def _train_network(features, targets, subject, rows, depth, lams,
                   config: TrainConfig, seed: int):
    """Mini-batch Adam on rows ``rows`` (indices into ``features``, from
    which each batch is gathered) with subject-level validation early
    stopping, one network per ridge weight in ``lams``: all start from the
    same weights and see the same batches. Returns the stack of best
    iterates and the loss traces."""
    rng = np.random.default_rng(seed)
    p_in = features.shape[1]
    hidden = config.hidden_for(p_in - 1)
    sizes = (p_in,) + (hidden,) * depth + (1,)
    acts = ("relu",) * depth + ("identity",)
    params = init_mlp(sizes, acts, seed=int(rng.integers(2 ** 31)))
    # start the hazards at the marginal event rate instead of 0.5, so the
    # net begins calibrated and training spends itself on the modulation
    q = float(np.clip(targets[rows].mean(), 1e-6, 1.0 - 1e-6))
    params.biases[-1][0] = np.log(q / (1.0 - q))

    subjects = np.unique(subject[rows])
    val_idx, _ = stratified_cut(np.zeros(subjects.size), config.val_fraction,
                                rng)
    val_mask = np.isin(subject[rows], subjects[val_idx])
    monitor_val = val_mask.sum() >= 3 and (~val_mask).sum() >= 3
    tr = rows[~val_mask] if monitor_val else rows
    va = rows[val_mask]

    def batches():
        order = tr[rng.permutation(tr.size)]
        for start in range(0, order.size, config.batch_size):
            batch = order[start:start + config.batch_size]
            # take gathers rows faster than fancy indexing at small p
            yield features.take(batch, axis=0), targets.take(batch)

    # the held-out rows are gathered once per training, not every epoch
    held_score = (partial(_mean_cross_entropy, features=features[va],
                          targets=targets[va]) if monitor_val else None)

    return fit_adam(params, lams,
                    lambda stack, batch: nnsurv_loss_and_grad(stack, *batch),
                    batches, held_score, config)


def nnsurv_fit(data: SurvivalDataset, seed: int = 0,
               config: TrainConfig | None = None, depth: int = 1,
               n_intervals: int | None = None) -> NnsurvFit:
    """Duplicate, standardize (midpoint column included), train; the ridge
    is chosen by held-out cross-entropy on subject-level folds, and
    ``seed`` drives every random draw of the fit.

    ``depth`` 1 is the shallow variant, 2 the deep one. ``n_intervals``
    defaults to min(40, max(10, n // 16), distinct times).
    """
    if depth not in (1, 2):
        raise ValueError("depth must be 1 or 2")
    config = config or TrainConfig()
    if n_intervals is None:
        # coarse grids leave a visible staircase bias in the Brier score, so
        # scale the interval count with the training size; tied times cap it
        n_intervals = int(min(40, max(10, data.n // 16),
                              np.unique(data.time).size))
    grid = build_time_grid(data, n_intervals)
    batch = duplicate(data, grid)
    feats, mean, scale = standardize_covariates(batch.features)
    targets, subject = batch.targets, batch.subject
    del batch  # training needs only the standardized copy of its features

    def train(rows, lams, train_seed):
        return _train_network(feats, targets, subject, rows, depth, lams,
                              config, train_seed)

    def held_scores(stack, held):
        return -_mean_cross_entropy(stack, feats[held], targets[held])

    # a duplicated row's target is its subject's event in the final interval
    ridge, params, trace = fit_network(
        config, seed, targets.size, (1e-5, 1e-4, 1e-3), targets,
        lambda rng: (rng.permutation(data.n) % config.cv_folds)[subject],
        train, held_scores)
    return NnsurvFit(params=params, grid=grid, mean=mean, scale=scale,
                     depth=depth, ridge=ridge, loss_trace=trace)


def nnsurv_hazards(fit: NnsurvFit, x) -> np.ndarray:
    """Predicted discrete hazard in every interval: shape (L,) for one
    covariate row, (n, L) for a matrix with one row per subject."""
    X = check_rows(x, fit.mean.size - 1)
    mids = fit.grid.midpoints
    h = np.empty((X.shape[0], mids.size))
    for lo in range(0, X.shape[0], _PREDICT_BLOCK):
        rows = X[lo:lo + _PREDICT_BLOCK]
        feats = np.column_stack([np.repeat(rows, mids.size, axis=0),
                                 np.tile(mids, rows.shape[0])])
        z = apply_standardization(feats, fit.mean, fit.scale)
        # a stack of one (L, p + 1) matrix per subject, multiplied one at a
        # time as a one-row call is: one (n·L, p + 1) product rounds otherwise
        out, _ = mlp_forward(fit.params, z.reshape(rows.shape[0], mids.size, -1))
        h[lo:lo + _PREDICT_BLOCK] = _hazard(out[..., 0])
    np.clip(h, HAZARD_CLIP, 1.0 - HAZARD_CLIP, out=h)
    return h.reshape(np.shape(x)[:-1] + (mids.size,))


def nnsurv_survival(fit: NnsurvFit, x) -> SurvivalCurve:
    """S(t_l) = prod_{l' <= l} (1 - h_l'), stepped between the cuts: one
    curve for a covariate row, a batch for a matrix of rows."""
    h = nnsurv_hazards(fit, x)
    probs = np.cumprod(1.0 - h, axis=-1)
    return SurvivalCurve(grid=fit.grid.cuts[1:], probs=probs)
