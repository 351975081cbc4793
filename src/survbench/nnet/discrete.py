"""Discrete-time hazard networks.

Observed time is cut into L intervals; every subject is duplicated into
one input row per interval survived, with the interval midpoint appended
as an extra covariate (Biganzoli et al. 1998). The network's linear head
emits each row's hazard logit z, the log-odds of the conditional event
probability h = sigma(z) (the logistic-hazard form of Gensheimer &
Narasimhan 2019). Training minimizes the exact cross-entropy
log(1 + e^z) - d z against the per-interval death indicator d plus a
squared-L2 penalty. A one-hidden-layer ReLU net is the shallow variant;
the deep variant adds a second hidden layer. Survival curves are
cumulative products of one minus the predicted hazards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import (
    SurvivalCurve,
    SurvivalDataset,
    apply_standardization,
    check_rows,
    cross_validate,
    standardize_covariates,
)
from .config import TrainConfig
from .mlp import (
    MlpParams,
    init_mlp,
    mlp_backward,
    mlp_forward,
    squared_norm,
    unpack,
)
from .train import fit_adam

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
    interval: np.ndarray  # 1-based interval index per row

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


def build_time_grid(data: SurvivalDataset, n_intervals: int = 20) -> DiscreteTimeGrid:
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
    interval = np.arange(subject.size) - (ends - last)[subject] + 1
    targets = np.zeros(subject.size)
    targets[ends - 1] = data.event
    return DuplicatedBatch(
        features=np.column_stack([data.X[subject],
                                  grid.midpoints[interval - 1]]),
        targets=targets,
        subject=subject,
        interval=interval,
    )


def _hazard(z: np.ndarray) -> np.ndarray:
    """sigma(z): the discrete hazard of logit z."""
    return 1.0 / (1.0 + np.exp(-z))


def _cross_entropy(z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per-row -[d log h + (1 - d) log(1 - h)] at h = sigma(z), exact at
    any logit."""
    return np.logaddexp(0.0, z) - d * z


def nnsurv_loss_and_grad(params: MlpParams, features: np.ndarray,
                         targets: np.ndarray, lam):
    """Summed cross-entropy of the hazard logits plus the squared-L2
    penalty; the gradient is laid out like ``params.vec``. For a stack of
    networks ``lam`` holds one ridge weight per network and the losses
    have shape (C,)."""
    lam = np.asarray(lam, dtype=np.float64)
    if (lam < 0).any():
        raise ValueError("ridge weight must be nonnegative")
    z, caches = mlp_forward(params, features)
    z = z[..., 0]
    d = np.asarray(targets, dtype=np.float64)
    loss = np.add.reduce(_cross_entropy(z, d), axis=-1) + lam * squared_norm(params)
    d_out = (_hazard(z) - d)[..., None]  # d ce / d z
    grad = mlp_backward(params, caches, d_out)
    grad += (2.0 * lam)[..., None] * params.vec
    return loss, grad


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


def _train_network(features, targets, subject, depth, lams, config: TrainConfig,
                   seed: int):
    """Mini-batch Adam with subject-level validation early stopping, one
    network per ridge weight in ``lams``: all start from the same weights
    and see the same batches. Returns the stack of best iterates and the
    loss traces."""
    rng = np.random.default_rng(seed)
    p_in = features.shape[1]
    hidden = config.hidden_for(p_in - 1)
    sizes = (p_in,) + (hidden,) * depth + (1,)
    acts = ("relu",) * depth + ("identity",)
    params = init_mlp(sizes, acts, seed=int(rng.integers(2 ** 31)))
    # start the hazards at the marginal event rate instead of 0.5, so the
    # net begins calibrated and training spends itself on the modulation
    q = float(np.clip(targets.mean(), 1e-6, 1.0 - 1e-6))
    params.biases[-1][0] = np.log(q / (1.0 - q))

    subjects = np.unique(subject)
    n_val = int(round(config.val_fraction * subjects.size))
    val_subjects = rng.permutation(subjects)[:n_val]
    val_mask = np.isin(subject, val_subjects)
    monitor_val = val_mask.sum() >= 3 and (~val_mask).sum() >= 3
    if not monitor_val:
        val_mask = np.zeros(features.shape[0], dtype=bool)
    tr_feat, tr_tgt = features[~val_mask], targets[~val_mask]
    va_feat, va_tgt = features[val_mask], targets[val_mask]

    n_rows = tr_feat.shape[0]

    def batches():
        order = rng.permutation(n_rows)
        feat, tgt = tr_feat[order], tr_tgt[order]
        for start in range(0, n_rows, config.batch_size):
            stop = start + config.batch_size
            yield feat[start:stop], tgt[start:stop]

    held_score = None
    if monitor_val:
        def held_score(stack):
            return _mean_cross_entropy(stack, va_feat, va_tgt)

    return fit_adam(
        params, lams,
        lambda stack, lams, batch: nnsurv_loss_and_grad(stack, *batch, lams),
        batches, held_score, config)


def _select_ridge(features, targets, subject, depth, config: TrainConfig,
                  rng: np.random.Generator) -> float:
    """Subject-level k-fold CV on held-out mean cross-entropy."""
    subjects = np.unique(subject)
    labels_by_subject = rng.permutation(subjects.size) % config.cv_folds
    labels = labels_by_subject[np.searchsorted(subjects, subject)]
    fold_seeds = rng.integers(2 ** 31, size=config.cv_folds)
    fracs = config.ridge_grid if config.ridge_grid is not None else (1e-5, 1e-4, 1e-3)

    candidates = [frac * features.shape[0] for frac in fracs]

    def fold_scores(fold, held):
        stack, _ = _train_network(features[~held], targets[~held],
                                  subject[~held], depth, candidates, config,
                                  int(fold_seeds[fold]))
        return -_mean_cross_entropy(stack, features[held], targets[held])

    # a duplicated row's target is its subject's event in the final interval
    return cross_validate(candidates, labels, targets, config.cv_folds,
                          fold_scores)


def nnsurv_fit(data: SurvivalDataset, config: TrainConfig | None = None,
               depth: int = 1, n_intervals: int = 20) -> NnsurvFit:
    """Duplicate, standardize (midpoint column included), train.

    ``depth`` 1 is the shallow variant, 2 the deep one.
    """
    if depth not in (1, 2):
        raise ValueError("depth must be 1 or 2")
    config = config or TrainConfig()
    grid = build_time_grid(data, n_intervals)
    batch = duplicate(data, grid)
    feats, mean, scale = standardize_covariates(batch.features)
    rng = np.random.default_rng(config.seed)

    if config.ridge is not None:
        ridge = config.ridge
    else:
        ridge = _select_ridge(feats, batch.targets, batch.subject, depth,
                              config, rng)
    stack, traces = _train_network(feats, batch.targets, batch.subject, depth,
                                   [ridge], config, int(rng.integers(2 ** 31)))
    return NnsurvFit(params=unpack(stack, stack.vec[0]), grid=grid, mean=mean,
                     scale=scale, depth=depth, ridge=ridge, loss_trace=traces[0])


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
