"""Shared data model for right-censored survival data.

Conventions: ``time`` holds observed times in days (event or censoring,
whichever came first), ``event`` is 1 when the event was observed and 0
when censored. All containers are immutable after construction and all
operations are pure functions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class TimeOrder:
    """Subjects sorted by a key, largest first and stable on ties, with the
    sorted position that closes each sorted position's tie group.

    A cumulative sum down ``order``, read at ``group_end``, sums a value
    over every subject whose key is at least the subject's own.
    """

    order: np.ndarray
    group_end: np.ndarray

    @classmethod
    def descending(cls, key) -> "TimeOrder":
        key = np.asarray(key, dtype=np.float64)
        order = np.argsort(-key, kind="stable")
        k_s = key[order]
        group_id = np.concatenate([[0], np.cumsum(np.diff(k_s) != 0)])
        last_of_group = np.concatenate([np.nonzero(np.diff(k_s))[0],
                                        [key.shape[0] - 1]])
        return cls(order, last_of_group[group_id])


@dataclass(frozen=True)
class RiskSetIndex:
    """Both time orders of one set of observed times: ``later`` sums over
    { l : T_l >= T_i } (the risk set of i), ``earlier`` over
    { l : T_l <= T_i }."""

    later: TimeOrder
    earlier: TimeOrder

    @classmethod
    def of(cls, time) -> "RiskSetIndex":
        time = np.asarray(time, dtype=np.float64)
        return cls(TimeOrder.descending(time), TimeOrder.descending(-time))


@dataclass(frozen=True)
class SurvivalDataset:
    """Covariate matrix plus observed times and event indicators.

    Parameters
    ----------
    X : ndarray of shape (n, p)
        Finite real covariates, one row per subject.
    time : ndarray of shape (n,)
        Observed times, strictly positive and finite.
    event : ndarray of shape (n,)
        Event indicators in {0, 1}; 1 means the event was observed.
    """

    X: np.ndarray
    time: np.ndarray
    event: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D matrix")
        time = np.asarray(self.time, dtype=np.float64)
        event = np.asarray(self.event)
        if time.ndim != 1 or event.ndim != 1:
            raise ValueError("time and event must be 1-D")
        if not (X.shape[0] == time.shape[0] == event.shape[0]):
            raise ValueError(
                f"row mismatch: X has {X.shape[0]} rows, time {time.shape[0]}, "
                f"event {event.shape[0]}"
            )
        if not np.all(np.isfinite(X)):
            raise ValueError("covariates must be finite")
        if not np.all(np.isfinite(time)) or np.any(time <= 0):
            raise ValueError("times must be strictly positive and finite")
        # before the cast, which would truncate 0.5 or 1.7 to a valid value
        if not np.all((event == 0) | (event == 1)):
            raise ValueError("event values must be 0 or 1")
        event = event.astype(np.int64, copy=False)
        for name, arr in (("X", X), ("time", time), ("event", event)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @cached_property
    def risk_index(self) -> RiskSetIndex:
        """The time orders the Cox kernel reads, sorted once per dataset."""
        return RiskSetIndex.of(self.time)

    def subset(self, idx: np.ndarray) -> "SurvivalDataset":
        """Dataset restricted to the given row indices (copying); it builds
        its own ``risk_index``."""
        idx = np.asarray(idx, dtype=np.intp)
        return SurvivalDataset(self.X[idx], self.time[idx], self.event[idx])


_CHECK_ROWS = 256  # curves per monotonicity check; its temporary is _CHECK_ROWS × G


@dataclass(frozen=True)
class SurvivalCurve:
    """Survival functions S(t) tabulated on one increasing time grid.

    ``probs`` of shape (G,) is one subject's curve, ``probs[k]`` = S(grid[k]);
    shape (n, G) is a batch of n curves on the same grid, one row per
    subject, with ``len()`` and integer indexing that return one-subject
    curves. Between grid points a curve is a right-continuous step
    function, S(t) = 1 left of the grid and S(t) = its last value right of
    it.
    """

    grid: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        # a view, so freezing it leaves the caller's array writable
        probs = np.asarray(self.probs, dtype=np.float64).view()
        if (grid.ndim != 1 or probs.ndim not in (1, 2)
                or probs.shape[-1] != grid.size):
            raise ValueError("grid must be 1-D, probs of shape (G,) or (n, G)")
        if grid.size == 0:
            raise ValueError("empty curve")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        lo, hi = (probs.min(), probs.max()) if probs.size else (0.0, 1.0)
        # min and max propagate NaN, which fails both comparisons
        if not (lo >= -1e-12 and hi <= 1 + 1e-12):
            raise ValueError("survival probabilities must lie in [0, 1], "
                             "not NaN")
        rows = probs.reshape(-1, grid.size)
        for start in range(0, rows.shape[0], _CHECK_ROWS):
            if np.any(np.diff(rows[start:start + _CHECK_ROWS], axis=1) > 1e-12):
                raise ValueError("survival probabilities must be non-increasing")
        if lo < 0 or hi > 1:
            probs = np.clip(probs, 0.0, 1.0)
        grid.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        if self.probs.ndim == 1:
            raise TypeError("a one-subject curve has no subject axis")
        return self.probs.shape[0]

    def __getitem__(self, j) -> "SurvivalCurve":
        """Subject ``j``'s curve of a batch; IndexError past the last one."""
        return SurvivalCurve(self.grid, self.probs[j])

    def table(self, t, rows=...) -> tuple[np.ndarray, np.ndarray]:
        """The curves at the times ``t`` (1-D), one column per step they
        fall on.

        The grid cuts the time axis into steps on which every curve is
        constant, with a step before the first grid point where S = 1.
        ``rows`` indexes the subject axis of a batch (default: every
        curve). Returns ``(table, col)`` with ``table[..., col[a]]`` the
        curves at ``t[a]``, bit for bit; the table has at most
        min(len(t), G + 1) columns. Every step lookup of a curve goes
        through here.
        """
        steps, col = np.unique(np.searchsorted(self.grid, t, side="right"),
                               return_inverse=True)
        table = self.probs[rows, np.maximum(steps - 1, 0)]
        table[..., steps == 0] = 1.0
        return table, col

    def at(self, t) -> np.ndarray:
        """S at times ``t`` (scalar or array), read through ``table``: the
        value at the largest grid point <= t, 1 before the grid. A batch
        gives one row per subject."""
        t = np.asarray(t, dtype=np.float64)
        table, col = self.table(t.ravel())
        out = table[..., col].reshape(self.probs.shape[:-1] + t.shape)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Split:
    """Train/test index partition, remembering the seed that made it."""

    train: np.ndarray
    test: np.ndarray
    seed: int

    def __post_init__(self):
        train = np.asarray(self.train, dtype=np.intp)
        test = np.asarray(self.test, dtype=np.intp)
        if np.intersect1d(train, test).size:
            raise ValueError("train and test indices overlap")
        train.setflags(write=False)
        test.setflags(write=False)
        object.__setattr__(self, "train", train)
        object.__setattr__(self, "test", test)


def risk_set_sums(order: TimeOrder, values) -> np.ndarray:
    """For each subject i, the sum of ``values`` over { l : T_l >= T_i }.

    ``order`` is the times' order, a ``RiskSetIndex``'s ``later``
    (its ``earlier`` sums over { l : T_l <= T_i } instead). ``values`` may
    be (n,) or (n, p); sums come back in subject order. Tied times are
    mutually at risk.
    """
    return _accumulate_in_order(order, np.asarray(values, dtype=np.float64),
                                np.cumsum)


def _accumulate_in_order(order: TimeOrder, values: np.ndarray, accumulate):
    """``accumulate`` (a cumulative reduction along axis 0) down ``order``,
    read at each tie group's end, returned in subject order."""
    sums_sorted = accumulate(values[order.order], axis=0)[order.group_end]
    out = np.empty_like(sums_sorted)
    out[order.order] = sums_sorted
    return out


# Within this gap between the largest linear predictor and the latest-time
# subject's, one shift by the largest keeps every risk-set sum above e^-600,
# far from subnormal, and the derivative's sums of 1 / S_j finite; past it
# each risk set is shifted by its own maximum.
_ONE_SHIFT_SPAN = 600.0


def _cox_partial_likelihood(eta, index: RiskSetIndex, event,
                            with_derivative: bool):
    """Negative Cox partial log-likelihood of linear predictors ``eta``,
    -sum_i delta_i [eta_i - log sum_{l in R_i} exp(eta_l)], with Breslow
    risk sets (ties mutually at risk) read off ``index``.

    With ``with_derivative``, also d(-pll)/d eta_i = e^{eta_i} q_i - delta_i,
    where q_i sums delta_j / S_j over the events j with T_j <= T_i and
    S_j = sum_{l in R_j} e^{eta_l}.
    """
    eta = np.asarray(eta, dtype=np.float64)
    events = np.asarray(event) == 1
    shift = float(eta.max())
    # the latest-time subject is in every risk set, so its term bounds every
    # risk-set sum from below
    if eta[index.later.order[0]] < shift - _ONE_SHIFT_SPAN:
        return _cox_running_shift(eta, events, index, with_derivative)
    w = np.exp(eta - shift)
    denom = risk_set_sums(index.later, w)
    loss = float(np.sum(np.log(denom[events]) + shift - eta[events]))
    if not with_derivative:
        return loss
    inv = np.where(events, 1.0 / denom, 0.0)
    d_eta = w * risk_set_sums(index.earlier, inv) - events.astype(np.float64)
    return loss, d_eta


def _cox_running_shift(eta, events, index: RiskSetIndex,
                       with_derivative: bool):
    """The kernel for an ``eta`` whose spread defeats one shift: log S_i
    comes from a running log-sum-exp down the time order, which shifts each
    partial sum by its own running maximum, and every derivative term
    e^{eta_l} / S_j = e^{eta_l - log S_j} is formed in log space, so none
    underflows."""
    log_denom = _accumulate_in_order(index.later, eta, np.logaddexp.accumulate)
    loss = float(np.sum(log_denom[events] - eta[events]))
    if not with_derivative:
        return loss
    log_q = _accumulate_in_order(index.earlier,
                                 np.where(events, -log_denom, -np.inf),
                                 np.logaddexp.accumulate)
    return loss, np.exp(eta + log_q) - events.astype(np.float64)


def cox_loss(eta, index: RiskSetIndex, event) -> float:
    """Negative Cox partial log-likelihood of linear predictors ``eta``;
    0 when no event is observed. ``index`` is ``RiskSetIndex.of(time)`` of
    the observed times, usually a dataset's ``risk_index``."""
    return _cox_partial_likelihood(eta, index, event, with_derivative=False)


def cox_loss_and_grad(eta, index: RiskSetIndex, event):
    """``(cox_loss, d cox_loss / d eta)``; the derivative has one entry per
    subject and is zero when no event is observed."""
    return _cox_partial_likelihood(eta, index, event, with_derivative=True)


def standardize_covariates(X: np.ndarray):
    """Center and scale columns to mean 0 / sample sd 1 (n-1 denominator).

    Returns ``(Z, mean, scale)`` with ``Z = apply_standardization(X, mean,
    scale)``, the transform a fit stores for the rows it predicts. A
    constant column gets an infinite ``scale``, and so does a column whose
    sd is at most 16·eps·max|x|: its spread is that of a few roundings of
    its largest value, not a signal. Such a column maps to 0 in ``Z`` and
    in every finite row the stored transform is applied to later.

    The call allocates one matrix of X's size: the moments are taken in
    it, by the steps ``np.std`` takes, and ``Z`` is then written into it.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError("X must be a 2-D matrix with at least one column")
    # moments of each column scaled by the power of two of its largest |x|:
    # exact, and no square overflows; a single row has sd 0 (ddof 0)
    buf = np.abs(X)
    top = buf.max(axis=0)
    _, exp2 = np.frexp(top)
    np.ldexp(X, -exp2, out=buf)
    scaled_mean = buf.mean(axis=0)
    buf -= scaled_mean
    np.multiply(buf, buf, out=buf)
    dof = max(X.shape[0] - 1, 1)
    mean = np.ldexp(scaled_mean, exp2)
    sd = np.ldexp(np.sqrt(buf.sum(axis=0) / dof), exp2)
    constant = sd <= 16 * np.finfo(np.float64).eps * top
    scale = np.where(constant, np.inf, sd)
    np.subtract(X, mean, out=buf)
    np.divide(buf, scale, out=buf)
    return buf, mean, scale


def apply_standardization(X: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Apply a stored standardization transform to new rows:
    ``(X - mean) / scale``, 0 in a column whose ``scale`` is infinite."""
    X = np.asarray(X, dtype=np.float64)
    return (X - np.asarray(mean)) / np.asarray(scale)


def check_rows(X, p: int) -> np.ndarray:
    """Covariate rows to predict for, as an (n, p) float matrix; one row
    may come as a vector. Every predictor checks its rows here, once."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != p or not np.all(np.isfinite(X)):
        raise ValueError(
            f"prediction rows must form an (n, {p}) matrix of finite covariates")
    return X


def _stratum_orders(strata: np.ndarray, rng: np.random.Generator) -> list:
    """A random order of the rows of each 0/1 stratum, stratum 0 drawn first.

    An empty stratum draws nothing from ``rng``.
    """
    return [rng.permutation(np.flatnonzero(strata == value)) for value in (0, 1)]


def stratified_cut(strata: np.ndarray, fraction: float,
                   rng: np.random.Generator):
    """Cut each stratum's random order after round(fraction * size) rows.

    Returns ``(head, tail)``, each a sorted index array.
    """
    heads, tails = [], []
    for order in _stratum_orders(strata, rng):
        cut = int(round(fraction * order.size))
        heads.append(order[:cut])
        tails.append(order[cut:])
    return np.sort(np.concatenate(heads)), np.sort(np.concatenate(tails))


def stratified_folds(strata: np.ndarray, nfolds: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Fold label per row, dealt round-robin along each stratum's random
    order, so fold sizes within a stratum differ by at most one."""
    labels = np.empty(strata.shape[0], dtype=np.int64)
    for order in _stratum_orders(strata, rng):
        labels[order] = np.arange(order.size) % nfolds
    return labels


def cross_validate(candidates, labels: np.ndarray, event, nfolds: int,
                   fold_scores) -> float:
    """The candidate with the highest held-out score summed over the
    ``nfolds`` folds of ``labels``; the first one on ties.

    ``fold_scores(fold, held)`` gets a fold's number and held-out row mask
    and returns the held-out score of every candidate, shape (C,) (higher
    is better). A fold whose training or held-out rows hold no event in
    ``event`` (one entry per row) is skipped with a warning; with every
    fold skipped the first candidate is returned, also with a warning.
    """
    scores = np.zeros(len(candidates))
    used_folds = 0
    for fold in range(nfolds):
        held = labels == fold
        if not (event[held].any() and event[~held].any()):
            warnings.warn(f"fold {fold} has no events on one side; skipped",
                          RuntimeWarning, stacklevel=3)
            continue
        used_folds += 1
        scores += fold_scores(fold, held)
    if used_folds == 0:
        warnings.warn("every fold was skipped; using the first candidate "
                      f"{candidates[0]:g}", RuntimeWarning, stacklevel=3)
    return float(candidates[int(np.argmax(scores))])


def train_test_split(data: SurvivalDataset, fraction: float, seed: int):
    """Split into train/test parts, stratified on the event indicator.

    ``fraction`` is the train share. Deterministic given ``seed``; the
    censoring proportion of each part differs from the full data by at
    most one subject per stratum.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    train, test = stratified_cut(data.event, fraction,
                                 np.random.default_rng(seed))
    if train.size == 0 or test.size == 0:
        raise ValueError(
            f"fraction {fraction} leaves an empty part (n={data.n}: "
            f"{train.size} train / {test.size} test)"
        )
    split = Split(train=train, test=test, seed=seed)
    return data.subset(split.train), data.subset(split.test), split
