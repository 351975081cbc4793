"""Censoring-aware evaluation of survival predictions.

The concordance index follows the time-dependent definition (both curves
evaluated at the earlier subject's observed time, prediction ties worth
0.5) and the Brier score uses inverse-probability-of-censoring weights
with the censoring survival function evaluated left-continuously.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import SurvivalCurve


@dataclass(frozen=True)
class KaplanMeier:
    """Product-limit estimator tabulated at its drop times.

    ``times`` holds the distinct times with at least one drop, ``surv``
    the estimate just after each drop, ``n_risk`` the at-risk counts.
    """

    times: np.ndarray
    surv: np.ndarray
    n_risk: np.ndarray

    def survival_at(self, t):
        """S(t), right-continuous."""
        t = np.asarray(t, dtype=np.float64)
        k = np.searchsorted(self.times, t, side="right") - 1
        out = np.where(k < 0, 1.0,
                       self.surv[np.clip(k, 0, max(self.surv.size - 1, 0))]
                       if self.surv.size else 1.0)
        return out if out.ndim else float(out)

    def survival_at_minus(self, t):
        """Left limit S(t-): drops strictly before t count."""
        t = np.asarray(t, dtype=np.float64)
        k = np.searchsorted(self.times, t, side="left") - 1
        out = np.where(k < 0, 1.0,
                       self.surv[np.clip(k, 0, max(self.surv.size - 1, 0))]
                       if self.surv.size else 1.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class MetricReport:
    """Summary of one model's predictive performance on one dataset."""

    c_td: float
    ibs: float
    brier_trace: np.ndarray  # rows of (t, BS(t))
    tau: float
    g_clamp_events: int = 0


def kaplan_meier(times, indicators) -> KaplanMeier:
    """Product-limit estimator of P(T > t) from right-censored data.

    For the censoring distribution, call with flipped indicators (1 - event).
    """
    times = np.asarray(times, dtype=np.float64)
    indicators = np.asarray(indicators)
    if times.size < 1:
        raise ValueError("need at least one observation")
    order = np.argsort(times, kind="stable")
    t_sorted = times[order]
    d_sorted = indicators[order].astype(np.float64)

    uniq, start = np.unique(t_sorted, return_index=True)
    d = np.add.reduceat(d_sorted, start)
    n_risk = (times.size - start).astype(np.float64)
    drop = d != 0
    return KaplanMeier(
        times=uniq[drop],
        surv=np.cumprod(1.0 - d[drop] / n_risk[drop]),
        n_risk=n_risk[drop],
    )


# events per comparison block (its work set is _BLOCK × n), and subjects
# per block of exact curves
_BLOCK = 256


def _check_lengths(predictions: SurvivalCurve, times, events):
    """Times and events as arrays, after requiring a batch with one curve
    per subject."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.int64)
    if (not isinstance(predictions, SurvivalCurve)
            or predictions.probs.ndim != 2 or times.size == 0
            or predictions.probs.shape[0] != times.size):
        raise ValueError("one predicted curve per subject is required")
    if events.shape != times.shape:
        raise ValueError("times and events must have the same length")
    return times, events


def _tabulate(curves: SurvivalCurve, t) -> tuple[np.ndarray, np.ndarray]:
    """Every curve at the times ``t``, one table column per step they fall on.

    The batch's grid cuts the time axis into steps on which every curve is
    constant, with a step before the first grid point where S = 1.
    Returns (table, col) with table[j, col[a]] equal to curves[j].at(t[a])
    bit for bit; the table holds n·min(len(t), G + 1) values.
    """
    steps, col = np.unique(np.searchsorted(curves.grid, t, side="right"),
                           return_inverse=True)
    table = curves.probs[:, np.maximum(steps - 1, 0)]
    table[:, steps == 0] = 1.0
    return table, col


def _concordance(table: np.ndarray, col: np.ndarray, times, events):
    """Pair counts of the time-dependent concordance.

    ``table[j, col[i]]`` is subject j's prediction at subject i's time
    (read for events i only); lower means an earlier expected event.
    Returns (concordant + 0.5·tied, comparable) over the pairs (i, j) with
    i an event and T_i < T_j, or T_i = T_j with j censored. In time order
    with events first at ties, each event's comparable subjects form a
    suffix, which is scanned for a block of events at a time.
    """
    is_event = events.astype(bool)
    order = np.lexsort((~is_event, times))
    pos = np.flatnonzero(is_event[order])
    event_t = times[order][pos]
    # ahead of an event's suffix: the events up to its time and the
    # subjects censored before it
    start = (np.searchsorted(event_t, event_t, side="right")
             + np.searchsorted(np.sort(times[~is_event]), event_t, side="left"))
    n = times.size
    less = tied = 0
    for lo in range(0, pos.size, _BLOCK):
        subj = order[pos[lo:lo + _BLOCK]]
        first = start[lo:lo + _BLOCK]
        own = table[subj, col[subj]]
        later = table[np.ix_(order[first[0]:], col[subj])]
        comparable = np.arange(first[0], n)[:, None] >= first
        less += int(np.count_nonzero((own < later) & comparable))
        tied += int(np.count_nonzero((own == later) & comparable))
    return less + 0.5 * tied, int((n - start).sum())


def c_index_td(predictions: SurvivalCurve, times, events) -> float:
    """Time-dependent concordance over ordered comparable pairs.

    Pair (i, j) is comparable when T_i < T_j with subject i an event, or
    T_i = T_j with i an event and j censored. It is concordant when the
    predicted survival of i at T_i falls below that of j at the same
    time; ties contribute 0.5. Only the events' times are tabulated, and
    the pairs are counted in time order without an n×n matrix.
    """
    times, events = _check_lengths(predictions, times, events)
    is_event = events.astype(bool)
    table, event_col = _tabulate(predictions, times[is_event])
    col = np.zeros(times.size, dtype=np.intp)
    col[is_event] = event_col
    concordant, comparable = _concordance(table, col, times, events)
    if comparable == 0:
        raise ValueError("no comparable pairs")
    return concordant / comparable


def _ipcw(times: np.ndarray, events: np.ndarray, censor_km: KaplanMeier):
    """Status and weights of the censoring-adjusted squared error.

    Returns ``at(t) -> (y, w, clamp_count)``. Events before t weigh
    1/G(T_i-) and subjects still at risk 1/G(t-); zero censoring-survival
    values are clamped to the smallest positive estimate so past events
    keep finite weight. The terms that do not depend on t are computed
    here, once.
    """
    positive = censor_km.surv[censor_km.surv > 0]
    g_floor = float(positive.min()) if positive.size else 1.0
    g_ti = np.atleast_1d(censor_km.survival_at_minus(times))
    is_event = events > 0
    clamped = is_event & (g_ti <= 0)
    event_w = np.zeros_like(times)
    event_w[is_event] = events[is_event] / np.where(clamped, g_floor, g_ti)[is_event]

    def at(t: float):
        y = (times >= t).astype(np.float64)
        past_event = (y == 0) & is_event
        clamps = int(np.count_nonzero(past_event & clamped))
        g_t = float(censor_km.survival_at_minus(t))
        if g_t <= 0 and y.any():
            clamps += int(y.sum())
            g_t = g_floor
        return y, np.where(past_event, event_w, 0.0) + y / g_t, clamps

    return at


def brier_score(predictions: SurvivalCurve, times, events, t: float,
                censor_km: KaplanMeier) -> float:
    """IPCW-weighted squared error between survival status at t and the
    predicted S(t|x)."""
    times, events = _check_lengths(predictions, times, events)
    table, _ = _tabulate(predictions, [t])
    y, w, clamps = _ipcw(times, events, censor_km)(t)
    if clamps:
        warnings.warn(f"censoring survival hit 0; clamped {clamps} weight(s)",
                      RuntimeWarning, stacklevel=2)
    return float(np.mean(w * (y - table[:, 0]) ** 2))


def brier_trace(predictions: SurvivalCurve, times, events,
                grid=None):
    """Brier score along a grid (default: 0 plus 100 equispaced points up
    to the largest observed time). Returns (trace rows (t, BS), clamp count)."""
    times, events = _check_lengths(predictions, times, events)
    tau = float(times.max())
    grid = np.linspace(0.0, tau, 101) if grid is None else np.asarray(
        grid, dtype=np.float64)
    at = _ipcw(times, events, kaplan_meier(times, 1 - events))
    table, col = _tabulate(predictions, grid)
    rows = []
    total_clamps = 0
    for t, c in zip(grid, col):
        y, w, clamps = at(float(t))
        total_clamps += clamps
        rows.append((float(t), float(np.mean(w * (y - table[:, c]) ** 2))))
    return np.asarray(rows), total_clamps


def integrate_trace(trace: np.ndarray, tau: float) -> float:
    """Time-average a (t, value) trace by trapezoidal quadrature over [0, tau]."""
    t = trace[:, 0]
    v = trace[:, 1]
    return float(np.trapezoid(v, t) / tau)


def integrated_brier(predictions: SurvivalCurve, times, events) -> float:
    """Integrated Brier score: the Brier trace averaged over [0, tau]
    with tau the largest observed time."""
    times, events = _check_lengths(predictions, times, events)
    tau = float(times.max())
    trace, clamps = brier_trace(predictions, times, events)
    if clamps:
        warnings.warn(f"censoring survival hit 0; clamped {clamps} weight(s)",
                      RuntimeWarning, stacklevel=2)
    return integrate_trace(trace, tau)


def metric_report(predictions: SurvivalCurve, times, events) -> MetricReport:
    """C_td, IBS and the per-time Brier trace for one set of predictions."""
    times, events = _check_lengths(predictions, times, events)
    tau = float(times.max())
    trace, clamps = brier_trace(predictions, times, events)
    return MetricReport(
        c_td=c_index_td(predictions, times, events),
        ibs=integrate_trace(trace, tau),
        brier_trace=trace,
        tau=tau,
        g_clamp_events=clamps,
    )


def reference_metrics(simulated, test_idx) -> MetricReport:
    """Metrics of the exact data-generating model on a held-out subset.

    The true survival curves are tabulated only where the metrics read
    them, at the test events' times and on the Brier grid, so step
    interpolation is exact at every evaluation point. They fill one table
    a block of ``_BLOCK`` subjects at a time.
    """
    from .simgen import true_survival

    test_idx = np.asarray(test_idx, dtype=np.intp)
    data = simulated.data
    times = data.time[test_idx]
    events = data.event[test_idx]
    tau = float(times.max())
    grid = np.unique(np.concatenate([times[events == 1],
                                     np.linspace(0.0, tau, 101)[1:]]))
    probs = np.empty((test_idx.size, grid.size))
    for lo in range(0, test_idx.size, _BLOCK):
        rows = data.X[test_idx[lo:lo + _BLOCK]]
        probs[lo:lo + _BLOCK] = true_survival(simulated, rows, grid).probs
    return metric_report(SurvivalCurve(grid, probs), times, events)
