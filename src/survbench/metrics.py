"""Censoring-aware evaluation of survival predictions.

The concordance index follows the time-dependent definition (both curves
evaluated at the earlier subject's observed time, prediction ties worth
0.5) and the Brier score uses inverse-probability-of-censoring weights
with the censoring Kaplan-Meier curve read just below each time. Every
curve, predicted or estimated, is a ``SurvivalCurve`` read through
``SurvivalCurve.table``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SurvivalCurve
from .simgen import survival_probability, true_survival


@dataclass(frozen=True)
class MetricReport:
    """Summary of one model's predictive performance on one dataset."""

    c_td: float
    ibs: float
    brier_trace: np.ndarray  # rows of (t, BS(t))
    tau: float


def kaplan_meier(times, indicators) -> SurvivalCurve:
    """Product-limit estimator of P(T > t) from right-censored data, as the
    curve that starts at (0, 1) and steps down at each time with an event.

    Times must be strictly positive and finite. For the censoring
    distribution, call with flipped indicators (1 - event); its left limit
    G(s-) is ``at(np.nextafter(s, -np.inf))``, since every drop before s
    lies at or below the largest float below s.
    """
    times = np.asarray(times, dtype=np.float64)
    indicators = np.asarray(indicators)
    if times.size < 1:
        raise ValueError("need at least one observation")
    if not np.all(np.isfinite(times)) or np.any(times <= 0):
        raise ValueError("times must be strictly positive and finite")
    order = np.argsort(times, kind="stable")
    t_sorted = times[order]
    d_sorted = indicators[order].astype(np.float64)

    uniq, start = np.unique(t_sorted, return_index=True)
    d = np.add.reduceat(d_sorted, start)
    n_risk = (times.size - start).astype(np.float64)
    drop = d != 0
    return SurvivalCurve(
        grid=np.concatenate(([0.0], uniq[drop])),
        probs=np.concatenate(([1.0], np.cumprod(1.0 - d[drop] / n_risk[drop]))))


# most values one comparison block reads (suffix rows × events): the
# block's read, its comparison masks and the reference's exact values
# stay within a fixed working set whatever n is; an event whose suffix
# alone is longer makes a block of its own
_BUDGET = 2**18


def _check_lengths(predictions: SurvivalCurve, times, events):
    """Times and events as arrays, after requiring a batch with one curve
    per subject, finite positive times and 0/1 events."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.int64)
    if (not isinstance(predictions, SurvivalCurve)
            or predictions.probs.ndim != 2 or times.size == 0
            or predictions.probs.shape[0] != times.size):
        raise ValueError("one predicted curve per subject is required")
    if events.shape != times.shape:
        raise ValueError("times and events must have the same length")
    if not (times.min() > 0.0 and times.max() < np.inf):  # NaN fails too
        raise ValueError("times must be strictly positive and finite")
    if not (events.min() >= 0 and events.max() <= 1):
        raise ValueError("event values must be 0 or 1")
    return times, events


def _concordance(read, times: np.ndarray,
                 events: np.ndarray) -> tuple[float, int]:
    """Time-dependent concordance from a column reader.

    ``read(rows, subj)`` gives the predictions of subjects ``rows`` at the
    times of events ``subj``, one column per event; lower means an earlier
    expected event. Returns (concordant + 0.5·tied, comparable) over the
    pairs (i, j) with i an event and T_i < T_j, or T_i = T_j with j
    censored. In time order with events first at ties, each event's
    comparable subjects form a suffix. A block of events reads one column
    per event, from the block's first event to the end of the order, so
    the events' own values come with their suffixes. It takes as many
    events as keep that read within ``_BUDGET`` values, at least one:
    blocks are short while the suffixes are long and grow toward the end
    of the order. Nothing is read when no pair is comparable.
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
    comparable = int((n - start).sum())
    if comparable == 0:
        return 0.0, 0
    less = tied = lo = 0
    while lo < pos.size:
        hi = lo + max(1, _BUDGET // (n - pos[lo]))
        block_pos = pos[lo:hi]
        subj = order[block_pos]
        first = start[lo:hi]
        # the block's own events lie ahead of their suffixes, so each
        # event's own value sits on its row of the same read
        later = read(order[block_pos[0]:], subj)
        own = later[block_pos - block_pos[0], np.arange(subj.size)]
        in_suffix = np.arange(block_pos[0], n)[:, None] >= first
        less += int(np.count_nonzero((own < later) & in_suffix))
        tied += int(np.count_nonzero((own == later) & in_suffix))
        lo = hi
    return less + 0.5 * tied, comparable


def c_index_td(predictions: SurvivalCurve, times, events) -> float:
    """Time-dependent concordance over ordered comparable pairs.

    Pair (i, j) is comparable when T_i < T_j with subject i an event, or
    T_i = T_j with i an event and j censored. It is concordant when the
    predicted survival of i at T_i falls below that of j at the same
    time; ties contribute 0.5. The curves are read only at the events'
    times, a block at a time, and the pairs are counted in time order
    without an n×n matrix.
    """
    times, events = _check_lengths(predictions, times, events)

    def read(rows, subj):
        table, col = predictions.table(times[subj], rows[:, None])
        return np.take(table, col, axis=1)

    concordant, comparable = _concordance(read, times, events)
    if comparable == 0:
        raise ValueError("no comparable pairs")
    return concordant / comparable


def brier_trace(predictions: SurvivalCurve, times, events, grid=None):
    """IPCW Brier score along a grid (default: 0 plus 100 equispaced
    points up to the largest observed time), as rows of (t, BS(t)).

    BS(t) is the mean over subjects of w·(1{T_i >= t} − S(t|x_i))², with
    weight 1/G(T_i-) for events before t, 1/G(t-) for subjects still at
    risk and 0 for subjects censored before t; G is the Kaplan-Meier
    estimate of the censoring survival. No weight that counts divides by
    zero: G(s-) = 0 needs a time before s at which every subject still at
    risk is censored, and then no subject is at risk at s and no event
    lies at or after s. So past the largest time, where G(t-) may be 0,
    the at-risk term is empty and counts 0.
    """
    times, events = _check_lengths(predictions, times, events)
    grid = (np.linspace(0.0, float(times.max()), 101) if grid is None
            else np.asarray(grid, dtype=np.float64))
    censor_km = kaplan_meier(times, 1 - events)
    is_event = events > 0
    event_w = np.zeros_like(times)
    event_w[is_event] = (events[is_event] / censor_km.at(
        np.nextafter(times[is_event], -np.inf)))
    g_grid = censor_km.at(np.nextafter(grid, -np.inf))
    table, col = predictions.table(grid)
    rows = []
    for t, g_t, c in zip(grid, g_grid, col):
        y = (times >= t).astype(np.float64)
        past_event = (y == 0) & is_event
        # y is 0 or 1, so y / G(t-) is y times 1 / G(t-)
        at_risk_w = 1.0 / g_t if g_t > 0 else 0.0
        w = np.where(past_event, event_w, 0.0) + y * at_risk_w
        rows.append((float(t), float(np.mean(w * (y - table[:, c]) ** 2))))
    return np.asarray(rows)


def integrate_trace(trace: np.ndarray, tau: float) -> float:
    """Time-average a (t, value) trace by trapezoidal quadrature over [0, tau]."""
    t = trace[:, 0]
    v = trace[:, 1]
    return float(np.trapezoid(v, t) / tau)


def metric_report(predictions: SurvivalCurve, times, events) -> MetricReport:
    """C_td, IBS and the per-time Brier trace for one set of predictions."""
    times, events = _check_lengths(predictions, times, events)
    tau = float(times.max())
    trace = brier_trace(predictions, times, events)
    return MetricReport(
        c_td=c_index_td(predictions, times, events),
        ibs=integrate_trace(trace, tau),
        brier_trace=trace,
        tau=tau,
    )


def reference_metrics(simulated, test_idx) -> MetricReport:
    """Metrics of the exact data-generating model on a held-out subset.

    The true curves are evaluated only where the metrics read them. C_td
    takes one block of events at a time and evaluates the model's
    closed-form survival at the block's distinct event times, only for
    the subjects from the block's first event on in time order (its
    events and their comparable suffixes), so it holds at most
    ``_BUDGET`` exact values, or one event's suffix; the Brier trace
    reads one ``true_survival`` batch of n × 100 on its grid. Every value
    is the exact model at an evaluation point.
    """
    test_idx = np.asarray(test_idx, dtype=np.intp)
    if test_idx.size == 0:
        raise ValueError("reference_metrics needs at least one test subject")
    data = simulated.data
    X = data.X[test_idx]
    times = data.time[test_idx]
    events = data.event[test_idx]
    # each row gets the bits true_survival gives it
    eta = np.vecdot(X, simulated.true_beta)

    def exact(rows, subj):
        t, col = np.unique(times[subj], return_inverse=True)
        return np.take(survival_probability(simulated.family,
                                            simulated.baseline,
                                            eta[rows, None], t), col, axis=1)

    concordant, comparable = _concordance(exact, times, events)
    if comparable == 0:
        raise ValueError("no comparable pairs")
    tau = float(times.max())
    curves = true_survival(simulated, X, np.linspace(0.0, tau, 101)[1:])
    trace = brier_trace(curves, times, events)
    return MetricReport(c_td=concordant / comparable,
                        ibs=integrate_trace(trace, tau), brier_trace=trace,
                        tau=tau)
