import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survbench import metrics, simgen
from survbench.core import SurvivalCurve, SurvivalDataset
from survbench.metrics import (
    brier_trace,
    c_index_td,
    integrate_trace,
    kaplan_meier,
    metric_report,
    reference_metrics,
)
from survbench.simgen import (
    LogNormal,
    ModelFamily,
    SimulationSpec,
    Weibull,
    generate,
    true_survival,
)


def km_brute_force(times, indicators, left=False):
    """Literal product-limit: S(t) = prod over event times u <= t of
    (1 - d(u)/n(u)); with ``left``, the left limit S(t-) over u < t."""
    times = np.asarray(times, float)
    indicators = np.asarray(indicators)

    def at(t):
        s = 1.0
        for u in np.unique(times):
            if u > t or (left and u == t):
                break
            d = np.sum((times == u) & (indicators == 1))
            n_at_risk = np.sum(times >= u)
            if d:
                s *= 1.0 - d / n_at_risk
        return s

    return at


def left_limit(curve, t):
    """A step curve just below t: every drop before t lies at or below the
    largest float below t."""
    return curve.at(np.nextafter(t, -np.inf))


def c_td_brute_force(curves, times, events):
    """Exhaustive ordered-pair enumeration of the time-dependent C-index."""
    curves = list(curves)  # one-subject curves
    n = len(times)
    num = den = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            comp = (times[i] < times[j] and events[i] == 1) or (
                times[i] == times[j] and events[i] == 1 and events[j] == 0)
            if not comp:
                continue
            den += 1
            si = curves[i].at(times[i])
            sj = curves[j].at(times[i])
            num += 1.0 if si < sj else (0.5 if si == sj else 0.0)
    return num / den


def recorded_blocks(monkeypatch):
    """The (rows, events) of every block read that C_td makes from here
    on, in order."""
    blocks = []
    concordance = metrics._concordance

    def recording(read, times, events):
        def counted(rows, subj):
            blocks.append((rows.size, subj.size))
            return read(rows, subj)
        return concordance(counted, times, events)

    monkeypatch.setattr(metrics, "_concordance", recording)
    return blocks


def assert_within_budget(blocks, budget):
    """A read whose suffix alone exceeds the budget holds one event; every
    other read holds at most ``budget`` values."""
    for rows, events in blocks:
        assert events == 1 if rows > budget else rows * events <= budget


def assert_matches_oracle(curves, times, events):
    try:
        got = c_index_td(curves, times, events)
    except ValueError as err:
        assert "comparable" in str(err)
        with pytest.raises(ZeroDivisionError):
            c_td_brute_force(curves, times, events)
        return
    assert got == c_td_brute_force(curves, times, events)


def step_curves(values, grid):
    """One flat curve per subject at the given constant level."""
    grid = np.asarray(grid, float)
    return SurvivalCurve(grid, np.repeat(np.asarray(values, float)[:, None],
                                         grid.size, axis=1))


def brier_at(curves, times, events, t):
    """The Brier score at the one horizon t."""
    return brier_trace(curves, times, events, grid=[t])[0, 1]


def integrated_brier(curves, times, events):
    """The Brier trace on its default grid, averaged over [0, max time]."""
    return integrate_trace(brier_trace(curves, times, events), times.max())


def random_curves(rng, n, grid):
    """A batch of n random non-increasing curves, one rng draw per curve."""
    return SurvivalCurve(grid, np.array([np.sort(rng.random(grid.size))[::-1]
                                         for _ in range(n)]))


class TestKaplanMeier:
    def test_all_events_simple(self):
        km = kaplan_meier([1.0, 2.0, 3.0], [1, 1, 1])
        assert isinstance(km, SurvivalCurve)
        np.testing.assert_array_equal(km.grid, [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(km.probs, [1.0, 2 / 3, 1 / 3, 0.0])

    def test_all_censored_flat_one(self):
        km = kaplan_meier([1.0, 2.0], [0, 0])
        np.testing.assert_array_equal(km.grid, [0.0])
        assert km.at(5.0) == 1.0

    def test_single_event_steps_to_zero(self):
        km = kaplan_meier([3.0], [1])
        assert km.at(2.9) == 1.0
        assert km.at(3.0) == 0.0

    def test_left_limit(self):
        km = kaplan_meier([1.0, 2.0, 3.0], [1, 1, 1])
        assert left_limit(km, 2.0) == pytest.approx(2 / 3)
        assert km.at(2.0) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_times_that_are_not_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="positive"):
            kaplan_meier([1.0, bad], [1, 0])

    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_brute_force(self, raw_times, data):
        times = np.array(raw_times, float)
        events = np.array(
            [data.draw(st.integers(0, 1)) for _ in raw_times], dtype=int)
        km = kaplan_meier(times, events)
        oracle = km_brute_force(times, events)
        oracle_left = km_brute_force(times, events, left=True)
        for t in [0.5, 1.0, 2.5, 3.0, 5.0, 6.0]:
            assert km.at(t) == oracle(t)
            assert left_limit(km, t) == oracle_left(t)

    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 1)),
                    min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_censoring_left_limit_positive_where_weights_read_it(self, draws):
        # the IPCW weights divide by G(T_i-) at events and by G(t-) while
        # someone is at risk (t <= max time), while G(t) itself is 0 at
        # the max time when everyone left there is censored; past the max
        # time no one is at risk, and only the events' weights count
        times = np.array([t for t, _ in draws], float)
        events = np.array([e for _, e in draws])
        g = kaplan_meier(times, 1 - events)
        assert np.all(left_limit(g, times[events == 1]) > 0)
        at_risk = np.union1d(times, np.arange(0.0, times.max(), 0.5))
        assert np.all(left_limit(g, at_risk) > 0)
        past = times.max() + np.array([0.5, 1.0, 3.0])
        curves = step_curves(np.full(times.size, 0.5), [0.5, 9.0])
        with np.errstate(divide="raise", invalid="raise"):
            trace = brier_trace(curves, times, events,
                                grid=np.concatenate([at_risk, past]))
        assert np.all(np.isfinite(trace))
        event_w = np.zeros(times.size)
        event_w[events == 1] = 1.0 / left_limit(g, times[events == 1])
        np.testing.assert_allclose(trace[at_risk.size:, 1],
                                   0.25 * np.mean(event_w), rtol=1e-12)

    @pytest.mark.parametrize("events, want", [((1, 0), (0.25, 0.125)),
                                              ((1, 1), (0.25, 0.25))])
    def test_past_the_largest_time_no_one_is_at_risk(self, events, want):
        # with the largest time censored G(3-) = 0, and the empty at-risk
        # term must count 0, not 0/0
        curves = step_curves([0.5, 0.5], [0.5, 5.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = brier_trace(curves, np.array([1.0, 2.0]), np.array(events),
                                grid=[1.5, 3.0])
        np.testing.assert_array_equal(trace, [[1.5, want[0]], [3.0, want[1]]])


class TestCIndexTd:
    def test_perfect_anti_ranking(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.ones(4, dtype=int)
        grid = np.array([0.5, 5.0])
        curves = step_curves([0.1, 0.3, 0.6, 0.9], grid)
        assert c_index_td(curves, times, events) == 1.0

    def test_constant_predictions_random_guess(self):
        times = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        events = np.array([1, 0, 1, 1, 0])
        curves = step_curves([0.5] * 5, [0.5, 6.0])
        assert c_index_td(curves, times, events) == 0.5

    def test_no_comparable_pairs_errors(self):
        curves = step_curves([0.2, 0.8], [0.5, 3.0])
        with pytest.raises(ValueError, match="comparable"):
            c_index_td(curves, np.array([1.0, 2.0]), np.array([0, 0]))

    def test_hand_built_four_subject_case(self):
        rng = np.random.default_rng(0)
        times = np.array([2.0, 1.0, 2.0, 4.0])
        events = np.array([1, 0, 0, 1])
        grid = np.linspace(0.5, 5.0, 8)
        curves = random_curves(rng, 4, grid)
        want = c_td_brute_force(curves, times, events)
        assert c_index_td(curves, times, events) == pytest.approx(want, abs=1e-15)

    @given(st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_enumeration_oracle(self, data):
        n = data.draw(st.integers(2, 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        times = rng.integers(1, 5, size=n).astype(float)
        events = rng.integers(0, 2, size=n)
        if not ((events == 1).any()):
            events[0] = 1
        grid = np.linspace(0.5, 6.0, 6)
        curves = random_curves(rng, n, grid)
        assert_matches_oracle(curves, times, events)

    @given(st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_times_before_grid_match_oracle(self, data):
        # grids start after some observed times, where every S is 1
        n = data.draw(st.integers(2, 10))
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        times = rng.integers(1, 6, size=n).astype(float)
        events = rng.integers(0, 2, size=n)
        times[0], events[0] = 1.0, 1
        grid = np.linspace(data.draw(st.sampled_from([2.0, 3.5, 4.0])), 7.0, 4)
        curves = random_curves(rng, n, grid)
        assert_matches_oracle(curves, times, events)

    @given(st.data())
    @settings(max_examples=4, deadline=None, derandomize=True)
    def test_past_block_size_matches_oracle(self, data):
        # a budget below n: the first events' suffixes alone exceed it, so
        # they are blocks of one; later blocks grow to several events
        n = data.draw(st.integers(40, 120))
        budget = data.draw(st.integers(n // 2, n - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        times = rng.integers(1, 60, size=n).astype(float)
        events = (rng.random(n) < 0.95).astype(int)
        events[np.argmin(times)] = 1  # the first in time order is an event
        grid = np.linspace(0.5, 61.0, 12)
        curves = SurvivalCurve(grid, np.array(
            [np.sort(rng.random(12).round(1))[::-1] for _ in range(n)]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BUDGET", budget)
            blocks = recorded_blocks(mp)
            assert_matches_oracle(curves, times, events)
        assert len(blocks) >= 3
        assert blocks[0] == (n, 1)
        assert max(k for _, k in blocks) > 1
        assert_within_budget(blocks, budget)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        times = rng.uniform(1, 10, 30)
        events = rng.integers(0, 2, 30)
        events[0] = 1
        grid = np.linspace(0.5, 11.0, 12)
        curves = random_curves(rng, 30, grid)
        squared = SurvivalCurve(grid, curves.probs ** 2)
        assert c_index_td(curves, times, events) == pytest.approx(
            c_index_td(squared, times, events), abs=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        times = rng.uniform(1, 10, 20)
        events = rng.integers(0, 2, 20)
        events[:2] = 1
        grid = np.linspace(0.5, 11.0, 10)
        curves = random_curves(rng, 20, grid)
        perm = rng.permutation(20)
        a = c_index_td(curves, times, events)
        b = c_index_td(SurvivalCurve(grid, curves.probs[perm]), times[perm],
                       events[perm])
        assert a == pytest.approx(b, abs=1e-15)


class TestBrier:
    def test_no_censoring_perfect_predictions(self):
        times = np.array([1.0, 2.0, 3.0])
        events = np.ones(3, dtype=int)
        t = 2.5
        # indicator-valued predictions: S(2.5|x) = 1{T_i >= 2.5}
        curves = step_curves((times >= t).astype(float), [0.5, 4.0])
        assert brier_at(curves, times, events, t) == 0.0

    def test_no_censoring_equals_mse(self):
        rng = np.random.default_rng(2)
        times = rng.uniform(1, 10, 40)
        events = np.ones(40, dtype=int)
        levels = rng.random(40)
        curves = step_curves(levels, [0.5, 12.0])
        for t in (2.0, 5.0, 8.0):
            y = (times >= t).astype(float)
            mse = np.mean((y - levels) ** 2)
            assert brier_at(curves, times, events, t) == pytest.approx(
                mse, abs=1e-12)

    def test_three_subject_hand_case(self):
        # times (2,4,6), events (1,0,1); censoring KM drops to 1/2 at t=4.
        # At t=5: subject 1 contributes (0-0.2)^2/G(2-)=0.04, subject 2 is
        # censored before t (weight 0), subject 3 contributes (1-0.9)^2/G(5-)
        # = 0.01/0.5; BS = (0.04 + 0 + 0.02)/3 = 0.02.
        times = np.array([2.0, 4.0, 6.0])
        events = np.array([1, 0, 1])
        curves = step_curves([0.2, 0.5, 0.9], [0.5, 7.0])
        assert brier_at(curves, times, events, 5.0) == pytest.approx(
            0.02, abs=1e-12)


class TestIntegratedBrier:
    def test_constant_trace_integrates_to_itself(self):
        # constant 0.5 predictions without censoring give BS(t) = 0.25 at
        # every t, including t = 0
        rng = np.random.default_rng(3)
        times = rng.uniform(1, 9, 25)
        events = np.ones(25, dtype=int)
        curves = step_curves([0.5] * 25, [0.0, 10.0])
        assert integrated_brier(curves, times, events) == pytest.approx(
            0.25, abs=1e-12)

    def test_perfect_predictions_zero(self):
        times = np.array([1.0, 2.0, 4.0])
        events = np.ones(3, dtype=int)
        # indicator curves tabulated on the metric's own evaluation grid,
        # so S(t|x_i) = 1{T_i >= t} at every point the trace touches
        grid = np.linspace(0.0, 4.0, 101)
        curves = SurvivalCurve(grid, (times[:, None] >= grid).astype(float))
        assert integrated_brier(curves, times, events) == pytest.approx(0.0,
                                                                        abs=1e-12)

    def test_piecewise_linear_trace_quadrature(self):
        tau = 4.0
        trace = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 1.0], [4.0, 0.0]])
        # closed-form area: 0.5 + 2 + 0.5 = 3; divided by tau = 0.75
        assert integrate_trace(trace, tau) == pytest.approx(0.75, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        times = rng.uniform(1, 9, 20)
        events = rng.integers(0, 2, 20)
        events[:2] = 1
        levels = rng.random(20)
        curves = step_curves(levels, [0.0, 10.0])
        perm = rng.permutation(20)
        a = integrated_brier(curves, times, events)
        b = integrated_brier(SurvivalCurve(curves.grid, curves.probs[perm]),
                             times[perm], events[perm])
        assert a == pytest.approx(b, abs=1e-12)


class TestReferenceMetrics:
    def make_sim(self, seed=0):
        spec = SimulationSpec(family=ModelFamily.COX, baseline=Weibull(2.0, 1.3e-7),
                              n=400, p=5, k=3, seed=seed)
        return generate(spec)

    def test_reference_beats_chance(self):
        for seed in range(10):
            sim = self.make_sim(seed)
            rep = reference_metrics(sim, np.arange(150))
            assert 0.5 <= rep.c_td <= 1.0
            assert rep.ibs >= 0.0

    def test_crossing_ah_reference_stays_in_range(self):
        spec = SimulationSpec(family=ModelFamily.AH,
                              baseline=LogNormal(7.73, 0.7),
                              n=300, p=5, k=5, censor_target=0.3, seed=3)
        sim = generate(spec)
        rep = reference_metrics(sim, np.arange(100))
        assert 0.0 <= rep.c_td <= 1.0
        assert rep.ibs >= 0.0

    @given(st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_event_blocks_match_pair_enumeration(self, data):
        # small blocks put tied event times on both sides of a block edge
        n = data.draw(st.integers(5, 60), label="n")
        seed = data.draw(st.integers(0, 10_000), label="seed")
        if data.draw(st.booleans(), label="cox_weibull"):
            spec = SimulationSpec(family=ModelFamily.COX,
                                  baseline=Weibull(2.0, 1.3e-7),
                                  n=n, p=4, k=2, seed=seed)
        else:
            spec = SimulationSpec(family=ModelFamily.AH,
                                  baseline=LogNormal(7.73, 0.7),
                                  n=n, p=4, k=2, seed=seed)
        sim = generate(spec)
        unit = data.draw(st.sampled_from([0.0, 100.0, 500.0]), label="unit")
        if unit:
            sim = dataclasses.replace(sim, data=SurvivalDataset(
                sim.data.X, np.ceil(sim.data.time / unit) * unit,
                sim.data.event))
        rng = np.random.default_rng(seed)
        idx = rng.permutation(n)[:data.draw(st.integers(2, n), label="m")]
        X, times, events = (sim.data.X[idx], sim.data.time[idx],
                            sim.data.event[idx])
        # the exact curves on the union of the test times and the Brier grid
        grid = np.unique(np.concatenate(
            [times, np.linspace(0.0, times.max(), 101)[1:]]))
        curves = true_survival(sim, X, grid)
        budget = data.draw(st.integers(1, 3 * n), label="budget")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BUDGET", budget)
            blocks = recorded_blocks(mp)
            try:
                rep = reference_metrics(sim, idx)
            except ValueError as err:
                assert "no comparable pairs" in str(err)
                with pytest.raises(ZeroDivisionError):
                    c_td_brute_force(curves, times, events)
                return
            union = metric_report(curves, times, events)
        assert rep.c_td == c_td_brute_force(curves, times, events)
        assert (rep.c_td, rep.ibs) == (union.c_td, union.ibs)
        assert_within_budget(blocks, budget)

    def test_report_fields_consistent(self):
        sim = self.make_sim(1)
        rep = reference_metrics(sim, np.arange(100))
        times, events = sim.data.time[:100], sim.data.event[:100]
        tau = float(times.max())
        curves = true_survival(sim, sim.data.X[:100],
                               np.linspace(0.0, tau, 101)[1:])
        trace = brier_trace(curves, times, events)
        assert trace.shape[1] == 2
        assert integrate_trace(trace, tau) == rep.ibs

    def test_pinned_cox_weibull(self):
        # recorded when the exact curves were tabulated one subject at a
        # time on the union of all test times
        rep = reference_metrics(self.make_sim(0), np.arange(150))
        assert rep.c_td == 0.6754093609621794
        assert rep.ibs == 0.11562739686017234

    def test_pinned_ah_lognormal(self):
        spec = SimulationSpec(family=ModelFamily.AH,
                              baseline=LogNormal(7.73, 0.7),
                              n=300, p=5, k=5, censor_target=0.3, seed=3)
        rep = reference_metrics(generate(spec), np.arange(100))
        assert rep.c_td == 0.6389440817485098
        assert rep.ibs == 0.08689612371344622

    def pinned_past_one_block(self, monkeypatch):
        """The pinned reference of 700 AH test subjects, 499 of them
        events, and the blocks its C_td read."""
        # recorded when the exact curves were tabulated on the union of
        # the event times and the Brier grid
        spec = SimulationSpec(family=ModelFamily.AH,
                              baseline=LogNormal(7.73, 0.7),
                              n=1000, p=5, k=5, censor_target=0.3, seed=11)
        blocks = recorded_blocks(monkeypatch)
        rep = reference_metrics(generate(spec), np.arange(700))
        assert rep.c_td == 0.6797434792896536
        assert rep.ibs == 0.09495155913514071
        return blocks

    def test_pinned_past_one_block(self, monkeypatch):
        # two blocks of events at the default budget
        blocks = self.pinned_past_one_block(monkeypatch)
        assert len(blocks) >= 2
        assert_within_budget(blocks, metrics._BUDGET)

    def test_pinned_with_one_event_blocks(self, monkeypatch):
        # one event per block while the suffix is longer than the budget
        monkeypatch.setattr(metrics, "_BUDGET", 500)
        blocks = self.pinned_past_one_block(monkeypatch)
        assert len(blocks) >= 3
        assert blocks[0][1] == 1
        assert_within_budget(blocks, 500)

    @staticmethod
    def reference_peak(n=3000):
        """tracemalloc peak of the reference metrics on n AH subjects."""
        spec = SimulationSpec(family=ModelFamily.AH,
                              baseline=LogNormal(7.73, 0.7),
                              n=n, p=10, k=10, censor_target=0.3, seed=3)
        sim = generate(spec)
        tracemalloc.start()
        try:
            reference_metrics(sim, np.arange(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_memory_holds_no_union_grid_table(self):
        # tabulating the exact curves on the union of all 3000 test times,
        # one subject at a time, peaked at 131 MiB
        assert self.reference_peak() < 120 * 2**20

    def test_memory_holds_one_event_block(self):
        # the table on the event times and the Brier grid, plus C_td's
        # copy of it, peaked at 110 MiB; blocks of 256 events, 27 MiB;
        # the element budget, about 7 MiB
        assert self.reference_peak() < 12 * 2**20

    def test_empty_test_idx(self):
        with pytest.raises(ValueError, match="at least one test subject"):
            reference_metrics(self.make_sim(0), [])

    def test_all_censored_fails_before_exact_curves(self, monkeypatch):
        sim = self.make_sim(0)

        def unreachable(*args):
            raise AssertionError("an exact curve was evaluated")

        monkeypatch.setattr(simgen, "true_survival", unreachable)
        with pytest.raises(ValueError, match="no comparable pairs"):
            reference_metrics(sim, np.flatnonzero(sim.data.event == 0))


class TestInputChecks:
    """Every public metric rejects a curve count that differs from the
    number of subjects, and empty input, with one typed error."""

    times = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    events = np.array([1, 0, 1, 1, 0])
    short = step_curves([0.2, 0.4, 0.6, 0.8], [0.5, 6.0])

    def test_c_index_td(self):
        with pytest.raises(ValueError, match="one predicted curve per subject"):
            c_index_td(self.short, self.times, self.events)

    def test_c_index_td_empty(self):
        with pytest.raises(ValueError, match="one predicted curve per subject"):
            c_index_td([], [], [])

    def test_empty_batch(self):
        empty = SurvivalCurve([0.5, 6.0], np.empty((0, 2)))
        with pytest.raises(ValueError, match="one predicted curve per subject"):
            c_index_td(empty, [], [])

    def test_list_of_curves(self):
        curves = [SurvivalCurve([0.5, 6.0], [v, v])
                  for v in (0.2, 0.4, 0.6, 0.8, 0.9)]
        with pytest.raises(ValueError, match="one predicted curve per subject"):
            c_index_td(curves, self.times, self.events)

    def test_one_subject_curve(self):
        # five grid points for five subjects: still one curve, not five
        curve = SurvivalCurve(np.arange(1.0, 6.0), [0.9, 0.7, 0.5, 0.3, 0.1])
        with pytest.raises(ValueError, match="one predicted curve per subject"):
            metric_report(curve, self.times, self.events)

    def test_events_length_mismatch(self):
        curves = step_curves([0.2, 0.4, 0.6, 0.8, 0.9], [0.5, 6.0])
        with pytest.raises(ValueError, match="same length"):
            c_index_td(curves, self.times, self.events[:4])

    def test_metric_report(self):
        with pytest.raises(ValueError, match="one predicted curve per subject"):
            metric_report(self.short, self.times, self.events)

    def test_brier_trace(self):
        with pytest.raises(ValueError, match="one predicted curve per subject"):
            brier_trace(self.short, self.times, self.events)

    @pytest.mark.parametrize("metric", [c_index_td, brier_trace, metric_report])
    @pytest.mark.parametrize("times, events, message", [
        ([1.0, np.nan, 2.5], [1, 1, 0], "times must be strictly positive"),
        ([1.0, -5.0, 2.5], [1, 1, 0], "times must be strictly positive"),
        ([1.0, 2.0, 2.5], [1, 2, 0], "event values must be 0 or 1"),
        ([1.0, 2.0, 2.5], [0.5, 1, 1.9], "event values must be 0 or 1"),
        ([1.0, 2.0, 2.5], [1, 1.7, 0], "event values must be 0 or 1"),
        ([1.0, 2.0, 2.5], [1, -1.0, 0], "event values must be 0 or 1"),
        ([1.0, 2.0, 2.5], [1, -0.5, 0], "event values must be 0 or 1"),
        ([1.0, 2.0, 2.5], [1, np.nan, 0], "event values must be 0 or 1"),
    ], ids=["nan-time", "negative-time", "event-2", "event-0.5-1.9",
            "event-1.7", "event-minus-1", "event-minus-0.5", "event-nan"])
    def test_unscorable_subjects(self, metric, times, events, message):
        # the first three used to give C_td a number: 0.0, 0.333 and 0.0;
        # fractional events were truncated to 0 or 1 and a NaN event failed
        # in the cast to int64
        curves = SurvivalCurve([1.0, 2.0, 3.0], [[0.9, 0.6, 0.3],
                                                 [0.8, 0.5, 0.2],
                                                 [0.7, 0.4, 0.1]])
        with pytest.raises(ValueError, match=message):
            metric(curves, times, events)


def metric_report_peak(n):
    """tracemalloc peak of metric_report on n random curves of 200 points."""
    rng = np.random.default_rng(0)
    times = rng.uniform(1.0, 100.0, n)
    events = (rng.random(n) < 0.7).astype(int)
    grid = np.linspace(0.5, 101.0, 200)
    curves = random_curves(rng, n, grid)
    tracemalloc.start()
    try:
        metric_report(curves, times, events)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_metric_report_memory_is_linear_in_n():
    # an n×n float64 matrix at n = 3000 alone takes 69 MiB
    assert metric_report_peak(3000) < 32 * 2**20


@pytest.mark.parametrize("peak", [metric_report_peak,
                                  TestReferenceMetrics.reference_peak],
                         ids=["metric_report", "reference_metrics"])
def test_scoring_working_set_does_not_grow_with_n(peak):
    # From 3000 to 6000 subjects the peak may grow by the O(n) arrays
    # alone: the batches on the Brier grid (101 float64 values a subject;
    # the exact curves and their buffer, the trace's table) and index
    # arrays, under 2.5 such rows a subject. C_td's blocks stay within
    # the element budget; blocks of 256 events added 4.4 KiB
    # (metric_report) and 10 KiB (reference_metrics) a subject.
    assert peak(6000) - peak(3000) < 3000 * 2.5 * 101 * 8
