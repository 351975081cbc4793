import warnings

import numpy as np
import pytest
from scipy import integrate

from survbench.baseline import (
    BaselineEstimate,
    default_bandwidth_grid,
    default_grid,
    epanechnikov,
    ramlau_hansen,
    select_bandwidth_gl,
    survival_from_scores,
)
from survbench.core import SurvivalDataset
from survbench.simgen import ModelFamily, SimulationSpec, Weibull, generate

WEIB = Weibull(2.0, 1.3e-7)


def cox_sim(n, seed, censor=0.3):
    spec = SimulationSpec(family=ModelFamily.COX, baseline=WEIB, n=n, p=5, k=3,
                          censor_target=censor, seed=seed)
    sim = generate(spec)
    true_scores = np.exp(sim.data.X @ sim.true_beta)
    return sim, true_scores


class TestRamlauHansen:
    def test_all_censored_raises_without_warning(self):
        data = SurvivalDataset(np.zeros((4, 1)), [1.0, 2.0, 3.0, 4.0], [0] * 4)
        grid = np.linspace(0, 4, 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="hold no event"):
                ramlau_hansen(data, np.ones(4), 1.0, grid)
            with pytest.raises(ValueError, match="hold no event"):
                select_bandwidth_gl(data, np.ones(4), grid)

    def test_single_event_is_scaled_kernel(self):
        data = SurvivalDataset(np.zeros((1, 1)), [5.0], [1])
        m = 2.0
        grid = np.linspace(0.0, 10.0, 400)
        est = ramlau_hansen(data, np.ones(1), m, grid)
        np.testing.assert_allclose(est.alpha_hat,
                                   epanechnikov((grid - 5.0) / m) / m,
                                   atol=1e-14)
        mass = integrate.trapezoid(est.alpha_hat, grid)
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_consistent_for_weibull_hazard(self):
        # the true hazard 2*lam*t is linear, so a symmetric kernel has no
        # leading-order bias; check the grid midpoint on the data bulk
        sim, scores = cox_sim(2000, seed=0)
        grid = np.linspace(0.0, float(np.quantile(sim.data.time, 0.75)), 200)
        est = ramlau_hansen(sim.data, scores, 900.0, grid)
        k = grid.size // 2
        truth = 2.0 * WEIB.lam * grid[k]
        assert est.alpha_hat[k] == pytest.approx(truth, rel=0.15)

    def test_cumulative_monotone_from_zero(self):
        sim, scores = cox_sim(300, seed=1)
        est = ramlau_hansen(sim.data, scores, 500.0, default_grid(sim.data))
        assert est.cumulative[0] == 0.0
        assert np.all(np.diff(est.cumulative) >= 0)

    def test_score_scaling_inverse_linearity(self):
        sim, scores = cox_sim(150, seed=2)
        grid = default_grid(sim.data, 100)
        a = ramlau_hansen(sim.data, scores, 400.0, grid)
        b = ramlau_hansen(sim.data, 3.0 * scores, 400.0, grid)
        np.testing.assert_allclose(b.alpha_hat, a.alpha_hat / 3.0, rtol=1e-12)

    def test_rejects_bad_inputs(self):
        data = SurvivalDataset(np.zeros((2, 1)), [1.0, 2.0], [1, 1])
        grid = np.linspace(0, 2, 5)
        with pytest.raises(ValueError, match="positive"):
            ramlau_hansen(data, np.array([1.0, -1.0]), 1.0, grid)
        for bandwidth in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="bandwidth"):
                ramlau_hansen(data, np.ones(2), bandwidth, grid)
        with pytest.raises(ValueError, match="increasing"):
            ramlau_hansen(data, np.ones(2), 1.0, [2.0, 1.0])


class TestBandwidthSelection:
    def test_single_candidate_returned(self):
        sim, scores = cox_sim(100, seed=3)
        grid = default_grid(sim.data, 50)
        assert select_bandwidth_gl(sim.data, scores, grid,
                                   bandwidth_grid=[123.0]).bandwidth == 123.0

    def test_huge_kappa_selects_largest(self):
        sim, scores = cox_sim(100, seed=4)
        grid = default_grid(sim.data, 50)
        bw = [100.0, 200.0, 400.0, 800.0]
        m = select_bandwidth_gl(sim.data, scores, grid, bandwidth_grid=bw,
                                kappa=1e9).bandwidth
        assert m == 800.0

    def test_deterministic(self):
        sim, scores = cox_sim(150, seed=5)
        grid = default_grid(sim.data, 80)
        bw = [100.0, 300.0, 900.0]
        a = select_bandwidth_gl(sim.data, scores, grid, bandwidth_grid=bw)
        b = select_bandwidth_gl(sim.data, scores, grid, bandwidth_grid=bw)
        assert a.bandwidth == b.bandwidth

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -np.inf])
    def test_bad_candidate_bandwidth_errors(self, bad):
        # a NaN candidate used to give an all-NaN estimate, and be chosen
        sim, scores = cox_sim(50, seed=6)
        with pytest.raises(ValueError, match="bandwidth"):
            select_bandwidth_gl(sim.data, scores, default_grid(sim.data, 30),
                                bandwidth_grid=[bad, 1.0])

    def test_empty_grid_errors(self):
        sim, scores = cox_sim(50, seed=6)
        with pytest.raises(ValueError, match="empty"):
            select_bandwidth_gl(sim.data, scores, default_grid(sim.data, 30),
                                bandwidth_grid=[])

    def test_bandwidth_shrinks_with_sample_size(self):
        # same candidate set at both sizes so selections are comparable
        bw = np.array([75.0, 150.0, 300.0, 600.0, 1200.0, 2400.0])
        wins = 0
        for fam in range(5):
            selected = {}
            for n in (200, 2000):
                sim, scores = cox_sim(n, seed=97 * fam + (n == 2000))
                grid = np.linspace(0.0, float(np.quantile(sim.data.time, 0.75)), 150)
                selected[n] = select_bandwidth_gl(sim.data, scores, grid,
                                                  bandwidth_grid=bw).bandwidth
            wins += selected[2000] < selected[200]
        assert wins >= 4

    def test_returns_the_estimate_at_the_chosen_bandwidth(self):
        sim, scores = cox_sim(150, seed=5)
        grid = default_grid(sim.data, 80)
        est = select_bandwidth_gl(sim.data, scores, grid,
                                  bandwidth_grid=[100.0, 300.0, 900.0])
        want = ramlau_hansen(sim.data, scores, est.bandwidth, grid)
        for field in ("grid", "alpha_hat", "cumulative"):
            np.testing.assert_array_equal(getattr(est, field),
                                          getattr(want, field))
        assert type(est.bandwidth) is float

    def test_default_bandwidth_grid_span(self):
        sim, _ = cox_sim(100, seed=7)
        bw = default_bandwidth_grid(sim.data)
        span = float(sim.data.time.max())
        assert bw[-1] == pytest.approx(span / 2)
        assert bw[0] >= span / 50
        assert np.all(np.diff(bw) > 0)


class TestSurvivalFromScores:
    def test_zero_hazard_means_flat_one(self):
        grid = np.linspace(0, 10, 5)
        base = BaselineEstimate(grid=grid, alpha_hat=np.zeros(5), bandwidth=1.0,
                                cumulative=np.zeros(5))
        curve = survival_from_scores(base, 2.0)
        np.testing.assert_array_equal(curve.probs, np.ones(5))

    def test_doubling_score_squares_curve(self):
        sim, scores = cox_sim(120, seed=8)
        est = ramlau_hansen(sim.data, scores, 400.0, default_grid(sim.data, 60))
        a = survival_from_scores(est, 1.3)
        b = survival_from_scores(est, 2.6)
        np.testing.assert_allclose(b.probs, a.probs ** 2, rtol=1e-12)

    def test_curver_monotone_in_unit_interval(self):
        sim, scores = cox_sim(120, seed=9)
        est = ramlau_hansen(sim.data, scores, 300.0, default_grid(sim.data, 60))
        curve = survival_from_scores(est, 0.7)
        assert np.all(curve.probs <= 1.0) and np.all(curve.probs >= 0.0)
        assert np.all(np.diff(curve.probs) <= 1e-15)

    def test_curves_invariant_to_common_score_scaling(self):
        sim, scores = cox_sim(120, seed=10)
        grid = default_grid(sim.data, 60)
        est = ramlau_hansen(sim.data, scores, 400.0, grid)
        est_scaled = ramlau_hansen(sim.data, 5.0 * scores, 400.0, grid)
        a = survival_from_scores(est, float(scores[0]))
        b = survival_from_scores(est_scaled, float(5.0 * scores[0]))
        np.testing.assert_allclose(a.probs, b.probs, rtol=1e-12)

    def test_batch_rows_equal_one_score_calls(self):
        sim, scores = cox_sim(120, seed=11)
        est = ramlau_hansen(sim.data, scores, 400.0, default_grid(sim.data, 60))
        batch = survival_from_scores(est, scores)
        assert batch.probs.shape == (120, 60)
        for i, s in enumerate(scores):
            assert np.array_equal(batch[i].probs,
                                  survival_from_scores(est, float(s)).probs)

    def test_nonpositive_score_rejected(self):
        base = BaselineEstimate(grid=np.array([0.0, 1.0]),
                                alpha_hat=np.zeros(2), bandwidth=1.0,
                                cumulative=np.zeros(2))
        with pytest.raises(ValueError, match="positive"):
            survival_from_scores(base, 0.0)
