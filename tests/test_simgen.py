import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, optimize, stats
from scipy.special import gamma

from survbench import simgen
from survbench.bench import builtin_config
from survbench.simgen import (
    LogNormal,
    ModelFamily,
    SimulationSpec,
    Weibull,
    draw_survival_time,
    generate,
    survival_probability,
    true_survival,
)

WEIB = Weibull(a=2.0, lam=1.3e-7)
SPEC = SimulationSpec(family=ModelFamily.COX, baseline=WEIB, n=10, p=2, k=1)


class TestInverseCumulativeHazard:
    def test_weibull_unit_point(self):
        assert WEIB.inverse_cumulative_hazard(1.3e-7) == pytest.approx(1.0)

    def test_weibull_scaled_point(self):
        # (5.2e-7 / 1.3e-7)^(1/2) = 2
        assert WEIB.inverse_cumulative_hazard(5.2e-7) == pytest.approx(2.0)

    def test_lognormal_median_point(self):
        # 1 - exp(-log 2) = 0.5, and Phi^{-1}(0.5) = 0
        ln = LogNormal(mu=0.0, sigma=1.0)
        assert ln.inverse_cumulative_hazard(np.log(2.0)) == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WEIB.inverse_cumulative_hazard(-0.1)

    @pytest.mark.parametrize("baseline", [WEIB, LogNormal(7.73, 0.7)])
    def test_round_trip_and_monotone(self, baseline):
        u = np.linspace(0.01, 8.0, 60)
        t = baseline.inverse_cumulative_hazard(u)
        assert np.all(np.diff(t) > 0)
        np.testing.assert_allclose(baseline.cumulative_hazard(t), u, rtol=1e-9)


class TestDrawSurvivalTime:
    def test_cox_weibull_unit_draw(self):
        u = 1.0 - np.exp(-WEIB.lam)
        t = draw_survival_time(ModelFamily.COX, WEIB, np.zeros(3), np.zeros(3), u)
        assert t == pytest.approx(1.0)

    def test_rejects_endpoint_draws(self):
        with pytest.raises(ValueError):
            draw_survival_time(ModelFamily.COX, WEIB, np.zeros(2), np.zeros(2), 1.0)

    def test_cox_weibull_null_beta_matches_weibull(self):
        rng = np.random.default_rng(42)
        u = rng.random(100_000)
        u = np.clip(u, 1e-12, 1 - 1e-12)
        t = draw_survival_time(ModelFamily.COX, WEIB, np.zeros((1, 2)), np.zeros(2), u)
        # closed-form Weibull CDF: F(t) = 1 - exp(-lam * t^a)
        res = stats.kstest(t, lambda x: -np.expm1(-WEIB.lam * x ** WEIB.a))
        assert res.statistic < 0.01

    def test_aft_lognormal_scales_the_distribution(self):
        rng = np.random.default_rng(7)
        mu, sigma, c = 7.73, 0.176, 0.8
        ln = LogNormal(mu, sigma)
        x = np.ones((200_000, 1))
        u = np.clip(rng.random(200_000), 1e-12, 1 - 1e-12)
        t = draw_survival_time(ModelFamily.AFT, ln, x, np.array([c]), u)
        # T =d= exp(-c) * LogNormal(mu, sigma), whose median is exp(mu - c)
        assert np.median(t) == pytest.approx(np.exp(mu - c), rel=0.01)

    def test_cox_monotone_in_linear_predictor(self):
        u = 0.37
        betas = np.array([0.5])
        t_low = draw_survival_time(ModelFamily.COX, WEIB, np.array([-1.0]), betas, u)
        t_high = draw_survival_time(ModelFamily.COX, WEIB, np.array([1.0]), betas, u)
        assert t_high < t_low

    @pytest.mark.parametrize(
        "family,baseline,c",
        [
            (ModelFamily.COX, WEIB, 0.7),
            (ModelFamily.AH, LogNormal(7.73, 0.7), 0.6),
            (ModelFamily.AFT, LogNormal(7.73, 0.176), -0.4),
        ],
    )
    def test_ks_against_closed_form(self, family, baseline, c):
        # fixed covariate row: empirical draws vs F(t|x) = 1 - S(t|x)
        rng = np.random.default_rng(11)
        u = np.clip(rng.random(100_000), 1e-12, 1 - 1e-12)
        x = np.full((1, 1), 1.0)
        t = draw_survival_time(family, baseline, x, np.array([c]), u)
        cdf = lambda s: 1.0 - survival_probability(family, baseline, c, s)
        res = stats.kstest(t, cdf)
        assert res.statistic < 0.01


class TestCalibration:
    def test_paper_weibull_choice_moments(self):
        # closed-form Weibull moments of table 1's baseline
        base = builtin_config("table1").cells[0].baseline
        scale = base.lam ** (-1.0 / base.a)
        m = scale * gamma(1.0 / base.a + 1.0)
        s = scale * np.sqrt(gamma(2.0 / base.a + 1.0)
                            - gamma(1.0 / base.a + 1.0) ** 2)
        assert m == pytest.approx(2457.95, abs=0.5)
        assert s == pytest.approx(1284.83, abs=0.5)


class TestSpecBoundary:
    @pytest.mark.parametrize("make, match", [
        (lambda: Weibull(a=math.nan, lam=1.3e-7), "Weibull .* finite"),
        (lambda: Weibull(a=2.0, lam=math.inf), "Weibull .* finite"),
        (lambda: LogNormal(mu=math.nan, sigma=0.7), "LogNormal .* finite"),
        (lambda: LogNormal(mu=7.73, sigma=math.inf), "LogNormal .* finite"),
        (lambda: replace(SPEC, beta_scale=math.nan), "beta_scale .* finite"),
        (lambda: replace(SPEC, beta_scale=-math.inf), "beta_scale .* finite")])
    def test_non_finite_parameters_rejected(self, make, match):
        # a NaN shape used to fail in generate, as a censoring calibration
        # that could not bracket its target
        with pytest.raises(ValueError, match=match):
            make()


class TestGenerate:
    def spec(self, **kw):
        base = dict(family=ModelFamily.COX, baseline=WEIB, n=1000, p=10, k=5,
                    censor_target=0.3, seed=0)
        base.update(kw)
        return SimulationSpec(**base)

    def test_zero_target_means_no_censoring(self):
        sim = generate(self.spec(censor_target=0.0, n=200))
        assert sim.data.event.sum() == 200
        np.testing.assert_array_equal(sim.data.time, sim.true_event_times)

    def test_censoring_fraction_near_target(self):
        fracs = [1.0 - generate(self.spec(seed=s)).data.event.mean() for s in range(10)]
        assert all(abs(f - 0.3) < 0.05 for f in fracs)

    def test_bit_identical_given_seed(self):
        a = generate(self.spec(seed=5))
        b = generate(self.spec(seed=5))
        np.testing.assert_array_equal(a.data.X, b.data.X)
        np.testing.assert_array_equal(a.data.time, b.data.time)
        np.testing.assert_array_equal(a.data.event, b.data.event)

    def test_observed_time_is_min_of_event_and_censoring(self):
        sim = generate(self.spec(seed=3))
        assert np.all(sim.data.time <= sim.true_event_times + 1e-12)
        events = sim.data.event == 1
        np.testing.assert_allclose(sim.data.time[events],
                                   sim.true_event_times[events])

    def test_beta_layout(self):
        spec = self.spec(p=6, k=3, beta_scale=0.9)
        beta = spec.make_beta()
        mag = 0.9 / np.sqrt(3)
        np.testing.assert_allclose(beta, [mag, -mag, mag, 0, 0, 0])

    def test_ah_reference_curves_cross(self):
        spec = SimulationSpec(family=ModelFamily.AH, baseline=LogNormal(7.73, 0.7),
                              n=100, p=4, k=2, seed=9)
        sim = generate(spec)
        # rows with linear predictor +-1: survival ordering must flip
        x_unit = sim.true_beta / float(sim.true_beta @ sim.true_beta)
        grid = np.geomspace(1.0, 1e5, 800)
        s_hi = true_survival(sim, x_unit, grid).probs
        s_lo = true_survival(sim, -x_unit, grid).probs
        diff = s_hi - s_lo
        assert diff.min() < -1e-4 and diff.max() > 1e-4


class TestTrueSurvival:
    def sim(self, family=ModelFamily.COX, baseline=WEIB, **kw):
        base = dict(family=family, baseline=baseline, n=50, p=3, k=2, seed=1)
        base.update(kw)
        return generate(SimulationSpec(**base))

    @pytest.mark.parametrize("family, baseline", [
        (ModelFamily.COX, WEIB),
        (ModelFamily.AH, LogNormal(7.73, 0.7)),
        (ModelFamily.AFT, LogNormal(7.73, 0.7)),
    ])
    def test_batch_rows_equal_one_row_calls(self, family, baseline):
        sim = self.sim(family, baseline, n=400, p=10, k=10)
        grid = np.geomspace(1.0, 2e4, 150)
        batch = true_survival(sim, sim.data.X, grid)
        assert batch.probs.shape == (400, 150)
        for i, x in enumerate(sim.data.X):
            assert np.array_equal(batch[i].probs,
                                  true_survival(sim, x, grid).probs)

    def test_starts_at_one_and_monotone(self):
        sim = self.sim()
        grid = np.linspace(1.0, 15000.0, 300)
        curve = true_survival(sim, sim.data.X[0], grid)
        assert curve.probs[0] <= 1.0
        assert np.all(np.diff(curve.probs) <= 1e-15)
        assert survival_probability(sim.family, sim.baseline, 0.4, 0.0) == 1.0

    def test_cox_null_beta_is_baseline_survival(self):
        sim = self.sim(beta_scale=0.0, k=1)
        grid = np.linspace(100.0, 9000.0, 50)
        curve = true_survival(sim, sim.data.X[3], grid)
        np.testing.assert_allclose(curve.probs,
                                   np.exp(-WEIB.cumulative_hazard(grid)))

    def test_ah_against_quadrature(self):
        # hazard of the AH model is a0(e^c t); integrate it numerically
        mu, sigma, c = 7.0, 0.7, 0.5
        ln = LogNormal(mu, sigma)

        def base_hazard(t):
            z = (np.log(t) - mu) / sigma
            dens = stats.norm.pdf(z) / (sigma * t)
            return dens / stats.norm.sf(z)

        for t in (500.0, 1500.0, 4000.0):
            ih, _ = integrate.quad(lambda s: base_hazard(np.exp(c) * s), 0.0, t,
                                   limit=200)
            expected = np.exp(-ih)
            got = survival_probability(ModelFamily.AH, ln, c, t)
            assert got == pytest.approx(expected, rel=1e-6)


def _brentq_calls(monkeypatch):
    """Record every (f, a, b, options) that simgen hands its solver."""
    calls = []
    real = simgen._brentq

    def recording(f, a, b, **options):
        calls.append((f, a, b, options))
        return real(f, a, b, **options)

    monkeypatch.setattr(simgen, "_brentq", recording)
    return calls


class TestBrentq:
    """simgen._brentq against scipy.optimize.brentq, whose C code it ports."""

    FAMILIES = [(ModelFamily.COX, WEIB),
                (ModelFamily.AH, LogNormal(7.73, 0.7)),
                (ModelFamily.AFT, LogNormal(7.73, 0.176))]

    def test_censoring_calibrations_equal_scipy_bit_for_bit(self, monkeypatch):
        calls = _brentq_calls(monkeypatch)
        rates = []
        for i in range(300):
            family, baseline = self.FAMILIES[i % 3]
            rng = np.random.default_rng(i)
            n = int(rng.integers(20, 3001))
            target = float(rng.uniform(0.05, 0.9))
            beta = SimulationSpec(family=family, baseline=baseline, n=n, p=3,
                                  k=3).make_beta()
            times = draw_survival_time(family, baseline,
                                       rng.standard_normal((n, 3)), beta,
                                       rng.uniform(1e-9, 1.0 - 1e-9, n))
            rates.append(simgen._calibrate_censor_rate(times, target))
        assert len(calls) == len(rates) == 300
        want = [optimize.brentq(f, a, b, **options)
                for f, a, b, options in calls]
        assert rates == want

    @pytest.mark.parametrize("cv", [0.07, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 12.0])
    def test_weibull_shapes_equal_scipy_bit_for_bit(self, cv):
        # the Weibull shape on [0.2, 20] whose coefficient of variation,
        # sd / mean, is that of a target (mean, cv * mean)
        for mean in (1.0, 2325.0):
            cv_target = cv * mean / mean

            def cv_gap(a):
                return np.sqrt(math.gamma(2.0 / a + 1.0)
                               / math.gamma(1.0 / a + 1.0) ** 2 - 1.0) - cv_target

            assert simgen._brentq(cv_gap, 0.2, 20.0, xtol=1e-12) == \
                optimize.brentq(cv_gap, 0.2, 20.0, xtol=1e-12)

    @pytest.mark.parametrize("f, a, b, options, error", [
        (lambda x: x * x + 1.0, -1.0, 1.0, {}, ValueError),  # no sign change
        (lambda x: -0.0 if x < 0 else 1.0, -1.0, 1.0, {}, None),  # f(a) == 0
        (lambda x: np.nan if x > 0.5 else x - 0.7, 0.0, 1.0, {}, ValueError),
        (lambda x: x ** 3 - 2.0, 0.0, 3.0, {"maxiter": 3}, RuntimeError),
        (lambda x: np.cos(x) - x, 0.0, 1.0, {"xtol": 1e-300,
                                             "rtol": 1e-15}, None),
    ])
    def test_same_results_and_error_types_as_scipy(self, f, a, b, options,
                                                  error):
        if error is None:
            assert simgen._brentq(f, a, b, **options) == optimize.brentq(
                f, a, b, **options)
            return
        for solve in (simgen._brentq, optimize.brentq):
            with pytest.raises(error):
                solve(f, a, b, **options)
