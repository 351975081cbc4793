import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from survbench.core import (
    SurvivalDataset,
    cox_loss_and_grad,
    risk_set_sums,
    standardize_covariates,
    stratified_folds,
)
from survbench.nnet import TrainConfig, coxnnet_fit, coxnnet_loss_and_grad
from survbench.nnet import coxnnet as coxnnet_module
from survbench.nnet.coxnnet import (
    _scalar_concordance,
    _train_network,
    coxnnet_scores,
)
from survbench.nnet.mlp import (
    MlpParams,
    init_mlp,
    mlp_backward,
    mlp_forward,
    unpack,
)
from survbench.simgen import ModelFamily, SimulationSpec, Weibull, generate


def random_instance(n, p, hidden, seed):
    rng = np.random.default_rng(seed)
    data = SurvivalDataset(rng.standard_normal((n, p)),
                           rng.uniform(1, 10, n), rng.integers(0, 2, n))
    params = init_mlp((p, hidden, 1), ("tanh", "identity"),
                      seed=seed + 1, output_bias=False)
    return data, params


def finite_diff_loss(params, data, eps=1e-6):
    vec = params.vec
    fd = np.zeros_like(vec)
    for j in range(vec.size):
        up, dn = vec.copy(), vec.copy()
        up[j] += eps
        dn[j] -= eps
        fd[j] = (coxnnet_loss_and_grad(unpack(params, up), data)[0]
                 - coxnnet_loss_and_grad(unpack(params, dn), data)[0]) / (2 * eps)
    return fd


class TestLossAndGrad:
    def test_zero_weights_loss_is_log_risk_sizes(self):
        rng = np.random.default_rng(0)
        n, p = 8, 3
        data = SurvivalDataset(rng.standard_normal((n, p)),
                               rng.uniform(1, 9, n), rng.integers(0, 2, n))
        params = MlpParams.from_layers(weights=(np.zeros((p, 2)), np.zeros((2, 1))),
                                       biases=(np.zeros(2), None),
                                       activations=("tanh", "identity"))
        sizes = risk_set_sums(data.risk_index.later, np.ones(n))
        want = float(np.sum(np.log(sizes[data.event == 1])))
        loss, _ = coxnnet_loss_and_grad(params, data)
        assert loss == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_matches_finite_differences(self, seed):
        data, params = random_instance(n=10, p=3, hidden=2, seed=seed)
        if data.event.sum() == 0:
            data = SurvivalDataset(data.X, data.time,
                                   np.ones(data.n, dtype=int))
        _, grad = coxnnet_loss_and_grad(params, data)
        fd = finite_diff_loss(params, data)
        err = np.abs(grad - fd) / np.maximum(1e-8, np.abs(fd))
        assert np.max(np.where(np.abs(fd) > 1e-10, err, 0.0)) < 1e-5

    def test_all_censored_is_zero(self):
        # with no event the data term and its gradient vanish; the driver's
        # penalty is all that is left to train on
        data, params = random_instance(n=6, p=2, hidden=2, seed=3)
        data = SurvivalDataset(data.X, data.time, np.zeros(6, dtype=int))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = coxnnet_loss_and_grad(params, data)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(params.vec))

    def test_stack_equals_one_kernel_call_per_candidate(self):
        data, params = random_instance(n=50, p=3, hidden=4, seed=8)
        rng = np.random.default_rng(8)
        stack = unpack(params, params.vec
                       + rng.normal(0.0, 0.5, (3, params.vec.size)))
        loss, grad = coxnnet_loss_and_grad(stack, data)
        theta, caches = mlp_forward(stack, data.X)
        want_loss, d_theta = np.empty(3), np.empty(theta.shape[:2])
        for c in range(3):
            want_loss[c], d_theta[c] = cox_loss_and_grad(
                theta[c, :, 0], data.risk_index, data.event)
        want_grad = mlp_backward(stack, caches, d_theta[..., None])
        np.testing.assert_array_equal(loss, want_loss)
        np.testing.assert_array_equal(grad, want_grad)


def small_sim(n=300, p=5, seed=0):
    spec = SimulationSpec(family=ModelFamily.COX, baseline=Weibull(2.0, 1.3e-7),
                          n=n, p=p, k=3, censor_target=0.3, seed=seed)
    return generate(spec)


class TestFit:
    def test_scores_track_truth(self):
        sim = small_sim(n=500)
        cfg = TrainConfig(ridge=5.0, epochs=250)
        fit = coxnnet_fit(sim.data, 0, cfg)
        truth = np.exp(sim.data.X @ sim.true_beta)
        rho = stats.spearmanr(coxnnet_scores(fit, sim.data.X), truth).statistic
        assert rho > 0.7

    def test_deterministic_given_seed(self):
        sim = small_sim(n=120)
        cfg = TrainConfig(ridge=2.0, epochs=60, min_epochs=10)
        a = coxnnet_fit(sim.data, 7, cfg)
        b = coxnnet_fit(sim.data, 7, cfg)
        np.testing.assert_array_equal(coxnnet_scores(a, sim.data.X),
                                      coxnnet_scores(b, sim.data.X))

    def test_huge_ridge_collapses_parameters(self):
        sim = small_sim(n=100)
        # val_fraction too small to form a monitor set, so the loop tracks
        # the training objective, which the penalty dominates
        cfg = TrainConfig(ridge=1e6, epochs=600, min_epochs=600,
                          patience=1000, learning_rate=0.05, val_fraction=0.01)
        fit = coxnnet_fit(sim.data, 1, cfg)
        assert float(np.max(np.abs(fit.params.vec))) < 0.01
        np.testing.assert_allclose(coxnnet_scores(fit, sim.data.X), 1.0,
                                   atol=0.01)

    def test_loss_decreases_on_smoothed_window(self):
        sim = small_sim(n=200)
        cfg = TrainConfig(ridge=2.0, epochs=120, min_epochs=120,
                          patience=200)
        fit = coxnnet_fit(sim.data, 2, cfg)
        trace = fit.loss_trace
        k = 10
        smooth = np.convolve(trace, np.ones(k) / k, mode="valid")
        assert smooth[-1] < smooth[0]

    def test_single_hidden_unit_recovers_monotone_ordering(self):
        # one relevant covariate, H=1: fitted scores must order like it
        rng = np.random.default_rng(11)
        n = 200
        x = rng.standard_normal((n, 1))
        u = np.clip(rng.random(n), 1e-9, 1 - 1e-9)
        times = -np.log1p(-u) / np.exp(1.2 * x[:, 0])
        data = SurvivalDataset(x, times + 1e-9, np.ones(n, dtype=int))
        cfg = TrainConfig(ridge=1.0, epochs=300, min_epochs=150,
                          patience=100, hidden=1)
        fit = coxnnet_fit(data, 5, cfg)
        rho = stats.spearmanr(coxnnet_scores(fit, data.X), x[:, 0]).statistic
        assert abs(rho) > 0.95 and rho > 0  # higher x, higher risk

    def test_cv_picks_from_grid(self):
        sim = small_sim(n=150)
        cfg = TrainConfig(epochs=60, min_epochs=10, cv_folds=2,
                          ridge_grid=(1e-2, 1e-1))
        fit = coxnnet_fit(sim.data, 3, cfg)
        n_events = int(sim.data.event.sum())
        assert fit.ridge in {f * n_events for f in (1e-2, 1e-1)}

    def test_cv_without_scorable_folds_warns(self):
        # one event: every fold lacks events on its training or held side
        rng = np.random.default_rng(8)
        n = 30
        event = np.zeros(n, dtype=int)
        event[4] = 1
        data = SurvivalDataset(rng.standard_normal((n, 3)),
                               rng.uniform(1, 9, n), event)
        cfg = TrainConfig(epochs=20, min_epochs=5)
        with pytest.warns(RuntimeWarning) as record:
            fit = coxnnet_fit(data, 0, cfg)
        messages = [str(w.message) for w in record]
        for fold in range(cfg.cv_folds):
            assert f"fold {fold} has no events on one side; skipped" in messages
        assert any(m.startswith("every fold was skipped") for m in messages)
        assert fit.ridge == 1e-2

    def test_fold_seeds_drawn_after_the_labels(self, monkeypatch):
        # one stream from the fit's seed: the event-stratified fold labels,
        # one seed per fold, then the final fit's seed on every subject
        data = small_sim(n=60, p=3, seed=2).data
        cfg = TrainConfig(epochs=3, min_epochs=1, patience=1, cv_folds=3)
        calls = []

        def recording(zdata, rows, lams, config, seed):
            calls.append((zdata.time[rows], seed))
            return _train_network(zdata, rows, lams, config, seed)

        monkeypatch.setattr(coxnnet_module, "_train_network", recording)
        coxnnet_fit(data, 4, cfg)
        rng = np.random.default_rng(4)
        labels = stratified_folds(data.event, 3, rng)
        seeds = list(rng.integers(2 ** 31, size=3)) + [rng.integers(2 ** 31)]
        assert [seed for _, seed in calls] == seeds
        for fold in range(3):
            np.testing.assert_array_equal(calls[fold][0],
                                          data.time[labels != fold])
        np.testing.assert_array_equal(calls[3][0], data.time)


class TestStackedCandidates:
    def test_each_candidate_trains_as_it_would_alone(self):
        # small patience and min_epochs: the candidates stop at different
        # epochs, and a stopped one must not move the others
        data = small_sim(n=120, p=4, seed=3).data
        Z, _, _ = standardize_covariates(data.X)
        zdata = SurvivalDataset(Z, data.time, data.event)
        cfg = TrainConfig(epochs=80, min_epochs=3, patience=3,
                          learning_rate=0.01)
        lams = [0.0, 3.0, 30.0]
        rows = np.arange(zdata.n)
        stack, traces = _train_network(zdata, rows, lams, cfg, 7)
        assert stack.vec.shape[0] == 3
        assert len({trace.size for trace in traces}) == 3
        for c, lam in enumerate(lams):
            alone, alone_traces = _train_network(zdata, rows, [lam], cfg, 7)
            np.testing.assert_array_equal(stack.vec[c], alone.vec[0])
            np.testing.assert_array_equal(traces[c], alone_traces[0])

    def test_stacked_loss_is_each_networks_loss(self):
        data, params = random_instance(n=12, p=3, hidden=2, seed=1)
        others = [init_mlp((3, 2, 1), ("tanh", "identity"), seed=s,
                           output_bias=False) for s in (5, 6)]
        nets = [params] + others
        stack = unpack(params, np.stack([net.vec for net in nets]))
        loss, grad = coxnnet_loss_and_grad(stack, data)
        assert loss.shape == (3,) and grad.shape == stack.vec.shape
        for c, net in enumerate(nets):
            want_loss, want_grad = coxnnet_loss_and_grad(net, data)
            assert want_loss.shape == ()
            assert loss[c] == want_loss
            np.testing.assert_array_equal(grad[c], want_grad)


def harrell_brute_force(scores, times, events):
    """Exhaustive ordered-pair enumeration of Harrell's concordance."""
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
            num += 1.0 if scores[i] > scores[j] else (
                0.5 if scores[i] == scores[j] else 0.0)
    return num / den if den else 0.5


class TestScalarConcordance:
    @given(st.data())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_enumeration_oracle_with_ties(self, data):
        n = data.draw(st.integers(1, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        times = rng.integers(1, 5, size=n).astype(float)
        events = rng.integers(0, 2, size=n)
        scores = rng.integers(-2, 3, size=n).astype(float)
        assert _scalar_concordance(scores, times, events) == (
            harrell_brute_force(scores, times, events))

    def test_no_comparable_pairs_is_half(self):
        times = np.array([1.0, 2.0, 3.0])
        assert _scalar_concordance(np.array([1.0, 2.0, 3.0]), times,
                                   np.zeros(3, dtype=int)) == 0.5


class TestSurvival:
    def test_curves_match_score_times_cumhaz(self):
        from survbench.baseline import default_grid, ramlau_hansen
        from survbench.models import CoxnnetModel

        sim = small_sim(n=200)
        fit = coxnnet_fit(sim.data, 4, TrainConfig(ridge=2.0, epochs=80,
                                                   min_epochs=20))
        base = ramlau_hansen(sim.data, coxnnet_scores(fit, sim.data.X), 400.0,
                             default_grid(sim.data, 80))
        x = sim.data.X[5]
        curve, = CoxnnetModel(fit=fit, base=base).predict_survival(x[None, :])
        score = coxnnet_scores(fit, x)[0]
        np.testing.assert_allclose(curve.probs, np.exp(-score * base.cumulative),
                                   rtol=1e-12)
        assert curve.probs[0] <= 1.0
        assert np.all(np.diff(curve.probs) <= 1e-15)
