import tracemalloc

import numpy as np
import pytest

from survbench.core import SurvivalDataset
from survbench.coxlasso import (
    CoxFit,
    cv_lambda,
    fit_lasso,
    lambda_max,
    lambda_path,
    partial_loglik,
    partial_loglik_grad,
    proximal_gradient,
    risk_score,
    soft_threshold,
)
from survbench.simgen import ModelFamily, SimulationSpec, Weibull, generate


def pll_brute_force(data, beta):
    """Definition-level partial log-likelihood: explicit risk-set loops."""
    eta = data.X @ beta
    total = 0.0
    for i in range(data.n):
        if data.event[i] != 1:
            continue
        risk = [l for l in range(data.n) if data.time[l] >= data.time[i]]
        total += eta[i] - np.log(np.sum(np.exp(eta[risk])))
    return total


def grad_brute_force(data, beta):
    eta = data.X @ beta
    g = np.zeros(data.p)
    for i in range(data.n):
        if data.event[i] != 1:
            continue
        risk = [l for l in range(data.n) if data.time[l] >= data.time[i]]
        w = np.exp(eta[risk])
        g += data.X[i] - (w @ data.X[risk]) / w.sum()
    return g


def newton_oracle(data, beta0=None, iters=60):
    """Unpenalized Newton solver driven entirely by the brute-force
    likelihood (Hessian from central differences of the oracle gradient)."""
    beta = np.zeros(data.p) if beta0 is None else beta0.copy()
    for _ in range(iters):
        g = grad_brute_force(data, beta)
        H = np.zeros((data.p, data.p))
        for j in range(data.p):
            eps = 1e-5
            bp, bm = beta.copy(), beta.copy()
            bp[j] += eps
            bm[j] -= eps
            H[:, j] = (grad_brute_force(data, bp) - grad_brute_force(data, bm)) / (2 * eps)
        step = np.linalg.solve(H, g)
        beta = beta - step
        if np.abs(step).max() < 1e-12:
            break
    return beta


def sim_data(n=50, p=2, seed=0, censor=0.3):
    spec = SimulationSpec(family=ModelFamily.COX, baseline=Weibull(2.0, 1.3e-7),
                          n=n, p=p, k=min(p, 3), censor_target=censor, seed=seed)
    return generate(spec).data


class TestPartialLoglik:
    def test_single_event_null_beta(self):
        data = SurvivalDataset(np.array([[0.3]]), [2.0], [1])
        assert partial_loglik(data, np.zeros(1)) == 0.0

    def test_two_events_null_beta(self):
        data = SurvivalDataset(np.array([[0.1], [0.7]]), [1.0, 2.0], [1, 1])
        assert partial_loglik(data, np.zeros(1)) == pytest.approx(-np.log(2.0))

    def test_all_censored_is_zero(self):
        data = sim_data(n=20, seed=1)
        data = SurvivalDataset(data.X, data.time, np.zeros(20, dtype=int))
        assert partial_loglik(data, np.full(data.p, 0.4)) == 0.0
        np.testing.assert_array_equal(
            partial_loglik_grad(data, np.full(data.p, 0.4)), np.zeros(data.p))

    def test_rejects_nonfinite_beta(self):
        data = sim_data(n=10, seed=2)
        with pytest.raises(ValueError, match="finite"):
            partial_loglik(data, np.array([np.inf, 0.0]))

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 3))
        time = rng.integers(1, 5, size=12).astype(float)  # forced ties
        event = rng.integers(0, 2, size=12)
        data = SurvivalDataset(X, time, event)
        beta = rng.standard_normal(3) * 0.5
        assert partial_loglik(data, beta) == pytest.approx(
            pll_brute_force(data, beta), rel=1e-12)
        np.testing.assert_allclose(partial_loglik_grad(data, beta),
                                   grad_brute_force(data, beta), rtol=1e-10)

    def test_logsumexp_stable_at_large_eta(self):
        data = sim_data(n=15, seed=4)
        beta = np.full(data.p, 200.0)
        assert np.isfinite(partial_loglik(data, beta))


class TestGradient:
    def test_two_event_hand_expansion(self):
        X = np.array([[1.0, 0.0], [0.0, 2.0]])
        data = SurvivalDataset(X, [1.0, 3.0], [1, 1])
        want = (X[0] - (X[0] + X[1]) / 2) + (X[1] - X[1])
        np.testing.assert_allclose(partial_loglik_grad(data, np.zeros(2)), want)

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_check(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 15, 4
        data = SurvivalDataset(rng.standard_normal((n, p)),
                               rng.uniform(1, 10, n), rng.integers(0, 2, n))
        beta = rng.standard_normal(p) * 0.7
        g = partial_loglik_grad(data, beta)
        fd = np.zeros(p)
        eps = 1e-6
        for j in range(p):
            bp, bm = beta.copy(), beta.copy()
            bp[j] += eps
            bm[j] -= eps
            fd[j] = (partial_loglik(data, bp) - partial_loglik(data, bm)) / (2 * eps)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


def test_gradient_memory_is_linear_in_n_plus_p():
    # a risk-set sum of the n×p matrix w * X alone takes 15 MiB here
    rng = np.random.default_rng(0)
    n, p = 1000, 2000
    data = SurvivalDataset(rng.standard_normal((n, p)),
                           rng.uniform(1.0, 10.0, n), rng.integers(0, 2, n))
    beta = rng.standard_normal(p) * 0.01
    tracemalloc.start()
    try:
        partial_loglik_grad(data, beta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


class TestFitLasso:
    def test_large_penalty_gives_exact_null(self):
        data = sim_data(n=60, p=4, seed=5)
        fit = fit_lasso(data, lambda_max(data) * 1.01)
        np.testing.assert_array_equal(fit.beta_hat, np.zeros(4))

    def test_unpenalized_matches_newton_oracle(self):
        data = sim_data(n=50, p=2, seed=6)
        Z = (data.X - data.X.mean(0)) / data.X.std(0, ddof=1)
        zdata = SurvivalDataset(Z, data.time, data.event)
        want = newton_oracle(zdata)
        fit = fit_lasso(zdata, 0.0, tol=1e-12, max_iter=50_000)
        np.testing.assert_allclose(fit.beta_hat, want, atol=1e-4)

    def test_objective_trace_monotone(self):
        data = sim_data(n=80, p=6, seed=7)
        fit = fit_lasso(data, 0.3 * lambda_max(data))
        assert np.all(np.diff(fit.objective_trace) <= 1e-12)

    def test_sparsity_monotone_along_path(self):
        data = sim_data(n=100, p=10, seed=8)
        nnz = []
        beta = None
        for lam in lambda_path(data, 20):
            fit = fit_lasso(data, lam, beta0=beta)
            beta = fit.beta_hat
            nnz.append(int(np.count_nonzero(beta)))
        assert all(a <= b for a, b in zip(nnz, nnz[1:]))

    def test_permutation_invariance(self):
        data = sim_data(n=40, p=3, seed=9)
        rng = np.random.default_rng(1)
        perm = rng.permutation(40)
        shuffled = SurvivalDataset(data.X[perm], data.time[perm], data.event[perm])
        lam = 0.2 * lambda_max(data)
        a = fit_lasso(data, lam).beta_hat
        b = fit_lasso(shuffled, lam).beta_hat
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            fit_lasso(sim_data(n=10, seed=0), -1.0)


class TestProximalGradientOnQuadratics:
    def test_closed_form_lasso_solution(self):
        # min 0.5||b - z||^2 + lam||b||_1 has solution soft_threshold(z, lam)
        rng = np.random.default_rng(10)
        z = rng.standard_normal(8) * 2
        lam = 0.8
        beta, trace, ok = proximal_gradient(
            lambda b: 0.5 * np.sum((b - z) ** 2),
            lambda b: b - z,
            lam, np.zeros(8), tol=1e-14, max_iter=5000)
        assert ok
        np.testing.assert_allclose(beta, soft_threshold(z, lam), atol=1e-8)

    def test_divergent_objective_raises(self):
        with pytest.raises(RuntimeError):
            proximal_gradient(lambda b: float(np.nan), lambda b: b, 0.0,
                              np.zeros(2))


class TestCvLambda:
    def test_single_candidate_returned(self):
        data = sim_data(n=60, p=3, seed=11)
        assert cv_lambda(data, 3, path=[0.37], seed=0) == 0.37

    def test_deterministic(self):
        data = sim_data(n=60, p=4, seed=12)
        path = lambda_path(data, 8)
        assert cv_lambda(data, 4, path=path, seed=3) == cv_lambda(
            data, 4, path=path, seed=3)

    def test_noise_data_prefers_heavy_penalty(self):
        hits = 0
        for seed in range(10):
            data = sim_data(n=60, p=6, seed=seed + 100)
            noise = SurvivalDataset(
                np.random.default_rng(seed).standard_normal((60, 6)),
                data.time, data.event)
            path = lambda_path(noise, 10)
            best = cv_lambda(noise, 4, path=path, seed=seed)
            if best >= path[4]:  # upper half of the descending path
                hits += 1
        assert hits >= 7

    def test_all_folds_skipped_warns_and_takes_largest_penalty(self):
        # the networks' ridge selection falls back the same way
        data = sim_data(n=20, seed=13)
        no_events = SurvivalDataset(data.X, data.time, np.zeros(20, dtype=int))
        with pytest.warns(RuntimeWarning) as caught:
            lam = cv_lambda(no_events, 2, path=[0.3, 0.1], seed=0)
        assert [str(w.message).split(";")[0] for w in caught] == [
            "fold 0 has no events on one side", "fold 1 has no events on one side",
            "every fold was skipped"]
        assert lam == 0.3


class TestRiskScore:
    def make_fit(self, beta):
        beta = np.asarray(beta, float)
        return CoxFit(beta_hat=beta, lam=0.0, mean=np.zeros(beta.size),
                      scale=np.ones(beta.size), n_iter=0,
                      objective_trace=np.zeros(1))

    def test_null_beta_gives_one(self):
        scores = risk_score(self.make_fit([0.0, 0.0]), [3.0, -1.0])
        assert isinstance(scores, np.ndarray) and scores.shape == (1,)
        np.testing.assert_array_equal(scores, [1.0])

    def test_doubling_beta_squares_score(self):
        x = np.array([0.5, -1.2])
        s1 = risk_score(self.make_fit([0.4, 0.3]), x)
        s2 = risk_score(self.make_fit([0.8, 0.6]), x)
        assert s2 == pytest.approx(s1 ** 2, rel=1e-12)

    def test_ordering_preserved(self):
        fit = self.make_fit([1.0, -1.0])
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, -1.0]])
        scores = risk_score(fit, rows)
        eta = rows @ fit.beta_hat
        assert np.array_equal(np.argsort(scores), np.argsort(eta))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="covariates"):
            risk_score(self.make_fit([1.0, 2.0]), [1.0, 2.0, 3.0])
