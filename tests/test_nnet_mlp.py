import numpy as np
import pytest

from survbench.nnet import TrainConfig, coxnnet, discrete, mlp
from survbench.nnet.mlp import (
    Adam,
    MlpParams,
    init_mlp,
    mlp_backward,
    mlp_forward,
    unpack,
)


def finite_diff(loss_fn, template, vec, eps=1e-6):
    fd = np.zeros_like(vec)
    for j in range(vec.size):
        up, dn = vec.copy(), vec.copy()
        up[j] += eps
        dn[j] -= eps
        fd[j] = (loss_fn(unpack(template, up)) - loss_fn(unpack(template, dn))) / (2 * eps)
    return fd


class TestForward:
    def test_zero_weights_tanh_gives_zero(self):
        params = MlpParams.from_layers(
            weights=(np.zeros((3, 4)), np.zeros((4, 1))),
            biases=(np.zeros(4), np.zeros(1)),
            activations=("tanh", "identity"),
        )
        out, _ = mlp_forward(params, np.ones((5, 3)))
        np.testing.assert_array_equal(out, np.zeros((5, 1)))

    def test_identity_single_layer_is_affine(self):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((3, 2))
        b = rng.standard_normal(2)
        params = MlpParams.from_layers(weights=(W,), biases=(b,),
                                       activations=("identity",))
        X = rng.standard_normal((6, 3))
        out, _ = mlp_forward(params, X)
        np.testing.assert_array_equal(out, X @ W + b)

    def test_matches_independent_composition(self):
        # re-evaluate the same net with plain matrix arithmetic
        rng = np.random.default_rng(1)
        params = init_mlp((4, 5, 3, 1), ("tanh", "relu", "identity"), seed=7)
        X = rng.standard_normal((8, 4))
        a = np.tanh(X @ params.weights[0] + params.biases[0])
        a = np.maximum(a @ params.weights[1] + params.biases[1], 0.0)
        want = a @ params.weights[2] + params.biases[2]
        out, _ = mlp_forward(params, X)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_seeded_init_reproducible(self):
        a = init_mlp((3, 4, 1), ("relu", "identity"), seed=5)
        b = init_mlp((3, 4, 1), ("relu", "identity"), seed=5)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_optional_output_bias(self):
        params = init_mlp((3, 4, 1), ("tanh", "identity"), seed=1,
                          output_bias=False)
        assert params.biases[-1] is None
        assert params.biases[0] is not None


class TestBackward:
    @pytest.mark.parametrize("acts", [("tanh", "identity"),
                                      ("relu", "identity"),
                                      ("relu", "tanh")])
    def test_matches_finite_differences_on_quadratic(self, acts):
        rng = np.random.default_rng(3)
        params = init_mlp((3, 4, 1), acts, seed=11)
        X = rng.standard_normal((6, 3))
        y = rng.standard_normal(6)

        def loss_fn(p):
            out, _ = mlp_forward(p, X)
            return 0.5 * np.sum((out[:, 0] - y) ** 2)

        out, caches = mlp_forward(params, X)
        grad = mlp_backward(params, caches, (out[:, 0] - y)[:, None])
        fd = finite_diff(loss_fn, params, params.vec)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


class TestFlatParameters:
    def test_unpack_views_round_trip(self):
        params = init_mlp((3, 5, 2, 1), ("tanh", "relu", "identity"), seed=2,
                          output_bias=False)
        # the views and from_layers' copy agree on the layout
        again = MlpParams.from_layers(params.weights, params.biases,
                                      params.activations)
        np.testing.assert_array_equal(again.vec, params.vec)

        vec = params.vec.copy()
        views = unpack(params, vec)
        assert views.vec is vec and views.biases[-1] is None
        for got, orig in zip(views.weights + views.biases[:-1],
                             params.weights + params.biases[:-1]):
            assert np.shares_memory(got, vec)
            np.testing.assert_array_equal(got, orig)

    def test_layers_checked_once_per_init_never_per_step(self, monkeypatch):
        from survbench.simgen import ModelFamily, SimulationSpec, Weibull, generate

        counts = {"check": 0, "init": 0, "step": 0}
        check, init, step = mlp._check_layers, mlp.init_mlp, Adam.step

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mlp, "_check_layers", counted("check", check))
        for module in (coxnnet, discrete):
            monkeypatch.setattr(module, "init_mlp", counted("init", init))
        monkeypatch.setattr(Adam, "step", counted("step", step))

        spec = SimulationSpec(family=ModelFamily.COX,
                              baseline=Weibull(2.0, 1.3e-7), n=60, p=3, k=2,
                              censor_target=0.3, seed=0)
        data = generate(spec).data
        cfg = TrainConfig(epochs=4, min_epochs=1, cv_folds=2, batch_size=32,
                          seed=0)
        coxnnet.coxnnet_fit(data, cfg)
        discrete.nnsurv_fit(data, cfg, depth=1, n_intervals=4)
        # ridge CV trains 3 candidates on each of 2 folds, then the final
        # fit; every training runs all its epochs (patience > epochs)
        assert counts["init"] == 2 * (2 * 3 + 1)
        assert counts["check"] == counts["init"]
        assert counts["step"] >= cfg.epochs * counts["init"]


class TestAdam:
    def test_converges_on_quadratic(self):
        opt = Adam(lr=0.1)
        x = np.array([5.0, -3.0])
        for _ in range(500):
            x = opt.step(x, 2 * x)
        np.testing.assert_allclose(x, np.zeros(2), atol=1e-4)

    def test_deterministic(self):
        def run():
            opt = Adam(lr=0.05)
            x = np.array([1.0, 2.0, 3.0])
            for _ in range(50):
                x = opt.step(x, np.sin(x))
            return x

        np.testing.assert_array_equal(run(), run())
