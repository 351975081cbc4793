import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survbench.nnet import TrainConfig, coxnnet, discrete, mlp
from survbench.nnet.mlp import (
    Adam,
    MlpParams,
    init_mlp,
    mlp_backward,
    mlp_forward,
    squared_norm,
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
        stacks = {"coxnnet": [], "nnsurv": []}  # candidates per loss call

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def stacked(key, fn):
            def wrapper(params, *args):
                stacks[key].append(params.vec.shape[0])
                return fn(params, *args)
            return wrapper

        monkeypatch.setattr(mlp, "_check_layers", counted("check", check))
        for module in (coxnnet, discrete):
            monkeypatch.setattr(module, "init_mlp", counted("init", init))
        monkeypatch.setattr(Adam, "step", counted("step", step))
        monkeypatch.setattr(coxnnet, "coxnnet_loss_and_grad",
                            stacked("coxnnet", coxnnet.coxnnet_loss_and_grad))
        monkeypatch.setattr(discrete, "nnsurv_loss_and_grad",
                            stacked("nnsurv", discrete.nnsurv_loss_and_grad))

        spec = SimulationSpec(family=ModelFamily.COX,
                              baseline=Weibull(2.0, 1.3e-7), n=60, p=3, k=2,
                              censor_target=0.3, seed=0)
        data = generate(spec).data
        cfg = TrainConfig(epochs=4, min_epochs=1, cv_folds=2, batch_size=32)
        coxnnet.coxnnet_fit(data, 0, cfg)
        discrete.nnsurv_fit(data, 0, cfg, depth=1, n_intervals=4)
        # ridge CV trains the 3 candidates of each of 2 folds as one stack
        # from one init, then the final fit; every training runs all its
        # epochs (patience > epochs)
        assert counts["init"] == 2 * (2 + 1)
        assert counts["check"] == counts["init"]
        assert counts["step"] >= cfg.epochs * counts["init"]
        # one loss (one forward/backward) and one Adam step per batch, for
        # every candidate of the stack; coxnnet is full-batch
        assert counts["step"] == len(stacks["coxnnet"]) + len(stacks["nnsurv"])
        assert stacks["coxnnet"] == [3] * (2 * cfg.epochs) + [1] * cfg.epochs
        n_cv = stacks["nnsurv"].count(3)
        assert n_cv > 0 and stacks["nnsurv"][n_cv:] == [1] * (
            len(stacks["nnsurv"]) - n_cv)


class TestStack:
    """A stack of networks on a leading axis computes, per network, what
    the network computes alone."""

    @pytest.mark.parametrize("sizes, acts, bias", [
        ((4, 5, 1), ("tanh", "identity"), False),
        ((6, 7, 7, 1), ("relu", "relu", "identity"), True),
        ((3, 2), ("relu",), True),
    ])
    def test_forward_and_backward_match_each_network(self, sizes, acts, bias):
        rng = np.random.default_rng(len(sizes))
        nets = [init_mlp(sizes, acts, seed=s, output_bias=bias)
                for s in range(4)]
        stack = unpack(nets[0], np.stack([net.vec for net in nets]))
        X = rng.standard_normal((37, sizes[0]))
        d_out = rng.standard_normal((4, 37, sizes[-1]))
        out, caches = mlp_forward(stack, X)
        grad = mlp_backward(stack, caches, d_out)
        assert out.shape == (4, 37, sizes[-1]) and grad.shape == stack.vec.shape
        for c, net in enumerate(nets):
            want_out, want_caches = mlp_forward(net, X)
            np.testing.assert_array_equal(out[c], want_out)
            np.testing.assert_array_equal(
                grad[c], mlp_backward(net, want_caches, d_out[c]))

    @given(st.lists(st.integers(1, 9), min_size=2, max_size=5),
           st.integers(1, 4), st.booleans(), st.integers(0, 2 ** 31))
    @settings(max_examples=2000, deadline=None, derandomize=True)
    def test_squared_norm_sums_each_layer_as_before(self, sizes, n_nets,
                                                    bias, seed):
        # one pairwise sum per weight matrix and per bias, added in layer
        # order: equal to summing w * w layer by layer
        acts = ("tanh",) * (len(sizes) - 1)
        rng = np.random.default_rng(seed)
        nets = [init_mlp(sizes, acts, seed=seed + c, output_bias=bias)
                for c in range(n_nets)]
        vec = np.stack([net.vec for net in nets])
        vec *= 10.0 ** rng.integers(-3, 4, size=vec.shape)
        stack = unpack(nets[0], vec)
        got = squared_norm(stack)
        assert got.shape == (n_nets,)
        for c in range(n_nets):
            net = unpack(nets[0], vec[c])
            want = 0.0
            for w, b in zip(net.weights, net.biases):
                want += float(np.sum(w * w))
                if b is not None:
                    want += float(np.sum(b * b))
            assert squared_norm(net) == want
            assert got[c] == want


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

    def test_in_place_step_rounds_as_the_textbook_update(self):
        rng = np.random.default_rng(0)
        vec = rng.standard_normal((3, 40))
        opt = Adam(lr=0.01)
        m = v = np.zeros_like(vec)
        want = vec.copy()
        for t in range(1, 30):
            grad = rng.standard_normal(vec.shape) * 10.0 ** rng.integers(-4, 3)
            assert opt.step(vec, grad) is vec
            m = 0.9 * m + (1 - 0.9) * grad
            v = 0.999 * v + (1 - 0.999) * grad * grad
            want = want - 0.01 * (m / (1 - 0.9 ** t)) / (
                np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            np.testing.assert_array_equal(vec, want)
