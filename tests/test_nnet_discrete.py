import numpy as np
import pytest

from survbench.core import SurvivalDataset, standardize_covariates
from survbench.nnet import TrainConfig
from survbench.nnet import discrete as discrete_module
from survbench.nnet.discrete import (
    DiscreteTimeGrid,
    _train_network,
    build_time_grid,
    duplicate,
    nnsurv_fit,
    nnsurv_hazards,
    nnsurv_loss_and_grad,
    nnsurv_survival,
)
from survbench.nnet.mlp import MlpParams, init_mlp, unpack
from survbench.nnet.coxnnet import coxnnet_fit, coxnnet_scores
from survbench.simgen import LogNormal, ModelFamily, SimulationSpec, Weibull, generate


def uniform_data(n=50, seed=0):
    rng = np.random.default_rng(seed)
    return SurvivalDataset(rng.standard_normal((n, 2)),
                           rng.uniform(0.01, 1.0, n), rng.integers(0, 2, n))


class TestTimeGrid:
    def test_two_intervals_cut_near_median(self):
        data = uniform_data(n=400, seed=1)
        grid = build_time_grid(data, 2)
        assert grid.cuts[0] == 0.0
        assert grid.cuts[1] == pytest.approx(np.median(data.time))
        assert grid.cuts[2] == pytest.approx(data.time.max())

    def test_every_time_in_exactly_one_interval(self):
        data = uniform_data(n=100, seed=2)
        grid = build_time_grid(data, 5)
        idx = grid.interval_of(data.time)
        assert idx.min() >= 1 and idx.max() <= 5
        for i, t in enumerate(data.time):
            l = idx[i]
            assert grid.cuts[l - 1] < t <= grid.cuts[l]

    def test_deterministic(self):
        data = uniform_data(n=60, seed=3)
        a = build_time_grid(data, 4)
        b = build_time_grid(data, 4)
        np.testing.assert_array_equal(a.cuts, b.cuts)

    def test_too_few_distinct_times_errors(self):
        data = SurvivalDataset(np.zeros((4, 1)), [1.0, 1.0, 2.0, 2.0],
                               [1, 1, 1, 1])
        with pytest.raises(ValueError, match="distinct"):
            build_time_grid(data, 3)

    def test_beyond_last_cut_maps_to_final_interval(self):
        grid = DiscreteTimeGrid(cuts=np.array([0.0, 1.0, 2.0]))
        assert grid.interval_of(99.0) == 2


class TestDuplicate:
    def test_event_in_first_interval_single_row(self):
        data = SurvivalDataset(np.array([[1.5]]), [0.5], [1])
        grid = DiscreteTimeGrid(cuts=np.array([0.0, 1.0, 2.0]))
        batch = duplicate(data, grid)
        assert batch.n_rows == 1
        np.testing.assert_array_equal(batch.targets, [1.0])
        np.testing.assert_array_equal(batch.features, [[1.5, 0.5]])

    def test_censored_in_third_interval_all_zero_targets(self):
        data = SurvivalDataset(np.array([[2.0]]), [2.5], [0])
        grid = DiscreteTimeGrid(cuts=np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
        batch = duplicate(data, grid)
        assert batch.n_rows == 3
        np.testing.assert_array_equal(batch.targets, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(batch.features[:, -1], [0.5, 1.5, 2.5])

    def test_row_count_is_sum_of_interval_indices(self):
        data = uniform_data(n=80, seed=4)
        grid = build_time_grid(data, 6)
        batch = duplicate(data, grid)
        assert batch.n_rows == int(grid.interval_of(data.time).sum())

    def test_back_pointers_recover_interval_index(self):
        data = uniform_data(n=30, seed=5)
        grid = build_time_grid(data, 4)
        batch = duplicate(data, grid)
        last = grid.interval_of(data.time)
        for i in range(data.n):
            # subject i's rows carry the midpoints of intervals 1..last[i]
            mids = batch.features[batch.subject == i, -1]
            np.testing.assert_array_equal(mids, grid.midpoints[:last[i]])


def duplicate_oracle(data, grid):
    """Per-subject construction of the duplicated rows."""
    mids = grid.midpoints
    last = grid.interval_of(data.time)
    rows, targets, subject = [], [], []
    for i in range(data.n):
        li = int(last[i])
        rows.append(np.column_stack([np.repeat(data.X[i][None, :], li, axis=0),
                                     mids[:li]]))
        d = np.zeros(li)
        d[-1] = data.event[i]
        targets.append(d)
        subject.append(np.full(li, i))
    return (np.concatenate(rows, axis=0), np.concatenate(targets),
            np.concatenate(subject))


class TestDuplicateOracle:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("tied", [False, True])
    def test_equals_per_subject_rows(self, seed, tied):
        rng = np.random.default_rng(seed)
        n = 300
        time = rng.uniform(0.01, 10.0, n)
        if tied:
            time = np.ceil(time)  # ten distinct times, ~30 subjects each
        data = SurvivalDataset(rng.standard_normal((n, 3)), time,
                               rng.integers(0, 2, n))
        # the last cut sits below the largest times, so some subjects lie
        # beyond it and are counted in the final interval
        cuts = np.concatenate([[0.0], np.quantile(time, [0.2, 0.45, 0.7])])
        grid = DiscreteTimeGrid(cuts=np.unique(cuts))
        assert (time > grid.cuts[-1]).any()
        batch = duplicate(data, grid)
        got = (batch.features, batch.targets, batch.subject)
        for a, b in zip(got, duplicate_oracle(data, grid)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def constant_half_net(p_in):
    """Zero weights and biases with a logit head: every hazard is 0.5."""
    return MlpParams.from_layers(weights=(np.zeros((p_in, 2)), np.zeros((2, 1))),
                                 biases=(np.zeros(2), np.zeros(1)),
                                 activations=("relu", "identity"))


def central_differences(params, feats, targets, eps=1e-6):
    """d loss / d params.vec of ``nnsurv_loss_and_grad`` by central
    differences."""
    vec = params.vec
    fd = np.zeros_like(vec)
    for j in range(vec.size):
        up, dn = vec.copy(), vec.copy()
        up[j] += eps
        dn[j] -= eps
        fd[j] = (nnsurv_loss_and_grad(unpack(params, up), feats, targets)[0]
                 - nnsurv_loss_and_grad(unpack(params, dn), feats, targets)[0]) / (2 * eps)
    return fd


class TestLossAndGrad:
    def test_single_row_event_at_half(self):
        params = constant_half_net(2)
        loss, _ = nnsurv_loss_and_grad(params, np.array([[0.3, 0.7]]),
                                       np.array([1.0]))
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    def test_saturated_correct_prediction_near_zero_loss(self):
        params = MlpParams.from_layers(weights=(np.zeros((1, 1)),),
                                       biases=(np.array([50.0]),),
                                       activations=("identity",))
        loss, _ = nnsurv_loss_and_grad(params, np.array([[0.0]]),
                                       np.array([1.0]))
        assert loss == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("logit, target", [(40.0, 0.0), (-40.0, 1.0)])
    def test_saturated_wrong_prediction_keeps_loss_and_gradient(self, logit,
                                                                target):
        # clipping the hazard to [1e-12, 1 - 1e-12] would cap this loss at
        # 27.6 with a zero gradient; on the logit it is log(1 + e^40) ~ 40
        params = MlpParams.from_layers(weights=(np.ones((1, 1)),),
                                       biases=(np.array([logit - 1.0]),),
                                       activations=("identity",))
        feats, targets = np.array([[1.0]]), np.array([target])
        loss, grad = nnsurv_loss_and_grad(params, feats, targets)
        assert loss == pytest.approx(40.0, rel=1e-12)
        assert np.all(np.abs(grad) > 0.5)
        np.testing.assert_allclose(
            grad, central_differences(params, feats, targets), rtol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((9, 3))
        targets = rng.integers(0, 2, 9).astype(float)
        params = init_mlp((3, 3, 1), ("relu", "identity"), seed=seed + 10)
        _, grad = nnsurv_loss_and_grad(params, feats, targets)
        fd = central_differences(params, feats, targets)
        err = np.abs(grad - fd) / np.maximum(1e-8, np.abs(fd))
        assert np.max(np.where(np.abs(fd) > 1e-10, err, 0.0)) < 1e-5


def ah_sim(n=250, seed=0):
    spec = SimulationSpec(family=ModelFamily.AH, baseline=LogNormal(7.73, 0.7),
                          n=n, p=4, k=2, censor_target=0.3, seed=seed)
    return generate(spec)


class TestFitAndSurvival:
    def fast_config(self, **kw):
        base = dict(ridge=1.0, epochs=25, min_epochs=5, patience=10,
                    batch_size=128)
        base.update(kw)
        return TrainConfig(**base)

    def test_deterministic_given_seed(self):
        sim = ah_sim(n=120)
        a = nnsurv_fit(sim.data, 7, self.fast_config(), depth=1, n_intervals=8)
        b = nnsurv_fit(sim.data, 7, self.fast_config(), depth=1, n_intervals=8)
        np.testing.assert_array_equal(a.params.vec, b.params.vec)

    def test_depth_two_adds_a_layer(self):
        sim = ah_sim(n=100)
        shallow = nnsurv_fit(sim.data, 1, self.fast_config(), depth=1, n_intervals=6)
        deep = nnsurv_fit(sim.data, 1, self.fast_config(), depth=2, n_intervals=6)
        assert shallow.params.n_layers == 2
        assert deep.params.n_layers == 3
        with pytest.raises(ValueError):
            nnsurv_fit(sim.data, 1, self.fast_config(), depth=3)

    def test_training_loss_decreases_smoothed(self):
        sim = ah_sim(n=300, seed=2)
        cfg = self.fast_config(epochs=40, min_epochs=40, patience=100)
        fit = nnsurv_fit(sim.data, 2, cfg, depth=1, n_intervals=10)
        trace = fit.loss_trace
        k = 5
        smooth = np.convolve(trace, np.ones(k) / k, mode="valid")
        assert smooth[-1] < smooth[0]

    def test_survival_is_cumprod_of_one_minus_hazard(self):
        sim = ah_sim(n=150, seed=3)
        fit = nnsurv_fit(sim.data, 3, self.fast_config(), depth=1, n_intervals=8)
        x = sim.data.X[0]
        h = nnsurv_hazards(fit, x)
        curve = nnsurv_survival(fit, x)
        np.testing.assert_allclose(curve.probs, np.cumprod(1 - h), rtol=1e-12)
        np.testing.assert_array_equal(curve.grid, fit.grid.cuts[1:])

    @pytest.mark.parametrize("depth", [1, 2])
    def test_batch_rows_equal_one_row_calls(self, depth):
        spec = SimulationSpec(family=ModelFamily.AH,
                              baseline=LogNormal(7.73, 0.7),
                              n=400, p=10, k=10, censor_target=0.3, seed=6)
        sim = generate(spec)
        fit = nnsurv_fit(sim.data, 6, self.fast_config(), depth=depth,
                         n_intervals=18)
        X = sim.data.X
        batch = nnsurv_survival(fit, X)
        hazards = nnsurv_hazards(fit, X)
        assert batch.probs.shape == hazards.shape == (400, fit.grid.n_intervals)
        for i, x in enumerate(X):
            assert np.array_equal(hazards[i], nnsurv_hazards(fit, x))
            assert np.array_equal(batch[i].probs, nnsurv_survival(fit, x).probs)

    def test_half_hazards_quarter_survival(self):
        fit_like = nnsurv_fit(ah_sim(n=60, seed=4).data, 4, self.fast_config(),
                              depth=1, n_intervals=2)
        # overwrite the net with the constant-half predictor
        from dataclasses import replace
        fit = replace(fit_like, params=constant_half_net(fit_like.params.weights[0].shape[0]))
        x = np.zeros(4)
        curve = nnsurv_survival(fit, x)
        np.testing.assert_allclose(curve.probs, [0.5, 0.25], rtol=1e-12)

    def test_ah_simulation_discrimination(self):
        # full default pipeline on the crossing-hazards benchmark cell
        from survbench.metrics import c_index_td
        from survbench.models import fit_model
        from survbench.core import train_test_split
        from survbench.simgen import SimulationSpec

        spec = SimulationSpec(family=ModelFamily.AH,
                              baseline=LogNormal(7.73, 0.7),
                              n=1000, p=10, k=10, censor_target=0.3, seed=1)
        sim = generate(spec)
        train, test, _ = train_test_split(sim.data, 2 / 3, seed=1)
        model = fit_model("nnsurv", train, seed=1)
        curves = model.predict_survival(test.X)
        assert c_index_td(curves, test.time, test.event) > 0.65

    def test_near_zero_hazards_give_flat_one(self):
        fit_like = nnsurv_fit(ah_sim(n=60, seed=5).data, 5, self.fast_config(),
                              depth=1, n_intervals=3)
        from dataclasses import replace
        p_in = fit_like.params.weights[0].shape[0]
        frozen = MlpParams.from_layers(weights=(np.zeros((p_in, 1)),),
                                       biases=(np.array([-60.0]),),
                                       activations=("identity",))
        fit = replace(fit_like, params=frozen)
        curve = nnsurv_survival(fit, np.zeros(4))
        np.testing.assert_allclose(curve.probs, 1.0, atol=1e-9)


class TestTiedTimes:
    def test_tied_quantile_cuts_merge(self):
        # six of eight times tie at 1: the 1/3 and 2/3 quantiles coincide
        data = SurvivalDataset(np.zeros((8, 1)), [1.0] * 6 + [2.0, 3.0],
                               np.ones(8, dtype=int))
        grid = build_time_grid(data, 3)
        np.testing.assert_array_equal(grid.cuts, [0.0, 1.0, 3.0])

    def test_fewer_than_two_intervals_left_errors(self):
        # the median already equals the largest time
        data = SurvivalDataset(np.zeros((6, 1)), [1.0] + [2.0] * 5,
                               np.ones(6, dtype=int))
        with pytest.raises(ValueError, match="fewer than two intervals"):
            build_time_grid(data, 2)

    def test_distinct_times_keep_every_quantile_cut(self):
        data = uniform_data(n=200, seed=6)
        grid = build_time_grid(data, 12)
        qs = np.quantile(data.time, np.linspace(0.0, 1.0, 13)[1:])
        np.testing.assert_array_equal(grid.cuts, np.concatenate([[0.0], qs]))


class TestStackedCandidates:
    @pytest.mark.parametrize("depth", [1, 2])
    def test_each_candidate_trains_as_it_would_alone(self, depth):
        # small patience and min_epochs: the candidates stop at different
        # epochs, and a stopped one must not move the others
        spec = SimulationSpec(family=ModelFamily.AH,
                              baseline=LogNormal(7.73, 0.7), n=120, p=4, k=2,
                              censor_target=0.3, seed=3)
        data = generate(spec).data
        batch = duplicate(data, build_time_grid(data, 6))
        feats, _, _ = standardize_covariates(batch.features)
        cfg = TrainConfig(epochs=80, min_epochs=3, patience=3,
                          batch_size=64, learning_rate=0.01)
        lams = [0.0, 3.0, 30.0]
        rows = np.arange(batch.n_rows)
        stack, traces = _train_network(feats, batch.targets, batch.subject,
                                       rows, depth, lams, cfg, 7)
        assert stack.vec.shape[0] == 3
        assert len({trace.size for trace in traces}) > 1
        for c, lam in enumerate(lams):
            alone, alone_traces = _train_network(
                feats, batch.targets, batch.subject, rows, depth, [lam], cfg,
                7)
            np.testing.assert_array_equal(stack.vec[c], alone.vec[0])
            np.testing.assert_array_equal(traces[c], alone_traces[0])


class TestMemory:
    def test_training_holds_no_raw_duplicated_rows(self):
        # 300 subjects, p = 500: the duplicated rows are about 11 MiB; the
        # fit standardizes them in one matrix of their size and then trains
        # on it (a scaled, a centred and a result copy read 4.01 times)
        import tracemalloc

        data = generate(SimulationSpec(
            family=ModelFamily.COX, baseline=Weibull(2.0, 1.3e-7), n=300,
            p=500, k=5, censor_target=0.3, seed=0)).data
        nbytes = duplicate(data, build_time_grid(data, 18)).features.nbytes
        cfg = TrainConfig(epochs=3, min_epochs=1)
        tracemalloc.start()
        try:
            nnsurv_fit(data, 0, cfg, n_intervals=18)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * nbytes, peak / nbytes

    def test_training_selects_rows_by_index(self, monkeypatch):
        # after standardization the fit holds one standardized matrix: folds,
        # the validation split and each epoch's batches name rows by index
        # instead of copying them (a copy per fold, split and epoch read
        # 3.87 times the duplicated features)
        import tracemalloc

        data = generate(SimulationSpec(
            family=ModelFamily.COX, baseline=Weibull(2.0, 1.3e-7), n=300,
            p=500, k=5, censor_target=0.3, seed=0)).data
        nbytes = duplicate(data, build_time_grid(data, 18)).features.nbytes
        standardize = discrete_module.standardize_covariates

        def then_reset_peak(X):
            out = standardize(X)
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(discrete_module, "standardize_covariates",
                            then_reset_peak)
        cfg = TrainConfig(epochs=3, min_epochs=1)
        tracemalloc.start()
        try:
            nnsurv_fit(data, 0, cfg, n_intervals=18)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * nbytes, peak / nbytes


class TestSelectRidge:
    def test_fold_seeds_drawn_after_the_labels(self, monkeypatch):
        # one stream from the fit's seed: the subject fold labels, one seed
        # per fold, then the final fit's seed on every subject
        data = uniform_data(n=40, seed=2)
        cfg = TrainConfig(epochs=3, min_epochs=1, patience=1, cv_folds=3)
        calls = []

        def recording(*args):
            subject, rows = args[2], args[3]
            calls.append((np.unique(subject[rows]), args[-1]))
            return _train_network(*args)

        monkeypatch.setattr(discrete_module, "_train_network", recording)
        nnsurv_fit(data, 4, cfg, n_intervals=5)
        rng = np.random.default_rng(4)
        labels = rng.permutation(data.n) % 3
        seeds = list(rng.integers(2 ** 31, size=3)) + [rng.integers(2 ** 31)]
        assert [seed for _, seed in calls] == seeds
        for fold in range(3):
            np.testing.assert_array_equal(calls[fold][0],
                                          np.flatnonzero(labels != fold))
        np.testing.assert_array_equal(calls[3][0], np.arange(data.n))


# nnsurv_fit outputs with ridge CV on, recorded before the network heads
# moved onto the shared training loop; any change to the nnsurv path
# (RNG order, batching, scoring, tie rule of the CV) shows here.
PINNED_FITS = {
    1: dict(
        ridge=0.315,
        loss_trace=[
            151.56187319274326, 148.88360356554605, 146.4419153358752,
            144.54546826884587, 142.75562227213499, 141.10605875890968,
            139.45969596143456, 138.07091775890714, 136.96710645403385,
            135.90717975800519, 135.37017564217123, 134.73313661302325,
            134.43394873288972, 134.19032143169414, 133.9881130527233,
            133.75765546566996],
        hazards=[
            [0.07973797876318822, 0.11180672136958364, 0.1478640351720356,
             0.2092332511238429, 0.33160928601191714, 0.6812272512760308],
            [0.09396811007017115, 0.11891820464861567, 0.14924427115480524,
             0.202959675130386, 0.30032530815611913, 0.6080159589811156],
            [0.1435289473123128, 0.19577488448902255, 0.24144702953193534,
             0.30516505621597556, 0.36807312560967537, 0.6435462379896444],
        ]),
    2: dict(
        ridge=0.0315,
        loss_trace=[
            146.18219093991354, 144.2176903573797, 141.99170210470854,
            139.50435675543918, 136.9183312813053, 134.41149351384686,
            132.02034909890455, 130.56193162408226, 129.38112308983193,
            128.36318352720218, 128.1627540774404, 127.47858195063493,
            126.83673047966579, 126.42884725699942, 125.75839060348547,
            125.40585734142729],
        hazards=[
            [0.04061944794323027, 0.08595292598722631, 0.1429507687088826,
             0.25677162469970977, 0.4136270207904014, 0.6832006851549656],
            [0.04772404525511918, 0.09133534747025551, 0.1375149137487817,
             0.23365298970788195, 0.3800576219895813, 0.6403656967785469],
            [0.11733084798401995, 0.2071415720684239, 0.2688660182654326,
             0.32713122308932946, 0.37278785747233584, 0.6301820474724398],
        ]),
}


# coxnnet_fit outputs with ridge CV on, recorded before the parameters
# moved into one flat vector; the Cox head's counterpart of PINNED_FITS.
PINNED_COXNNET = dict(
    ridge=7.0,
    loss_trace=[
        239.67950627853122, 237.3785986056057, 235.2457939767581,
        233.27728129615252, 231.46502245552912, 229.79625099702986,
        228.25604305401208, 226.83035893220207, 225.50781341471577,
        224.27974093296058, 223.13965853780178, 222.08250928488027,
        221.1039678110684, 220.20002572318316, 219.3667696668232,
        218.6001268677645, 217.89562640397426, 217.24836513915574,
        216.65323890728874, 216.10529351692963, 215.59999096912554,
        215.13333968136223, 214.70192896153878, 214.30288506176643,
        213.93373032297856, 213.59218293988818, 213.2760051300072,
        212.98297542004258, 212.71094410028493, 212.45788942522984],
    scores=[0.62720370804815, 0.8918943138679383, 1.1879492995575753],
)


class TestPinnedFits:
    @pytest.mark.parametrize("depth", [1, 2])
    def test_cv_fit_matches_recorded(self, depth):
        spec = SimulationSpec(family=ModelFamily.AH,
                              baseline=LogNormal(7.73, 0.7),
                              n=90, p=3, k=2, censor_target=0.3, seed=11)
        sim = generate(spec)
        cfg = TrainConfig(epochs=30, min_epochs=5, patience=4,
                          cv_folds=2, batch_size=64, learning_rate=0.01,
                          ridge_grid=(1e-5, 1e-4, 1e-3))
        fit = nnsurv_fit(sim.data, 5, cfg, depth=depth, n_intervals=6)
        want = PINNED_FITS[depth]
        assert fit.ridge == pytest.approx(want["ridge"], rel=1e-12)
        np.testing.assert_allclose(fit.loss_trace, want["loss_trace"],
                                   rtol=1e-12)
        for i, hazards in enumerate(want["hazards"]):
            np.testing.assert_allclose(nnsurv_hazards(fit, sim.data.X[i]),
                                       hazards, rtol=1e-12)

    def test_coxnnet_cv_fit_matches_recorded(self):
        spec = SimulationSpec(family=ModelFamily.COX,
                              baseline=Weibull(2.0, 1.3e-7),
                              n=90, p=3, k=2, censor_target=0.3, seed=11)
        sim = generate(spec)
        cfg = TrainConfig(epochs=30, min_epochs=5, patience=4,
                          cv_folds=2, learning_rate=0.01,
                          ridge_grid=(1e-2, 1e-1, 1.0))
        fit = coxnnet_fit(sim.data, 5, cfg)
        want = PINNED_COXNNET
        assert fit.ridge == pytest.approx(want["ridge"], rel=1e-12)
        np.testing.assert_allclose(fit.loss_trace, want["loss_trace"],
                                   rtol=1e-12)
        np.testing.assert_allclose(coxnnet_scores(fit, sim.data.X[:3]),
                                   want["scores"], rtol=1e-12)
