import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survbench.core import SurvivalDataset
from survbench.metrics import c_index_td, metric_report
from survbench.models import (
    MODEL_NAMES,
    fit_model,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from survbench.nnet import TrainConfig
from survbench.simgen import ModelFamily, SimulationSpec, Weibull, generate

FAST = TrainConfig(ridge=1.0, epochs=30, min_epochs=5, patience=10)


@pytest.fixture(scope="module")
def sim_small():
    spec = SimulationSpec(family=ModelFamily.COX, baseline=Weibull(2.0, 1.3e-7),
                          n=120, p=4, k=4, censor_target=0.3, seed=0)
    return generate(spec)


@pytest.fixture(scope="module")
def fitted(sim_small):
    return {
        name: fit_model(name, sim_small.data, seed=3, config=FAST,
                        lasso_cv_folds=2)
        for name in MODEL_NAMES
    }


class TestUniformInterface:
    def test_unknown_name_rejected(self, sim_small):
        with pytest.raises(ValueError, match="unknown model"):
            fit_model("forest", sim_small.data)

    def test_every_model_emits_valid_curves(self, fitted, sim_small):
        X = sim_small.data.X[:20]
        for name, model in fitted.items():
            curves = model.predict_survival(X)
            assert len(curves) == 20
            for c in curves:
                assert np.all(c.probs >= 0.0) and np.all(c.probs <= 1.0)
                assert np.all(np.diff(c.probs) <= 1e-12)
                assert c.probs[0] <= 1.0

    def test_cox_family_exposes_risk_scores(self, fitted, sim_small):
        X = sim_small.data.X[:7]
        for name in ("coxl1", "coxnnet"):
            scores = fitted[name].predict_risk(X)
            assert scores.shape == (7,)
            assert np.all(scores > 0)

    def test_cox_family_curves_never_cross(self, fitted, sim_small):
        X = sim_small.data.X[:15]
        for name in ("coxl1", "coxnnet"):
            curves = fitted[name].predict_survival(X)
            P = np.array([c.probs for c in curves])
            interior = P[:, (P.max(axis=0) < 1) & (P.min(axis=0) > 0)]
            if interior.shape[1] < 2:
                continue
            order = np.argsort(interior[:, 0], kind="stable")
            for col in range(interior.shape[1]):
                assert np.all(np.diff(interior[order, col]) >= -1e-12)


class TestSerialization:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_round_trip_is_bit_exact(self, name, fitted, sim_small, tmp_path):
        model = fitted[name]
        path = tmp_path / f"{name}.json"
        save_model(model, path)
        loaded = load_model(path)
        X = sim_small.data.X[:10]
        a = model.predict_survival(X)
        b = loaded.predict_survival(X)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.grid, cb.grid)
            np.testing.assert_array_equal(ca.probs, cb.probs)
        if hasattr(model, "predict_risk"):
            np.testing.assert_array_equal(model.predict_risk(X),
                                          loaded.predict_risk(X))

    def test_coxnnet_file_with_training_scores_loads(self, fitted, sim_small,
                                                     tmp_path):
        # coxnnet files of format 1 once held the training subjects' scores
        # exp(theta_i) under "train_scores"; loading ignores them
        model = fitted["coxnnet"]
        d = model_to_dict(model)
        assert "train_scores" not in d
        d["train_scores"] = model.predict_risk(sim_small.data.X).tolist()
        path = tmp_path / "coxnnet.json"
        path.write_text(json.dumps(d))
        X = sim_small.data.X[:10]
        want, got = model.predict_survival(X), load_model(path).predict_survival(X)
        np.testing.assert_array_equal(got.grid, want.grid)
        np.testing.assert_array_equal(got.probs, want.probs)

    def test_version_checked(self, fitted):
        d = model_to_dict(fitted["coxl1"])
        d["format_version"] = 999
        with pytest.raises(ValueError, match="version"):
            model_from_dict(d)

    def test_unknown_kind_rejected(self, fitted):
        d = model_to_dict(fitted["nnsurv"])
        d["kind"] = "mystery"
        with pytest.raises(ValueError, match="kind"):
            model_from_dict(d)


def _nan_weight(net):
    net["weights"][0][0][0] = float("nan")


def _unchained_shape(net):
    net["weights"][1] = net["weights"][1][:-1]


def _long_bias(net):
    net["biases"][0] = net["biases"][0] + [0.0]


def _unknown_activation(net):
    net["activations"][0] = "softplus"


class TestLoadChecksNetwork:
    @pytest.mark.parametrize("name", ["coxnnet", "nnsurv"])
    @pytest.mark.parametrize("defect, match", [
        (_nan_weight, "finite"),
        (_unchained_shape, "chain"),
        (_long_bias, "bias shape"),
        (_unknown_activation, "activation"),
    ])
    def test_defective_saved_net_rejected(self, name, defect, match, fitted,
                                          tmp_path):
        path = tmp_path / f"{name}.json"
        save_model(fitted[name], path)
        d = json.loads(path.read_text())
        defect(d["net"])
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=match):
            load_model(path)


def _nan_row(X):
    X[1, 0] = np.nan
    return X


def _inf_row(X):
    X[2, -1] = np.inf
    return X


def _wrong_width(X):
    return X[:, :-1]


def _stacked(X):
    return np.stack([X, X])


class TestPredictionRowChecks:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("defect", [_nan_row, _inf_row, _wrong_width,
                                        _stacked])
    def test_bad_rows_rejected(self, name, defect, fitted, sim_small):
        X = defect(sim_small.data.X[:5].copy())
        with pytest.raises(ValueError,
                           match=r"prediction rows must form an \(n, 4\) matrix "
                                 "of finite covariates"):
            fitted[name].predict_survival(X)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_one_row_vector_is_one_subject(self, name, fitted, sim_small):
        X = sim_small.data.X[:3]
        batch = fitted[name].predict_survival(X)
        one = fitted[name].predict_survival(X[1])
        assert len(one) == 1
        np.testing.assert_array_equal(one.probs[0], batch.probs[1])


class TestSavedSigmoidHead:
    def test_loads_and_predicts_as_saved(self):
        # an nnsurv_deep model saved while the network ended in a sigmoid
        # layer, with the curves it predicted then for four rows
        data = Path(__file__).parent / "data"
        saved = json.loads((data / "nnsurv_deep_saved_v1.json").read_text())
        assert saved["net"]["activations"][-1] == "sigmoid"
        model = load_model(data / "nnsurv_deep_saved_v1.json")
        assert model.fit.params.activations[-1] == "identity"
        want = json.loads((data / "nnsurv_deep_saved_v1_curves.json").read_text())
        curves = model.predict_survival(np.asarray(want["X"]))
        np.testing.assert_array_equal(curves.grid, want["grid"])
        np.testing.assert_array_equal(curves.probs, want["probs"])


class TestHighDimensionalRobustness:
    def test_noise_columns_leave_run_intact(self):
        # append pure-noise columns and confirm the pipeline still runs
        # and produces sane concordance at p = 1000
        spec = SimulationSpec(family=ModelFamily.COX,
                              baseline=Weibull(2.0, 1.3e-7),
                              n=150, p=1000, k=5, censor_target=0.3, seed=1)
        sim = generate(spec)
        cfg = TrainConfig(ridge=50.0, epochs=40, min_epochs=10, patience=10)
        model = fit_model("coxnnet", sim.data, seed=1, config=cfg)
        curves = model.predict_survival(sim.data.X[:50])
        ctd = c_index_td(curves, sim.data.time[:50], sim.data.event[:50])
        assert 0.0 <= ctd <= 1.0

    def test_noise_columns_move_concordance_boundedly(self):
        from survbench.core import SurvivalDataset, train_test_split

        spec = SimulationSpec(family=ModelFamily.COX,
                              baseline=Weibull(2.0, 1.3e-7),
                              n=400, p=5, k=5, censor_target=0.3, seed=4)
        sim = generate(spec)
        rng = np.random.default_rng(0)
        noisy = SurvivalDataset(
            np.hstack([sim.data.X, rng.standard_normal((400, 20))]),
            sim.data.time, sim.data.event)
        cfg = TrainConfig(ridge=5.0, epochs=120, min_epochs=60, patience=30)
        scores = {}
        for tag, data in (("clean", sim.data), ("noisy", noisy)):
            train, test, _ = train_test_split(data, 2 / 3, seed=4)
            model = fit_model("coxnnet", train, seed=4, config=cfg)
            curves = model.predict_survival(test.X)
            scores[tag] = c_index_td(curves, test.time, test.event)
        assert abs(scores["clean"] - scores["noisy"]) < 0.15


class TestTieHeavyTimes:
    @pytest.mark.parametrize("name", ["nnsurv", "nnsurv_deep"])
    def test_times_rounded_to_years_fit(self, name):
        # the Table-1 cell with times rounded up to whole years leaves 27
        # distinct training times, fewer than the 40 intervals n=667 asks for
        from survbench.core import SurvivalDataset, train_test_split

        spec = SimulationSpec(family=ModelFamily.COX,
                              baseline=Weibull(2.0, 1.3e-7),
                              n=1000, p=10, k=10, censor_target=0.3, seed=0)
        data = generate(spec).data
        years = np.ceil(data.time / 365.25) * 365.25
        train, test, _ = train_test_split(
            SurvivalDataset(data.X, years, data.event), 2 / 3, seed=0)
        assert np.unique(train.time).size == 27
        cfg = TrainConfig(ridge=1.0, epochs=3, min_epochs=1)
        model = fit_model(name, train, seed=0, config=cfg)
        assert 2 <= model.fit.grid.n_intervals <= 27
        curves = model.predict_survival(test.X[:20])
        assert all(np.all(np.isfinite(c.probs)) for c in curves)


class TestTooFewEvents:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_one_event_in_forty_fits_and_scores(self, name):
        # every CV fold lacks an event on one side, so all four models fall
        # back to their first candidate with the same warning
        from survbench.core import SurvivalDataset
        from survbench.metrics import metric_report

        spec = SimulationSpec(family=ModelFamily.COX,
                              baseline=Weibull(2.0, 1.3e-7),
                              n=100, p=4, k=4, censor_target=0.3, seed=0)
        data = generate(spec).data
        first_event = np.flatnonzero(data.event[:40])[0]
        train = SurvivalDataset(data.X[:40], data.time[:40],
                                (np.arange(40) == first_event).astype(int))
        test = data.subset(np.arange(40, 100))
        cfg = TrainConfig(epochs=20, min_epochs=5, patience=5, cv_folds=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit_model(name, train, seed=0, config=cfg,
                              lasso_cv_folds=2)
        assert any("every fold was skipped" in str(w.message)
                   for w in caught)
        report = metric_report(model.predict_survival(test.X), test.time,
                               test.event)
        assert np.isfinite(report.c_td) and np.isfinite(report.ibs)


class TestNearConstantColumn:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_one_ulp_column_fits_as_a_constant_one(self, name):
        from survbench.core import SurvivalDataset

        data = generate(SimulationSpec(
            family=ModelFamily.COX, baseline=Weibull(2.0, 1.3e-7), n=40, p=3,
            k=3, censor_target=0.3, seed=1)).data
        X = np.column_stack([data.X, np.ones(data.n)])
        near = X.copy()
        near[::4, -1] = 1.0 + 2.0 ** -52  # every fourth row: some of them train
        cfg = TrainConfig(ridge=1.0, epochs=20, min_epochs=5, patience=5)
        curves = [fit_model(name, SurvivalDataset(x, data.time, data.event),
                            seed=0, config=cfg, lasso_cv_folds=2)
                  .predict_survival(X) for x in (X, near)]
        np.testing.assert_array_equal(curves[1].grid, curves[0].grid)
        np.testing.assert_array_equal(curves[1].probs, curves[0].probs)


@pytest.fixture(scope="module")
def zero_column_fits():
    """Every model fitted with covariate 0 all zero in training, and test
    rows in which it varies."""
    from survbench.core import SurvivalDataset, train_test_split

    sim = generate(SimulationSpec(
        family=ModelFamily.COX, baseline=Weibull(2.0, 1.3e-7), n=200, p=5,
        k=5, censor_target=0.3, seed=2))
    train, test, _ = train_test_split(sim.data, 2 / 3, seed=2)
    X = train.X.copy()
    X[:, 0] = 0.0
    train = SurvivalDataset(X, train.time, train.event)
    models = {name: fit_model(name, train, seed=2, config=FAST,
                              lasso_cv_folds=2) for name in MODEL_NAMES}
    return models, test.X


class TestTrainingConstantColumn:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_its_test_values_leave_the_curves(self, name, zero_column_fits):
        # an unexpressed gene in training carries no signal at test time
        models, X = zero_column_fits
        moved = X.copy()
        moved[:, 0] = np.random.default_rng(3).normal(0.0, 3.0, X.shape[0])
        a = models[name].predict_survival(X)
        b = models[name].predict_survival(moved)
        np.testing.assert_array_equal(a.grid, b.grid)
        np.testing.assert_array_equal(a.probs, b.probs)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_round_trip_is_bit_exact(self, name, zero_column_fits, tmp_path):
        models, X = zero_column_fits
        path = tmp_path / f"{name}.json"
        save_model(models[name], path)
        loaded = load_model(path)
        assert loaded.fit.scale[0] == np.inf
        a = models[name].predict_survival(X)
        b = loaded.predict_survival(X)
        np.testing.assert_array_equal(a.grid, b.grid)
        np.testing.assert_array_equal(a.probs, b.probs)


class TestOneSortPerDataset:
    def test_coxl1_builds_each_dataset_index_once(self, sim_small,
                                                  monkeypatch):
        from functools import cached_property

        import survbench.core as core

        built, sorts, kernel_calls = [], [], []
        build = core.SurvivalDataset.risk_index.func
        of = core.RiskSetIndex.of.__func__
        sums = core.risk_set_sums

        def counted_build(data):
            built.append(data)  # held, so no id is reused
            return build(data)

        def counted_sums(order, values):
            kernel_calls.append(1)
            return sums(order, values)

        prop = cached_property(counted_build)
        prop.__set_name__(core.SurvivalDataset, "risk_index")
        monkeypatch.setattr(core.SurvivalDataset, "risk_index", prop)
        monkeypatch.setattr(core.RiskSetIndex, "of", classmethod(
            lambda cls, time: sorts.append(1) or of(cls, time)))
        monkeypatch.setattr(core, "risk_set_sums", counted_sums)
        data = sim_small.data  # a fresh dataset: no index cached yet
        fit_model("coxl1", core.SurvivalDataset(data.X, data.time, data.event),
                  seed=3, lasso_cv_folds=2)
        assert len({id(d) for d in built}) == len(built)
        # two per fold, the standardized training set that serves both
        # lambda_max and the final fit, and the baseline
        assert len(built) == len(sorts) == 2 * 2 + 2
        assert len(kernel_calls) > 100 * len(built)

    @pytest.mark.parametrize("folds", [2, 3])
    def test_coxl1_standardizes_once_plus_once_per_fold(self, sim_small, folds,
                                                        monkeypatch):
        import survbench.coxlasso as coxlasso

        calls = []
        standardize = coxlasso.standardize_covariates
        monkeypatch.setattr(coxlasso, "standardize_covariates",
                            lambda X: calls.append(1) or standardize(X))
        fit_model("coxl1", sim_small.data, seed=3, lasso_cv_folds=folds)
        assert len(calls) == folds + 1


@st.composite
def awkward_datasets(draw):
    """Small, wide datasets with what real data brings: times rounded to
    coarse units (heavy ties), one event or none, constant columns, and
    covariate and time scales far from one."""
    n = draw(st.integers(8, 40))
    p = draw(st.sampled_from([200, 60, 3, 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    X = rng.standard_normal((n, p)) * 10.0 ** draw(st.floats(-6, 300))
    if draw(st.booleans()):
        X[:, rng.integers(p)] = draw(st.sampled_from([0.0, 1.0, -3e7]))
    units = draw(st.sampled_from([10 ** 6, 8, 3, 2]))
    time = np.ceil(rng.uniform(0.0, 1.0, n) * units) / units
    time *= 10.0 ** draw(st.floats(-200, 9))
    events = draw(st.sampled_from(["some", "one", "none"]))
    event = (rng.uniform(size=n) < 0.6).astype(int)
    if events != "some":
        event[:] = 0
        event[rng.integers(n)] = events == "one"
    return SurvivalDataset(X, time, event)


class TestModelFuzz:
    # the fits' own warnings about what these inputs lack; numpy's warnings
    # stay errors
    @pytest.mark.filterwarnings("ignore:all subjects censored")
    @pytest.mark.filterwarnings("ignore:every fold was skipped")
    @pytest.mark.filterwarnings("ignore:fold .* has no events")
    @given(awkward_datasets())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_every_model_scores_finite_or_raises_value_error(self, data):
        cfg = TrainConfig(ridge=1.0, epochs=3, min_epochs=1)
        for name in MODEL_NAMES:
            try:
                model = fit_model(name, data, seed=0, config=cfg,
                                  lasso_cv_folds=2)
                report = metric_report(model.predict_survival(data.X),
                                       data.time, data.event)
            except ValueError:
                continue
            assert np.isfinite(report.c_td) and np.isfinite(report.ibs), name
