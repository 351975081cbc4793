import numpy as np
import pytest

from survbench.nnet import TrainConfig
from survbench.nnet.mlp import MlpParams, unpack
from survbench.nnet.train import fit_adam, fit_network

TARGET = np.array([1.0, -2.0, 0.5])


def line(start=(0.0, 0.0, 0.0)):
    """A bias-free one-layer identity network whose three weights are the
    parameters trained in these tests."""
    return MlpParams.from_layers([np.array(start, float)[:, None]], [None],
                                 ["identity"])


def quadratic(stack, lams, batch):
    """Half the batch weight times each candidate's squared distance to
    TARGET: (C,) losses and the (C, 3) gradient."""
    diff = stack.vec - TARGET
    return 0.5 * batch * np.sum(diff * diff, axis=-1), batch * diff


def two_batches():
    return (1.0, 2.0)


class ScriptedScore:
    """Held-out scores read from a fixed script, one entry per epoch (a
    number for one candidate, a row for a stack); keeps every iterate it
    was shown."""

    def __init__(self, script):
        self.script = list(script)
        self.seen = []

    def __call__(self, stack):
        self.seen.append(stack.vec.copy())
        return np.atleast_1d(np.asarray(self.script[len(self.seen) - 1], float))


def config(**kw):
    base = dict(learning_rate=0.05, epochs=50, patience=3, min_epochs=0)
    base.update(kw)
    return TrainConfig(**base)


class TestFitAdam:
    def test_returns_best_scoring_iterate(self):
        score = ScriptedScore([5.0, 3.0, 4.0, 1.0, 2.0, 2.0, 2.0, 2.0])
        best, traces = fit_adam(line(), [0.0], quadratic, two_batches, score,
                                config(epochs=8, patience=10))
        assert traces[0].size == 8
        np.testing.assert_array_equal(best.vec, score.seen[3])

    def test_improvement_needs_the_margin(self):
        # a gain of 1e-12 is not an improvement, so the first iterate stays
        score = ScriptedScore([1.0, 1.0 - 1e-12, 1.0 - 2e-12])
        best, _ = fit_adam(line(), [0.0], quadratic, two_batches, score,
                           config(epochs=3, patience=10))
        np.testing.assert_array_equal(best.vec, score.seen[0])

    @pytest.mark.parametrize("min_epochs, epochs_run", [(0, 5), (10, 11)])
    def test_stops_after_patience_once_past_min_epochs(self, min_epochs,
                                                       epochs_run):
        # improves in epochs 0 and 1, flat afterwards: the third miss is
        # epoch 4, and training ends at the first epoch >= min_epochs from there
        score = ScriptedScore([3.0, 2.0] + [2.0] * 48)
        _, traces = fit_adam(line(), [0.0], quadratic, two_batches, score,
                             config(patience=3, min_epochs=min_epochs))
        assert len(score.seen) == epochs_run
        assert traces[0].size == epochs_run

    def test_trace_sums_batch_losses_before_each_step(self):
        seen = []

        def recording(stack, lams, batch):
            loss, grad = quadratic(stack, lams, batch)
            seen.append(loss[0])
            return loss, grad

        _, traces = fit_adam(line(), [0.0], recording, two_batches, None,
                             config(epochs=4, patience=10))
        np.testing.assert_array_equal(
            traces[0], [0.0 + seen[k] + seen[k + 1] for k in range(0, 8, 2)])

    def test_without_held_score_tracks_training_loss(self):
        best, traces = fit_adam(line(), [0.0], quadratic, two_batches, None,
                                config(epochs=400, patience=400))
        assert traces[0].size == 400
        assert np.all(np.diff(traces[0][:10]) < 0)
        np.testing.assert_allclose(best.vec[0], TARGET, atol=1e-2)

    def test_non_finite_loss_raises(self):
        calls = []

        def blows_up(stack, lams, batch):
            calls.append(batch)
            loss, grad = quadratic(stack, lams, batch)
            return (np.full(1, np.nan) if len(calls) == 5 else loss), grad

        with pytest.raises(RuntimeError, match="non-finite"):
            fit_adam(line(), [0.0], blows_up, two_batches, None, config())

    def test_leaves_the_start_vector_alone(self):
        template = line()
        fit_adam(template, [0.0], quadratic, two_batches, None,
                 config(epochs=5))
        np.testing.assert_array_equal(template.vec, 0.0)

    def test_callbacks_see_one_stack_trained_in_place(self):
        shown = []

        def loss_and_grad(stack, lams, batch):
            shown.append((stack, lams))
            return quadratic(stack, lams, batch)

        best, _ = fit_adam(line((0.3, 0.1, -0.2)), [0.5, 2.0], loss_and_grad,
                           two_batches, None, config(epochs=3))
        stack, lams = shown[0]
        assert stack.vec.shape == (2, 3) and stack.weights[0].shape == (2, 3, 1)
        np.testing.assert_array_equal(lams, [0.5, 2.0])
        assert all(s is stack and l is lams for s, l in shown)
        assert best.vec.shape == (2, 3) and best.vec is not stack.vec


RIDGES = np.array([0.0, 0.3, 3.0])


def ridge_quadratic(stack, ridges, batch):
    """``quadratic`` plus each candidate's ridge: each optimum sits at
    TARGET / (1 + 2 ridge / batch), so the candidates part ways."""
    vec = stack.vec
    loss, grad = quadratic(stack, ridges, batch)
    return (loss + ridges * np.sum(vec * vec, axis=-1),
            grad + (2.0 * ridges)[:, None] * vec)


def held_distance(stack):
    """Squared distance to a point the candidates pass on their way: each
    improves, then worsens at its own epoch."""
    diff = stack.vec - 0.6 * TARGET
    return np.sum(diff * diff, axis=-1)


def scripted(script, seen):
    """Held-out scores of the stack from a script of one row per epoch;
    records the parameters of each call."""
    def held(stack):
        seen.append(stack.vec.copy())
        return np.asarray(script[len(seen) - 1], float)
    return held


class TestStackedCandidates:
    @pytest.mark.parametrize("held", [held_distance, None])
    def test_each_candidate_trains_as_it_would_alone(self, held):
        # small patience and min_epochs: the candidates stop at different
        # epochs (with the held-out distance), and a stopped one must not
        # change the others' steps, best iterates or traces
        cfg = config(epochs=120, patience=4, min_epochs=6)
        start = line((0.3, 0.1, -0.2))
        best, traces = fit_adam(start, RIDGES, ridge_quadratic, two_batches,
                                held, cfg)
        lengths = []
        for c in range(RIDGES.size):
            alone, alone_traces = fit_adam(start, RIDGES[c:c + 1],
                                           ridge_quadratic, two_batches, held,
                                           cfg)
            np.testing.assert_array_equal(best.vec[c], alone.vec[0])
            np.testing.assert_array_equal(traces[c], alone_traces[0])
            lengths.append(traces[c].size)
        if held is not None:
            assert len(set(lengths)) == 3, lengths

    def test_stopped_candidate_is_held_at_its_best_iterate(self):
        # candidate 0 never improves after epoch 0 and stops at epoch 2;
        # from then on its loss would be NaN, which must not stop candidate 1
        seen, shown = [], []

        def loss_and_grad(stack, lams, batch):
            shown.append(stack.vec[0].copy())
            loss, grad = quadratic(stack, lams, batch)
            if len(shown) > 6:
                loss[0] = np.nan
            return loss, grad

        best, traces = fit_adam(
            line(), [0.0, 0.0], loss_and_grad, two_batches,
            scripted([(1.0, 9.0 - k) for k in range(10)], seen),
            config(epochs=10, patience=2))
        assert traces[0].size == 3 and traces[1].size == 10
        assert np.all(np.isfinite(traces[0]))
        np.testing.assert_array_equal(best.vec[0], seen[0][0])
        np.testing.assert_array_equal(best.vec[1], seen[-1][1])
        # after the first step past its stop, candidate 0 no longer moves
        for vec in shown[7:]:
            np.testing.assert_array_equal(vec, best.vec[0])
        for vec in seen[3:]:
            np.testing.assert_array_equal(vec[0], best.vec[0])

    def test_active_candidate_non_finite_loss_still_raises(self):
        calls = []

        def loss_and_grad(stack, lams, batch):
            calls.append(batch)
            loss, grad = quadratic(stack, lams, batch)
            if len(calls) > 8:
                loss[1] = np.inf
            return loss, grad

        with pytest.raises(RuntimeError, match="non-finite"):
            fit_adam(line(), [0.0, 0.0], loss_and_grad, two_batches,
                     scripted([(1.0, 9.0 - k) for k in range(10)], []),
                     config(epochs=10, patience=2))



class TestTrainConfigBoundary:
    @pytest.mark.parametrize("bad, match", [
        (dict(cv_folds=1), "two folds"),
        (dict(cv_folds=0), "two folds"),
        (dict(ridge_grid=()), "ridge_grid"),
        (dict(ridge_grid=(1e-3, -1e-4)), "ridge_grid"),
        (dict(hidden=0), "hidden"),
    ])
    def test_rejects_what_training_cannot_run(self, bad, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(**bad)

    def test_seed_is_no_field(self):
        # every fit takes its seed as an argument, as fit_model passes it
        with pytest.raises(TypeError):
            TrainConfig(seed=0)


class FakeHead:
    """A head for ``fit_network``: a network's single weight is its ridge
    weight, its held-out score is script[fold][candidate], and every call
    is recorded, with the index arrays that name its rows."""

    def __init__(self, script=None):
        self.script, self.trained, self.labelled = script, [], []
        self.held = []

    def fold_labels(self, rng):
        self.labelled.append(True)
        return np.arange(6) % 2

    def train(self, rows, lams, seed):
        self.trained.append((rows.copy(), list(lams), seed))
        template = MlpParams.from_layers([np.zeros((1, 1))], [None],
                                         ["identity"])
        stack = unpack(template, np.array(lams, float)[:, None])
        return stack, [np.full(2, lam) for lam in lams]

    def held_scores(self, stack, held):
        self.held.append(held.copy())
        return np.asarray(self.script[len(self.trained) - 1], float)


def fit_fake(head, **kw):
    cfg = TrainConfig(cv_folds=2, **kw)
    return fit_network(cfg, 9, 10, (1.0, 2.0, 3.0), np.ones(6), head.fold_labels,
                       head.train, head.held_scores)


class TestFitNetwork:
    def test_fixed_ridge_draws_only_the_final_seed(self):
        head = FakeHead()
        ridge, net, trace = fit_fake(head, ridge=0.5)
        assert head.labelled == []
        assert len(head.trained) == 1
        rows, lams, seed = head.trained[0]
        np.testing.assert_array_equal(rows, np.arange(6))
        assert lams == [0.5] and ridge == 0.5
        assert seed == np.random.default_rng(9).integers(2 ** 31)
        np.testing.assert_array_equal(net.vec, [0.5])
        np.testing.assert_array_equal(trace, [0.5, 0.5])

    @pytest.mark.parametrize("grid, want", [(None, 20.0), ((0.5, 0.1), 1.0)])
    def test_cv_scales_the_grid_and_trains_the_winner(self, grid, want):
        # summed over the two folds, candidate 1 wins in both cases; the
        # fake labeller draws nothing, so the fold seeds come first
        head = FakeHead([(0.0, 2.0, 1.0), (1.0, 0.0, 0.5)] if grid is None
                        else [(0.0, 1.0), (0.5, 0.0)])
        ridge, net, _ = fit_fake(head, ridge_grid=grid)
        assert head.labelled == [True] and ridge == want
        candidates = [10 * f for f in (grid or (1.0, 2.0, 3.0))]
        rng = np.random.default_rng(9)
        seeds = list(rng.integers(2 ** 31, size=2)) + [rng.integers(2 ** 31)]
        held = np.arange(6) % 2
        for fold, (rows, lams, seed) in enumerate(head.trained[:2]):
            np.testing.assert_array_equal(rows, np.flatnonzero(held != fold))
            np.testing.assert_array_equal(head.held[fold],
                                          np.flatnonzero(held == fold))
            assert lams == candidates and seed == seeds[fold]
        np.testing.assert_array_equal(head.trained[2][0], np.arange(6))
        assert head.trained[2][1:] == ([want], seeds[2])
        np.testing.assert_array_equal(net.vec, [want])
