import numpy as np
import pytest

from survbench.nnet import TrainConfig
from survbench.nnet.train import fit_adam, select_ridge

TARGET = np.array([1.0, -2.0, 0.5])


def quadratic(vec, batch):
    """Half the batch weight times the squared distance to TARGET."""
    diff = vec - TARGET
    return 0.5 * batch * float(diff @ diff), batch * diff


def two_batches():
    return (1.0, 2.0)


class ScriptedScore:
    """Held-out score read from a fixed script, one entry per epoch; keeps
    every iterate it was shown."""

    def __init__(self, script):
        self.script = list(script)
        self.seen = []

    def __call__(self, vec):
        self.seen.append(vec.copy())
        return self.script[len(self.seen) - 1]


def config(**kw):
    base = dict(learning_rate=0.05, epochs=50, patience=3, min_epochs=0)
    base.update(kw)
    return TrainConfig(**base)


class TestFitAdam:
    def test_returns_best_scoring_iterate(self):
        score = ScriptedScore([5.0, 3.0, 4.0, 1.0, 2.0, 2.0, 2.0, 2.0])
        vec, trace = fit_adam(np.zeros(3), quadratic, two_batches, score,
                              config(epochs=8, patience=10))
        assert trace.size == 8
        np.testing.assert_array_equal(vec, score.seen[3])

    def test_improvement_needs_the_margin(self):
        # a gain of 1e-12 is not an improvement, so the first iterate stays
        score = ScriptedScore([1.0, 1.0 - 1e-12, 1.0 - 2e-12])
        vec, _ = fit_adam(np.zeros(3), quadratic, two_batches, score,
                          config(epochs=3, patience=10))
        np.testing.assert_array_equal(vec, score.seen[0])

    @pytest.mark.parametrize("min_epochs, epochs_run", [(0, 5), (10, 11)])
    def test_stops_after_patience_once_past_min_epochs(self, min_epochs,
                                                       epochs_run):
        # improves in epochs 0 and 1, flat afterwards: the third miss is
        # epoch 4, and training ends at the first epoch >= min_epochs from there
        score = ScriptedScore([3.0, 2.0] + [2.0] * 48)
        _, trace = fit_adam(np.zeros(3), quadratic, two_batches, score,
                            config(patience=3, min_epochs=min_epochs))
        assert len(score.seen) == epochs_run
        assert trace.size == epochs_run

    def test_trace_sums_batch_losses_before_each_step(self):
        seen = []

        def recording(vec, batch):
            loss, grad = quadratic(vec, batch)
            seen.append(loss)
            return loss, grad

        _, trace = fit_adam(np.zeros(3), recording, two_batches, None,
                            config(epochs=4, patience=10))
        np.testing.assert_array_equal(
            trace, [0.0 + seen[k] + seen[k + 1] for k in range(0, 8, 2)])

    def test_without_held_score_tracks_training_loss(self):
        vec, trace = fit_adam(np.zeros(3), quadratic, two_batches, None,
                              config(epochs=400, patience=400))
        assert trace.size == 400
        assert np.all(np.diff(trace[:10]) < 0)
        np.testing.assert_allclose(vec, TARGET, atol=1e-2)

    def test_non_finite_loss_raises(self):
        calls = []

        def blows_up(vec, batch):
            calls.append(batch)
            loss, grad = quadratic(vec, batch)
            return (np.nan if len(calls) == 5 else loss), grad

        with pytest.raises(RuntimeError, match="non-finite"):
            fit_adam(np.zeros(3), blows_up, two_batches, None, config())

    def test_leaves_the_start_vector_alone(self):
        vec0 = np.zeros(3)
        fit_adam(vec0, quadratic, two_batches, None, config(epochs=5))
        np.testing.assert_array_equal(vec0, 0.0)


class TestSelectRidge:
    def test_sums_folds_and_keeps_first_best(self):
        # per-fold scores (rows: folds, columns: candidates); candidates 1
        # and 2 tie on the sum, so the first of them wins
        table = np.array([[0.1, 0.5, 0.2], [0.3, 0.2, 0.5]])
        labels = np.array([0, 1, 0, 1])

        def scorer(held, seed):
            fold = int(labels[held][0])
            return lambda lam: table[fold, int(lam)]

        choice = select_ridge([0.0, 1.0, 2.0], labels, scorer,
                              config(cv_folds=2), np.random.default_rng(0))
        assert choice == 1.0

    def test_skipped_fold_does_not_count(self):
        table = np.array([[0.9, 0.1], [0.2, 0.3]])
        labels = np.array([0, 0, 1, 1])

        def scorer(held, seed):
            fold = int(labels[held][0])
            if fold == 0:
                return None
            return lambda lam: table[fold, int(lam)]

        with pytest.warns(RuntimeWarning, match="fold 0 has no events"):
            choice = select_ridge([0.0, 1.0], labels, scorer,
                                  config(cv_folds=2), np.random.default_rng(0))
        assert choice == 1.0

    def test_fold_masks_and_seeds(self):
        labels = np.array([2, 0, 1, 0, 2, 1])
        calls = []

        def scorer(held, seed):
            calls.append((held.copy(), seed))
            return lambda lam: 0.0

        select_ridge([1.0], labels, scorer, config(cv_folds=3),
                     np.random.default_rng(4))
        want_seeds = np.random.default_rng(4).integers(2 ** 31, size=3)
        for fold, (held, seed) in enumerate(calls):
            np.testing.assert_array_equal(held, labels == fold)
            assert seed == want_seeds[fold]
        assert len(calls) == 3

    def test_negated_loss_keeps_argmin_tie_rule(self):
        losses = [0.4, 0.2, 0.2, 0.3]

        def scorer(held, seed):
            return lambda lam: -losses[int(lam)]

        choice = select_ridge([0.0, 1.0, 2.0, 3.0], np.array([0, 1]), scorer,
                              config(cv_folds=2), np.random.default_rng(1))
        assert choice == float(np.argmin(losses))
