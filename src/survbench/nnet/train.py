"""Training machinery shared by the survival network heads: the Adam
epoch loop with early stopping, and k-fold selection of the ridge weight.

Both work on the network's flat parameter vector (``MlpParams.vec``);
each head supplies only what differs between them, namely the batches of
an epoch with their loss, and the held-out score.
"""

from __future__ import annotations

import warnings

import numpy as np

from .config import TrainConfig
from .mlp import Adam


def fit_adam(vec: np.ndarray, loss_and_grad, batches, held_score,
             config: TrainConfig):
    """Adam over ``config.epochs`` epochs, keeping the best-scoring iterate.

    ``batches()`` yields the batches of one epoch and ``loss_and_grad(vec,
    batch)`` returns the batch loss and its gradient. After each epoch's
    updates ``held_score(vec)`` scores the parameters (lower is better);
    with ``held_score`` None the epoch's summed training loss stands in.
    Training stops once the score has not improved for ``config.patience``
    epochs, but never before ``config.min_epochs``.

    Returns the best iterate and the per-epoch training loss.
    """
    opt = Adam(lr=config.learning_rate)
    best_vec, best_score, since_best = vec.copy(), np.inf, 0
    trace = []
    for epoch in range(config.epochs):
        epoch_loss = 0.0
        for batch in batches():
            loss, grad = loss_and_grad(vec, batch)
            if not np.isfinite(loss):
                raise RuntimeError("training loss became non-finite")
            epoch_loss += loss
            vec = opt.step(vec, grad)
        trace.append(epoch_loss)
        score = held_score(vec) if held_score is not None else epoch_loss
        if score < best_score - 1e-10:
            best_score, best_vec, since_best = score, vec.copy(), 0
        else:
            since_best += 1
            # the early-epoch validation signal is too noisy to act on
            if since_best >= config.patience and epoch >= config.min_epochs:
                break
    return best_vec, np.asarray(trace)


def select_ridge(candidates, labels: np.ndarray, fold_scorer,
                 config: TrainConfig, rng: np.random.Generator) -> float:
    """The ridge candidate with the highest held-out score summed over the
    ``config.cv_folds`` folds of ``labels``; the first one on ties.

    ``fold_scorer(held, seed)`` gets the held-out row mask of a fold and
    the fold's training seed, and returns a function scoring one ridge
    weight (higher is better), or None for a fold with no events on one
    side, which is skipped with a warning. With every fold skipped the
    first candidate is returned, also with a warning.
    """
    fold_seeds = rng.integers(2 ** 31, size=config.cv_folds)
    scores = np.zeros(len(candidates))
    used_folds = 0
    for fold in range(config.cv_folds):
        score = fold_scorer(labels == fold, int(fold_seeds[fold]))
        if score is None:
            warnings.warn(f"fold {fold} has no events on one side; skipped",
                          RuntimeWarning, stacklevel=2)
            continue
        used_folds += 1
        for j, lam in enumerate(candidates):
            scores[j] += score(lam)
    if used_folds == 0:
        warnings.warn("every fold was skipped; using the first ridge "
                      f"candidate {candidates[0]:g}", RuntimeWarning,
                      stacklevel=2)
    return float(candidates[int(np.argmax(scores))])
