"""Training machinery shared by the survival network heads: the whole
fit (``fit_network``) and the Adam epoch loop with early stopping.

It works on a stack of flat parameter vectors (``MlpParams.vec`` of
shape (C, P)): every ridge candidate of a CV fold starts from the same
initial weights and sees the same batches, so the candidates train
together, one forward/backward pass and one Adam step per batch. Each
head supplies only what differs between them, namely the batches of an
epoch with their data loss, and the held-out score; the squared-L2
penalty on every weight and bias is added here, once for both heads.
"""

from __future__ import annotations

import numpy as np

from ..core import cross_validate
from .config import TrainConfig
from .mlp import Adam, MlpParams, squared_norm, unpack


def fit_adam(template: MlpParams, lams, loss_and_grad, batches, held_score,
             config: TrainConfig):
    """Adam over ``config.epochs`` epochs for a stack of networks of
    ``template``'s shape, one per ridge weight in ``lams``, each starting
    from ``template``'s parameters; keeps each one's best-scoring iterate.

    ``batches()`` yields the batches of one epoch, and
    ``loss_and_grad(stack, batch)`` returns the (C,) data losses of a batch
    and their gradient with respect to the stack. Each candidate's loss
    gains ``lam * squared_norm`` of its parameters and its gradient
    ``2 lam`` times them; one Adam step per batch then moves the whole
    stack, in place. After each epoch's updates ``held_score(stack)``
    scores every network (lower is better); with ``held_score`` None the
    epoch's summed training losses stand in. A candidate stops once its
    score has not improved for ``config.patience`` epochs, but never before
    ``config.min_epochs``. It stays in the stack, held at its best iterate
    from the next step on, but is no longer traced, scored or checked for
    a finite loss; training ends when every candidate has stopped.

    Returns the stack of best iterates and each candidate's per-epoch
    training loss.
    """
    lams = np.asarray(lams, dtype=np.float64)
    stack = unpack(template, np.tile(template.vec, (lams.size, 1)))
    vec = stack.vec
    opt = Adam(lr=config.learning_rate)
    best_vec, best_score = vec.copy(), np.full(lams.size, np.inf)
    since_best = np.zeros(lams.size, dtype=int)
    active = np.ones(lams.size, dtype=bool)
    stopped = np.flatnonzero(~active)
    traces = [[] for _ in lams]
    for epoch in range(config.epochs):
        epoch_loss = np.zeros(lams.size)
        for batch in batches():
            loss, grad = loss_and_grad(stack, batch)
            loss = loss + lams * squared_norm(stack)
            grad += (2.0 * lams)[:, None] * vec
            if not np.isfinite(loss[active]).all():
                raise RuntimeError("training loss became non-finite")
            epoch_loss += loss
            opt.step(vec, grad)
            if stopped.size:
                vec[stopped] = best_vec[stopped]
        score = held_score(stack) if held_score is not None else epoch_loss
        for c in np.flatnonzero(active):
            traces[c].append(epoch_loss[c])
            if score[c] < best_score[c] - 1e-10:
                best_score[c], best_vec[c], since_best[c] = score[c], vec[c], 0
            else:
                since_best[c] += 1
                # the early-epoch validation signal is too noisy to act on
                active[c] = not (since_best[c] >= config.patience
                                 and epoch >= config.min_epochs)
        stopped = np.flatnonzero(~active)
        if stopped.size == lams.size:
            break
    return unpack(template, best_vec), [np.asarray(trace) for trace in traces]


def fit_network(config: TrainConfig, seed: int, scale, default_grid, event,
                fold_labels, train, held_scores):
    """Choose a network's ridge weight by CV (unless ``config.ridge`` is
    set) and train the final fit; returns the ridge, network and trace.

    One generator seeded by ``seed`` draws the fold labels
    ``fold_labels(rng)``, one seed per fold, then the final fit's seed
    (only the last with the ridge fixed). The candidates are ``scale``
    times ``config.ridge_grid`` or ``default_grid``. ``train(rows, lams,
    seed)`` trains a stack on the rows of index array ``rows``, and
    ``held_scores(stack, held)`` scores it on rows ``held`` (higher is
    better); ``event`` has one entry per row, for skipping folds.
    """
    rng = np.random.default_rng(seed)
    if config.ridge is not None:
        ridge = config.ridge
    else:
        labels = fold_labels(rng)
        fold_seeds = rng.integers(2 ** 31, size=config.cv_folds).tolist()
        fracs = (config.ridge_grid if config.ridge_grid is not None
                 else default_grid)
        candidates = [frac * scale for frac in fracs]

        def fold_scores(fold, held):
            stack, _ = train(np.flatnonzero(~held), candidates, fold_seeds[fold])
            return held_scores(stack, np.flatnonzero(held))

        ridge = cross_validate(candidates, labels, event, config.cv_folds,
                               fold_scores)
    stack, traces = train(np.arange(event.size), [ridge],
                          int(rng.integers(2 ** 31)))
    return ridge, unpack(stack, stack.vec[0]), traces[0]
