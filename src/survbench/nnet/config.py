"""Training configuration shared by the survival network heads."""

from __future__ import annotations

import math
from dataclasses import dataclass


def default_hidden(p: int) -> int:
    """Desk-scale hidden width: min(16, ceil(sqrt(p)) + 8).

    The cap is deliberately small; wider layers make the fitted risk
    ranking unstable across seeds once p approaches or exceeds n.
    """
    return min(16, math.ceil(math.sqrt(p)) + 8)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for first-order training of the survival networks.

    ``ridge`` of None selects the weight penalty by k-fold
    cross-validation over ``ridge_grid`` (values are per-event /
    per-row fractions, scaled by the training loss size).
    """

    learning_rate: float = 1e-3
    ridge: float | None = None
    ridge_grid: tuple | None = None  # per-head default fractions when None
    cv_folds: int = 3
    epochs: int = 400
    batch_size: int = 256
    patience: int = 20
    min_epochs: int = 100
    val_fraction: float = 0.1
    seed: int = 0
    hidden: int | None = None

    def __post_init__(self):
        if self.learning_rate <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("learning_rate, epochs and batch_size must be positive")
        if self.patience < 1 or not 0.0 < self.val_fraction < 0.5:
            raise ValueError("invalid early-stopping settings")
        if self.ridge is not None and self.ridge < 0:
            raise ValueError("ridge weight must be nonnegative")
        if self.cv_folds < 2:
            raise ValueError("cross-validation needs at least two folds")
        if self.ridge_grid is not None and (
                len(self.ridge_grid) == 0 or min(self.ridge_grid) < 0):
            raise ValueError("ridge_grid must hold nonnegative weights")
        if self.hidden is not None and self.hidden < 1:
            raise ValueError("hidden width must be at least 1")

    def hidden_for(self, p: int) -> int:
        return self.hidden if self.hidden is not None else default_hidden(p)
