"""Training configuration shared by the survival network heads."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


def _finite_nonnegative(value) -> bool:
    """A finite real number >= 0 that is not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value >= 0)


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
    hidden: int | None = None

    def __post_init__(self):
        counts = ("cv_folds", "epochs", "batch_size", "patience", "min_epochs")
        for name in counts + (("hidden",) if self.hidden is not None else ()):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (_finite_nonnegative(self.learning_rate)
                and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if (self.patience < 1 or self.min_epochs < 0
                or not 0.0 < self.val_fraction < 0.5):
            raise ValueError("invalid early-stopping settings")
        if self.ridge is not None and not _finite_nonnegative(self.ridge):
            raise ValueError("ridge weight must be finite and nonnegative, "
                             f"got {self.ridge!r}")
        if self.cv_folds < 2:
            raise ValueError("cross-validation needs at least two folds")
        if self.ridge_grid is not None and (
                len(self.ridge_grid) == 0
                or not all(map(_finite_nonnegative, self.ridge_grid))):
            raise ValueError("ridge_grid must hold finite nonnegative weights")
        if self.hidden is not None and self.hidden < 1:
            raise ValueError("hidden width must be at least 1")

    def hidden_for(self, p: int) -> int:
        """``hidden``, or the desk-scale default min(16, ceil(sqrt(p)) + 8).
        The cap is deliberately small; wider layers make the fitted risk
        ranking unstable across seeds once p approaches or exceeds n."""
        return self.hidden or min(16, math.ceil(math.sqrt(p)) + 8)
