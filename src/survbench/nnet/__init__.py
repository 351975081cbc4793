"""Feed-forward survival networks: a Cox partial-likelihood head and
discrete-time hazard heads (shallow and deep)."""

from .config import TrainConfig
from .coxnnet import (
    CoxnnetFit,
    coxnnet_fit,
    coxnnet_loss_and_grad,
    coxnnet_scores,
)
from .discrete import (
    DiscreteTimeGrid,
    DuplicatedBatch,
    NnsurvFit,
    build_time_grid,
    duplicate,
    nnsurv_fit,
    nnsurv_hazards,
    nnsurv_loss_and_grad,
    nnsurv_survival,
)
from .mlp import Adam, MlpParams, init_mlp, mlp_backward, mlp_forward

__all__ = [
    "TrainConfig",
    "CoxnnetFit",
    "coxnnet_fit",
    "coxnnet_loss_and_grad",
    "coxnnet_scores",
    "DiscreteTimeGrid",
    "DuplicatedBatch",
    "NnsurvFit",
    "build_time_grid",
    "duplicate",
    "nnsurv_fit",
    "nnsurv_hazards",
    "nnsurv_loss_and_grad",
    "nnsurv_survival",
    "Adam",
    "MlpParams",
    "init_mlp",
    "mlp_backward",
    "mlp_forward",
]
