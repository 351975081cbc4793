"""Minimal dense feed-forward engine with analytic backpropagation.

Everything is float64 and deterministic: parameters initialize from a
seeded fan-in-scaled uniform. Each network's parameters are one flat
vector, layer by layer, with per-layer views into it; gradients share the
layout, so the Adam update and finite-difference checks of any loss work
on plain vectors. Layers are checked where they enter (``init_mlp``,
``MlpParams.from_layers``), never per training step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("tanh", "relu", "identity")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    return z


def _activate_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return 1.0 - a * a
    if name == "relu":
        return (z > 0).astype(np.float64)
    return np.ones_like(z)


def _check_layers(weights, biases, activations) -> None:
    if not (len(weights) == len(biases) == len(activations)):
        raise ValueError("layer lists must align")
    for act in activations:
        if act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {act!r}")
    for k, (w, b) in enumerate(zip(weights, biases)):
        if w.ndim != 2:
            raise ValueError(f"layer {k}: weights must be a matrix")
        if b is not None and b.shape != (w.shape[1],):
            raise ValueError(f"layer {k}: bias shape {b.shape} != ({w.shape[1]},)")
        if k and w.shape[0] != weights[k - 1].shape[1]:
            raise ValueError(f"layer {k} input dim does not chain")
        if not np.all(np.isfinite(w)) or (b is not None and not np.all(np.isfinite(b))):
            raise ValueError("parameters must be finite")


def _views(weights, biases, vec: np.ndarray):
    """Per-layer views into ``vec``, each weight matrix before its bias."""
    w_views, b_views = [], []
    pos = 0
    for w, b in zip(weights, biases):
        w_views.append(vec[pos:pos + w.size].reshape(w.shape))
        pos += w.size
        if b is None:
            b_views.append(None)
        else:
            b_views.append(vec[pos:pos + b.size])
            pos += b.size
    return tuple(w_views), tuple(b_views)


@dataclass(frozen=True)
class MlpParams:
    """Flat parameter vector with per-layer views into it: weight matrices
    (in x out), optional biases; and activation tags. Only ``from_layers``
    checks its input."""

    vec: np.ndarray
    weights: tuple
    biases: tuple  # entry None for layers without a bias
    activations: tuple

    @classmethod
    def from_layers(cls, weights, biases, activations) -> MlpParams:
        """Check the layers, then copy them into one flat vector."""
        weights = tuple(np.asarray(w, dtype=np.float64) for w in weights)
        biases = tuple(None if b is None else np.asarray(b, dtype=np.float64)
                       for b in biases)
        activations = tuple(activations)
        _check_layers(weights, biases, activations)
        vec = np.concatenate([part.ravel() for w, b in zip(weights, biases)
                              for part in (w, b) if part is not None])
        return cls(vec, *_views(weights, biases, vec), activations)

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def init_mlp(sizes, activations, seed: int, output_bias: bool = True) -> MlpParams:
    """Seeded symmetric-uniform init scaled by 1/sqrt(fan_in).

    ``sizes`` lists layer widths input-first, e.g. (p, H, 1).
    """
    if len(sizes) - 1 != len(activations):
        raise ValueError("need one activation per layer")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for k, (d_in, d_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        bound = 1.0 / np.sqrt(d_in)
        weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
        last = k == len(sizes) - 2
        biases.append(None if (last and not output_bias)
                      else rng.uniform(-bound, bound, size=d_out))
    return MlpParams.from_layers(weights, biases, activations)


def unpack(template: MlpParams, vec: np.ndarray) -> MlpParams:
    """The network of ``template``'s shape whose parameters are ``vec``:
    views, no copy and no check."""
    return MlpParams(vec, *_views(template.weights, template.biases, vec),
                     template.activations)


def mlp_forward(params: MlpParams, X: np.ndarray):
    """Layer-wise affine + activation; returns (output, caches for backprop).

    ``X`` may stack input matrices on leading axes; each is multiplied on
    its own. Rows are not checked here: callers pass checked ones."""
    a = np.atleast_2d(np.asarray(X, dtype=np.float64))
    caches = []
    for w, b, act in zip(params.weights, params.biases, params.activations):
        z = a @ w
        if b is not None:
            z = z + b
        out = _activate(act, z)
        caches.append((a, z, out))
        a = out
    return a, caches


def mlp_backward(params: MlpParams, caches, d_out: np.ndarray) -> np.ndarray:
    """Gradient of a scalar loss given d loss / d output, laid out like
    ``params.vec``."""
    grad = np.empty_like(params.vec)
    d_weights, d_biases = _views(params.weights, params.biases, grad)
    delta = np.asarray(d_out, dtype=np.float64)
    for k in range(params.n_layers - 1, -1, -1):
        a_in, z, a_out = caches[k]
        delta = delta * _activate_grad(params.activations[k], z, a_out)
        d_weights[k][...] = a_in.T @ delta
        if d_biases[k] is not None:
            d_biases[k][...] = delta.sum(axis=0)
        if k:
            delta = delta @ params.weights[k].T
    return grad


def squared_norm(params: MlpParams) -> float:
    """Sum of squared entries over every weight matrix and bias vector, by
    layer: ``vec @ vec`` rounds differently and would move the loss trace."""
    total = 0.0
    for w, b in zip(params.weights, params.biases):
        total += float(np.sum(w * w))
        if b is not None:
            total += float(np.sum(b * b))
    return total


@dataclass
class Adam:
    """Per-parameter adaptive step sizes on the flat parameter vector."""

    lr: float = 1e-3

    def __post_init__(self):
        self._m = None
        self._v = None
        self._t = 0

    def step(self, vec: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self._m is None:
            self._m = np.zeros_like(vec)
            self._v = np.zeros_like(vec)
        self._t += 1
        self._m = ADAM_BETA1 * self._m + (1 - ADAM_BETA1) * grad
        self._v = ADAM_BETA2 * self._v + (1 - ADAM_BETA2) * grad * grad
        m_hat = self._m / (1 - ADAM_BETA1 ** self._t)
        v_hat = self._v / (1 - ADAM_BETA2 ** self._t)
        return vec - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
