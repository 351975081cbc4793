"""Minimal dense feed-forward engine with analytic backpropagation.

Everything is float64 and deterministic: parameters initialize from a
seeded fan-in-scaled uniform, and the Adam update is a pure function of
the packed parameter vector. The packed representation also makes
finite-difference checks of any loss trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("tanh", "relu", "sigmoid", "identity")


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    return z


def _activate_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return 1.0 - a * a
    if name == "relu":
        return (z > 0).astype(np.float64)
    if name == "sigmoid":
        return a * (1.0 - a)
    return np.ones_like(z)


@dataclass(frozen=True)
class MlpParams:
    """Per-layer weight matrices (in x out), optional biases, activation tags."""

    weights: tuple
    biases: tuple  # entry None for layers without a bias
    activations: tuple

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ValueError("layer lists must align")
        for act in self.activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if b is not None and b.shape != (w.shape[1],):
                raise ValueError(f"layer {k}: bias shape {b.shape} != ({w.shape[1]},)")
            if k and w.shape[0] != self.weights[k - 1].shape[1]:
                raise ValueError(f"layer {k} input dim does not chain")
            if not np.all(np.isfinite(w)) or (b is not None and not np.all(np.isfinite(b))):
                raise ValueError("parameters must be finite")

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
    return MlpParams(weights=tuple(weights), biases=tuple(biases),
                     activations=tuple(activations))


def mlp_forward(params: MlpParams, X: np.ndarray):
    """Layer-wise affine + activation; returns (output, caches for backprop).

    ``X`` may stack input matrices on leading axes; each is multiplied on
    its own."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if not np.all(np.isfinite(X)):
        raise ValueError("network input must be finite")
    a = X
    caches = []
    for w, b, act in zip(params.weights, params.biases, params.activations):
        z = a @ w
        if b is not None:
            z = z + b
        out = _activate(act, z)
        caches.append((a, z, out))
        a = out
    return a, caches


def mlp_backward(params: MlpParams, caches, d_out: np.ndarray):
    """Gradients of a scalar loss given d loss / d output.

    Returns ([dW per layer], [db per layer or None]).
    """
    d_weights = [None] * params.n_layers
    d_biases = [None] * params.n_layers
    delta = np.asarray(d_out, dtype=np.float64)
    for k in range(params.n_layers - 1, -1, -1):
        a_in, z, a_out = caches[k]
        delta = delta * _activate_grad(params.activations[k], z, a_out)
        d_weights[k] = a_in.T @ delta
        d_biases[k] = delta.sum(axis=0) if params.biases[k] is not None else None
        if k:
            delta = delta @ params.weights[k].T
    return d_weights, d_biases


def squared_norm(params: MlpParams) -> float:
    """Sum of squared entries over every weight matrix and bias vector."""
    total = 0.0
    for w, b in zip(params.weights, params.biases):
        total += float(np.sum(w * w))
        if b is not None:
            total += float(np.sum(b * b))
    return total


def pack(params: MlpParams) -> np.ndarray:
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        if b is not None:
            parts.append(b)
    return np.concatenate(parts)


def unpack(template: MlpParams, vec: np.ndarray) -> MlpParams:
    weights, biases = [], []
    pos = 0
    for w, b in zip(template.weights, template.biases):
        weights.append(vec[pos:pos + w.size].reshape(w.shape).copy())
        pos += w.size
        if b is None:
            biases.append(None)
        else:
            biases.append(vec[pos:pos + b.size].copy())
            pos += b.size
    return MlpParams(weights=tuple(weights), biases=tuple(biases),
                     activations=template.activations)


def pack_grads(params: MlpParams, d_weights, d_biases) -> np.ndarray:
    parts = []
    for k in range(params.n_layers):
        parts.append(d_weights[k].ravel())
        if params.biases[k] is not None:
            parts.append(d_biases[k])
    return np.concatenate(parts)


@dataclass
class Adam:
    """Per-parameter adaptive step sizes on the packed vector."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        self._m = None
        self._v = None
        self._t = 0

    def step(self, vec: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self._m is None:
            self._m = np.zeros_like(vec)
            self._v = np.zeros_like(vec)
        self._t += 1
        self._m = self.beta1 * self._m + (1 - self.beta1) * grad
        self._v = self.beta2 * self._v + (1 - self.beta2) * grad * grad
        m_hat = self._m / (1 - self.beta1 ** self._t)
        v_hat = self._v / (1 - self.beta2 ** self._t)
        return vec - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
