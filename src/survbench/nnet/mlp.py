"""Minimal dense feed-forward engine with analytic backpropagation.

Everything is float64 and deterministic: parameters initialize from a
seeded fan-in-scaled uniform. Each network's parameters are one flat
vector, layer by layer, with per-layer views into it; gradients share the
layout, so the Adam update and finite-difference checks of any loss work
on plain vectors. A stack of C networks of one shape is a (C, P) array
of such vectors: its views carry the leading candidate axis, and the
forward and backward passes run every network of the stack at once, each
with the same products and sums it would get alone. Layers are checked
where they enter (``init_mlp``, ``MlpParams.from_layers``), never per
training step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("tanh", "relu", "identity")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    """a = f(z), written over z."""
    if name == "tanh":
        np.tanh(z, out=z)
    elif name == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def _backprop_activation(name: str, delta: np.ndarray,
                         a: np.ndarray) -> np.ndarray:
    """d loss / d z from d loss / d a through the activation a = f(z),
    read from a alone (a relu output is positive exactly where z is)."""
    if name == "tanh":
        return delta * (1.0 - a * a)
    if name == "relu":
        return delta * (a > 0)
    return delta


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


def _slices(weights, biases):
    """(start, stop) of every weight matrix and bias in a flat vector, in
    layer order, each weight matrix before its bias (None for no bias)."""
    out = []
    pos = 0
    for w, b in zip(weights, biases):
        w_size = w.shape[-2] * w.shape[-1]
        b_size = 0 if b is None else b.shape[-1]
        out.append(((pos, pos + w_size),
                    None if b is None else (pos + w_size, pos + w_size + b_size)))
        pos += w_size + b_size
    return out


def _views(weights, biases, vec: np.ndarray):
    """Per-layer views into ``vec``: (P,) for one network, (C, P) for a
    stack, whose views gain the leading axis. The layer shapes are read
    from ``weights`` and ``biases``, which may be a single network's or a
    stack's."""
    lead = vec.shape[:-1]
    w_views, b_views = [], []
    for w, (w_span, b_span) in zip(weights, _slices(weights, biases)):
        w_views.append(vec[..., w_span[0]:w_span[1]].reshape(lead + w.shape[-2:]))
        b_views.append(None if b_span is None else vec[..., b_span[0]:b_span[1]])
    return tuple(w_views), tuple(b_views)


@dataclass(frozen=True)
class MlpParams:
    """Flat parameter vector with per-layer views into it: weight matrices
    (in x out), optional biases; and activation tags. A stack of networks
    has ``vec`` of shape (C, P) and views of shape (C, in, out) and
    (C, out). Only ``from_layers`` checks its input."""

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
    """The network of ``template``'s shape whose parameters are ``vec``, or
    the stack of such networks when ``vec`` is (C, P): views, no copy and
    no check."""
    return MlpParams(vec, *_views(template.weights, template.biases, vec),
                     template.activations)


def mlp_forward(params: MlpParams, X: np.ndarray):
    """Layer-wise affine + activation; returns (output, caches for backprop).

    ``X`` may stack input matrices on leading axes; each is multiplied on
    its own. A stack of networks runs every one of them on the same ``X``
    and returns outputs of shape (C, rows, out). Rows are not checked
    here: callers pass checked ones."""
    a = np.atleast_2d(np.asarray(X, dtype=np.float64))
    caches = []
    for w, b, act in zip(params.weights, params.biases, params.activations):
        z = a @ w
        if b is not None:
            z += b[..., None, :]
        out = _activate(act, z)
        caches.append((a, out))
        a = out
    return a, caches


def mlp_backward(params: MlpParams, caches, d_out: np.ndarray) -> np.ndarray:
    """Gradient of a scalar loss given d loss / d output, laid out like
    ``params.vec``: per network of a stack, each from its own rows of
    ``d_out``."""
    parts = []  # last layer first, each bias before its weights
    delta = np.asarray(d_out, dtype=np.float64)
    for k in range(params.n_layers - 1, -1, -1):
        a_in, a_out = caches[k]
        delta = _backprop_activation(params.activations[k], delta, a_out)
        if params.biases[k] is not None:
            parts.append(delta.sum(axis=-2))
        d_w = a_in.swapaxes(-1, -2) @ delta
        parts.append(d_w.reshape(d_w.shape[:-2] + (-1,)))
        if k:
            delta = delta @ params.weights[k].swapaxes(-1, -2)
    return np.concatenate(parts[::-1], axis=-1)


def squared_norm(params: MlpParams):
    """Sum of squared entries over every weight matrix and bias vector, one
    pairwise sum per weight matrix and per bias, added in layer order:
    ``vec @ vec`` rounds differently and would move the loss trace. A float
    for one network, shape (C,) for a stack."""
    sq = params.vec * params.vec
    total = 0.0
    for span in _slices(params.weights, params.biases):
        for part in span:
            if part is not None:
                total = total + np.add.reduce(sq[..., part[0]:part[1]], axis=-1)
    return total


@dataclass
class Adam:
    """Per-parameter adaptive step sizes on the flat parameter vector, or
    on a stack of them, elementwise."""

    lr: float = 1e-3

    def __post_init__(self):
        self._m = None
        self._v = None
        self._t = 0

    def step(self, vec: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Update ``vec`` in place, with the roundings of m = b1 m + (1 - b1) g,
        v = b2 v + (1 - b2) g g and vec - lr m^ / (sqrt(v^) + eps), and
        return it."""
        if self._m is None:
            self._m = np.zeros_like(vec)
            self._v = np.zeros_like(vec)
        self._t += 1
        m, v = self._m, self._v
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * grad
        g2 = (1 - ADAM_BETA2) * grad
        g2 *= grad
        v *= ADAM_BETA2
        v += g2
        m_hat = m / (1 - ADAM_BETA1 ** self._t)
        m_hat *= self.lr
        v_hat = v / (1 - ADAM_BETA2 ** self._t)
        np.sqrt(v_hat, out=v_hat)
        v_hat += ADAM_EPS
        m_hat /= v_hat
        vec -= m_hat
        return vec
