"""Small dense-network building blocks on top of the autodiff engine."""
from __future__ import annotations

import numpy as np

from . import autodiff as ad


class Linear:
    """Affine map with Glorot-normal weights and zero bias.

    `weight_scale` multiplies the Glorot draw; used for near-zero head
    initialization.  The weight draw consumes exactly in_dim*out_dim normals
    from `rng`; the bias consumes none.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, weight_scale: float = 1.0):
        std = np.sqrt(2.0 / (in_dim + out_dim))
        self.w = ad.Tensor(weight_scale * rng.normal(0.0, std, size=(in_dim, out_dim)), requires_grad=True)
        self.b = ad.Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: ad.Tensor) -> ad.Tensor:
        return ad.affine(x, self.w, self.b)

    @property
    def params(self) -> list[ad.Tensor]:
        return [self.w, self.b]


class MLP:
    """Stack of Linear layers with tanh between them.

    `dims` lists layer widths input-first, e.g. [2, 64, 64] builds two layers.
    The output layer is linear; callers apply their own head nonlinearity.
    """

    def __init__(self, dims: list[int], rng: np.random.Generator):
        if len(dims) < 2:
            raise ValueError("MLP needs at least an input and an output width")
        self.layers = [Linear(a, b, rng) for a, b in zip(dims[:-1], dims[1:])]

    def __call__(self, x: ad.Tensor) -> ad.Tensor:
        out = x
        for layer in self.layers[:-1]:
            out = ad.tanh(layer(out))
        return self.layers[-1](out)

    @property
    def params(self) -> list[ad.Tensor]:
        return [p for layer in self.layers for p in layer.params]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Class ids 1..C to an (n, C) one-hot float array."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 1 or labels.max() > num_classes):
        raise ValueError("labels must lie in 1..num_classes")
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels - 1] = 1.0
    return out
