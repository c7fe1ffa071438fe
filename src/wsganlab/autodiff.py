"""Reverse-mode automatic differentiation on dense float64 arrays.

A small tape-based engine.  Every operation returns a new `Tensor` that holds
its result and one edge per input that requires a gradient: the input, and
the vector-Jacobian product (VJP) that maps the result's gradient to that
input's share.  `backward(loss, params)` topologically sorts the graph once,
walks it in reverse, sums each edge's VJP into a table local to the call, and
returns the gradient of each of `params`; no tensor stores a gradient.
`Adam.step(loss)` differentiates and updates in one call.  All arrays are
float64; broadcasting follows numpy rules, with gradients summed back to the
input's shape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class AutodiffError(Exception):
    """Base class for engine errors."""


class NonFiniteGraphError(AutodiffError):
    """Raised when a node in the graph holds NaN or infinite entries."""


_GRAD_ENABLED = [True]


class no_grad:
    """Context manager: ops executed inside build no graph."""

    def __enter__(self):
        self._prev = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED[0] = self._prev
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "_edges", "op")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._edges = ()
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(op={self.op}, shape={self.data.shape}, requires_grad={self.requires_grad})"


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum `g` over broadcast dimensions so it matches `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _node(data, op: str, *edges) -> Tensor:
    """The result of `op`, with an (input, vjp) edge per input.

    Only edges whose input requires a gradient are kept, and none under
    `no_grad`; a node with no edges is a constant.
    """
    out = Tensor(data, op=op)
    if _GRAD_ENABLED[0]:
        kept = tuple([e for e in edges if isinstance(e[0], Tensor) and e[0].requires_grad])
        if kept:
            out.requires_grad = True
            out._edges = kept
    return out


def detach(x: Tensor) -> Tensor:
    """A view of `x` cut from the graph; gradients never flow past it."""
    return Tensor(x.data, op="detach")


def add(a, b):
    ad, bd = _data(a), _data(b)
    return _node(
        ad + bd,
        "add",
        (a, lambda g: _unbroadcast(g, ad.shape)),
        (b, lambda g: _unbroadcast(g, bd.shape)),
    )


def sub(a, b):
    ad, bd = _data(a), _data(b)
    return _node(
        ad - bd,
        "sub",
        (a, lambda g: _unbroadcast(g, ad.shape)),
        (b, lambda g: _unbroadcast(-g, bd.shape)),
    )


def mul(a, b):
    ad, bd = _data(a), _data(b)
    return _node(
        ad * bd,
        "mul",
        (a, lambda g: _unbroadcast(g * bd, ad.shape)),
        (b, lambda g: _unbroadcast(g * ad, bd.shape)),
    )


def scale(a, c: float):
    c = float(c)
    return _node(_data(a) * c, "scale", (a, lambda g: g * c))


def matmul(a, b):
    ad, bd = _data(a), _data(b)
    return _node(ad @ bd, "matmul", (a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g))


def affine(x, w, b):
    """x @ w + b in one node (bias gradient sums over rows)."""
    xd, wd = _data(x), _data(w)
    return _node(
        xd @ wd + _data(b),
        "affine",
        (x, lambda g: g @ wd.T),
        (w, lambda g: xd.T @ g),
        (b, lambda g: g.sum(axis=0)),
    )


def relu(x):
    xd = _data(x)
    return _node(np.maximum(xd, 0.0), "relu", (x, lambda g: g * (xd > 0.0)))


def sigmoid(x):
    xd = _data(x)
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _node(out, "sigmoid", (x, lambda g: g * out * (1.0 - out)))


def tanh(x):
    out = np.tanh(_data(x))
    return _node(out, "tanh", (x, lambda g: g * (1.0 - out * out)))


def exp(x):
    out = np.exp(_data(x))
    return _node(out, "exp", (x, lambda g: g * out))


def log(x):
    xd = _data(x)
    return _node(np.log(xd), "log", (x, lambda g: g / xd))


def clip(x, lo: float, hi: float):
    """Clamp to [lo, hi]; gradient passes through where lo <= x <= hi."""
    xd = _data(x)
    inside = (xd >= lo) & (xd <= hi)
    return _node(np.clip(xd, lo, hi), "clip", (x, lambda g: g * inside))


def softmax(x):
    xd = _data(x)
    z = xd - xd.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)
    return _node(out, "softmax", (x, lambda g: out * (g - (g * out).sum(axis=-1, keepdims=True))))


def log_softmax(x):
    xd = _data(x)
    z = xd - xd.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = z - lse
    sm = np.exp(out)
    return _node(out, "log_softmax", (x, lambda g: g - sm * g.sum(axis=-1, keepdims=True)))


def mean(x):
    xd = _data(x)
    n = xd.size
    return _node(xd.mean(), "mean", (x, lambda g: np.full(xd.shape, float(g) / n)))


def total(x):
    xd = _data(x)
    return _node(xd.sum(), "total", (x, lambda g: np.full(xd.shape, float(g))))


def concat(tensors, axis: int = 1):
    datas = [_data(t) for t in tensors]
    out = np.concatenate(datas, axis=axis)
    offsets = np.cumsum([0] + [d.shape[axis] for d in datas])
    edges = []
    for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
        sl = [slice(None)] * out.ndim
        sl[axis] = slice(lo, hi)
        edges.append((t, lambda g, sl=tuple(sl): g[sl]))
    return _node(out, "concat", *edges)


def linear_map(x, forward, adjoint):
    """forward(x) for a caller's linear map, with `adjoint` as its transpose.

    `forward` may broadcast x; the adjoint's output is summed back to x's shape.
    """
    xd = _data(x)
    return _node(forward(xd), "linear_map", (x, lambda g: _unbroadcast(adjoint(g), xd.shape)))


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[Tensor] = set()  # Tensor hashes by identity
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p, _vjp in node._edges:
            if p not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, params) -> list[np.ndarray]:
    """d loss / d p for each of `params`, in order, from the scalar `loss`.

    A parameter the loss does not reach gets zeros.  Raises on a non-scalar
    loss or if any node's value is non-finite.
    """
    if loss.data.size != 1:
        raise AutodiffError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    order = _toposort(loss)
    # one scan over every node's values; only a failure looks for the culprit
    if not np.isfinite(np.concatenate([node.data.ravel() for node in order])).all():
        bad = next(node for node in order if not np.isfinite(node.data).all())
        raise NonFiniteGraphError(f"non-finite values in node op={bad.op!r}")
    grads = {loss: np.ones_like(loss.data)}  # Tensor hashes by identity
    for node in reversed(order):
        g = grads[node]
        for inp, vjp in node._edges:
            d = vjp(g)
            prev = grads.get(inp)
            grads[inp] = d if prev is None else prev + d
    return [grads[p] if p in grads else np.zeros_like(p.data) for p in params]


# ---------------------------------------------------------------------------
# finite-difference gradient checking


@dataclass
class GradCheckReport:
    analytic: np.ndarray
    numeric: np.ndarray
    max_rel_error: float

    def ok(self, tol: float = 1e-4) -> bool:
        return self.max_rel_error <= tol


def check_gradients_params(loss_fn, params, step: float = 1e-5) -> GradCheckReport:
    """Finite-difference check over a list of parameter Tensors used by `loss_fn()`.

    The closure must rebuild its graph from the current parameter values on
    every call.  Returns flattened analytic/numeric gradients over all params.
    """
    analytic = np.concatenate([g.ravel() for g in backward(loss_fn(), params)])

    chunks = []
    with no_grad():
        for p in params:
            flat = p.data.ravel()
            num = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                f_plus = float(loss_fn().data)
                flat[i] = orig - step
                f_minus = float(loss_fn().data)
                flat[i] = orig
                if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                    raise NonFiniteGraphError(f"non-finite loss at perturbed coordinate {i}")
                num[i] = (f_plus - f_minus) / (2.0 * step)
            chunks.append(num)
    numeric = np.concatenate(chunks)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    return GradCheckReport(analytic, numeric, float(rel.max()) if rel.size else 0.0)


# ---------------------------------------------------------------------------
# Adam


class Adam:
    """Bias-corrected Adam over a fixed parameter list, updating in place.

    The moments `m` and `v` are flat float64 vectors over all parameters,
    raveled in list order; parameter i owns `[offsets[i], offsets[i + 1])`.
    Adam is elementwise, so this equals one update per parameter.
    """

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = float(lr)
        self.offsets = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self.m = np.zeros(self.offsets[-1])
        self.v = np.zeros(self.offsets[-1])
        self.steps = 0

    def step(self, loss: Tensor) -> None:
        """One update from the gradients of `loss` (see `backward`).

        A parameter the loss does not reach gets a zero gradient (moments
        decay, and from a fresh state the parameter is untouched).  A
        misshapen or non-finite gradient raises before any parameter, moment
        or the step count changes.
        """
        grads = backward(loss, self.params)
        for p, g in zip(self.params, grads):
            if g.shape != p.data.shape:
                raise AutodiffError(f"Adam: gradient shape {g.shape} != param shape {p.data.shape}")
        g = np.concatenate([g.ravel() for g in grads]) if grads else np.zeros(0)
        if not np.isfinite(g).all():
            raise NonFiniteGraphError("Adam: non-finite gradient")
        self.steps += 1
        b1, b2 = 0.9, 0.999  # the moment decay rates
        c1 = 1.0 - b1**self.steps
        c2 = 1.0 - b2**self.steps
        m, v = self.m, self.v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        upd = self.lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)
        for p, lo, hi in zip(self.params, self.offsets[:-1], self.offsets[1:]):
            p.data -= upd[lo:hi].reshape(p.data.shape)
