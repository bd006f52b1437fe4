"""Minimal reverse-mode automatic differentiation on numpy arrays.

Every operation is one :class:`Var` node: affine maps, the elementwise
nonlinearities, gather plumbing, sums, and reparameterized Gaussian sampling.
:mod:`tape_model` writes the recurrent models one operation per node on this
tape, so :func:`grad` differentiates them mechanically; that is the gradient
oracle for the hand-written kernels of :mod:`bikecast.neural`. A node keeps
the floating dtype of its value; any other value (a Python number, an
integer array) becomes float64.

Gradients are accumulated in a dict keyed by node identity during a single
backward sweep, so tapes are single-use and parameters never hold stale state.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    # Sum out dimensions numpy broadcasting added or stretched.
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


class Var:
    """One tape node: a value, its parents, and the vector-Jacobian product."""

    __slots__ = ("value", "parents", "vjp")

    def __init__(self, value, parents=(), vjp=None):
        value = np.asarray(value)
        self.value = value if value.dtype.kind == "f" else value.astype(float)
        self.parents = tuple(parents)
        self.vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return mul(self, Var(-1.0))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __getitem__(self, key):
        return gather(self, key)

    def sum(self, axis=None):
        return sum_(self, axis=axis)


def _wrap(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def const(x) -> Var:
    """A leaf node that takes no gradient."""
    return Var(x)


# -- primitives ---------------------------------------------------------


def add(a: Var, b: Var) -> Var:
    return Var(
        a.value + b.value,
        parents=(a, b),
        vjp=lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)),
    )


def sub(a: Var, b: Var) -> Var:
    return Var(
        a.value - b.value,
        parents=(a, b),
        vjp=lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)),
    )


def mul(a: Var, b: Var) -> Var:
    return Var(
        a.value * b.value,
        parents=(a, b),
        vjp=lambda g: (
            _unbroadcast(g * b.value, a.value.shape),
            _unbroadcast(g * a.value, b.value.shape),
        ),
    )


def matmul(a: Var, b: Var) -> Var:
    return Var(
        a.value @ b.value,
        parents=(a, b),
        vjp=lambda g: (g @ b.value.T, a.value.T @ g),
    )


def affine(x: Var, w: Var, b: Var) -> Var:
    """x @ w + b with the bias broadcast over rows."""
    return add(matmul(x, w), b)


def sigmoid(x: Var) -> Var:
    # Stable on both tails.
    v = np.where(x.value >= 0, 1.0 / (1.0 + np.exp(-np.abs(x.value))),
                 np.exp(-np.abs(x.value)) / (1.0 + np.exp(-np.abs(x.value))))
    return Var(v, parents=(x,), vjp=lambda g: (g * v * (1.0 - v),))


def tanh(x: Var) -> Var:
    v = np.tanh(x.value)
    return Var(v, parents=(x,), vjp=lambda g: (g * (1.0 - v * v),))


def softplus(x: Var) -> Var:
    v = np.logaddexp(0.0, x.value)
    s = np.where(x.value >= 0, 1.0 / (1.0 + np.exp(-np.abs(x.value))),
                 np.exp(-np.abs(x.value)) / (1.0 + np.exp(-np.abs(x.value))))
    return Var(v, parents=(x,), vjp=lambda g: (g * s,))


def exp(x: Var) -> Var:
    v = np.exp(x.value)
    return Var(v, parents=(x,), vjp=lambda g: (g * v,))


def log(x: Var) -> Var:
    return Var(np.log(x.value), parents=(x,), vjp=lambda g: (g / x.value,))


def gather(x: Var, key) -> Var:
    def vjp(g):
        out = np.zeros_like(x.value)
        np.add.at(out, key, g)
        return (out,)

    return Var(x.value[key], parents=(x,), vjp=vjp)


def sum_(x: Var, axis=None) -> Var:
    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.value.shape).copy(),)
        expanded = np.expand_dims(g, axis)
        return (np.broadcast_to(expanded, x.value.shape).copy(),)

    return Var(x.value.sum(axis=axis), parents=(x,), vjp=vjp)


def gaussian_sample(mean_: Var, scale: Var, eps: np.ndarray) -> Var:
    """Reparameterized draw mean + scale * eps with eps a fixed noise array."""
    return add(mean_, mul(scale, const(eps)))


# -- backward -----------------------------------------------------------


def _topological(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def grad(loss: Var, params: list[Var]) -> list[np.ndarray]:
    """Gradients of a scalar loss with respect to each listed parameter."""
    if loss.value.size != 1:
        raise ValueError("loss must be scalar")
    order = _topological(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.value)}
    for node in reversed(order):
        if node.vjp is None:
            continue
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
    return [grads[id(p)] if id(p) in grads else np.zeros_like(p.value) for p in params]
