"""Tensor, tape, and the differentiable primitives that are not convolutions."""

from __future__ import annotations

import threading

import numpy as np

from .._checks import count, real

__all__ = [
    "NumericFault",
    "Tensor",
    "Tape",
    "add",
    "sub",
    "mul",
    "scale",
    "relu",
    "matmul",
    "reshape",
    "permute",
    "concat",
    "mean",
    "softmax",
    "layer_norm",
]

_FLOAT_TYPES = (np.float32, np.float64)


class NumericFault(FloatingPointError):
    """An operation produced NaN/Inf, or gradients went non-finite."""


class Tensor:
    """Dense real n-d array with optional participation in a gradient tape.

    float32 and float64 data keep their dtype; other real numbers are stored
    as float32. Complex or non-numeric data raises ``ValueError``, non-finite
    data ``NumericFault``. Tensors have no operators: ops are the module's
    functions."""

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind not in "biuf":
            raise ValueError(f"tensor data must be real numbers, got dtype {arr.dtype}")
        if arr.dtype not in _FLOAT_TYPES:
            arr = arr.astype(np.float32)
        if not np.all(np.isfinite(arr)):
            raise NumericFault("tensor holds non-finite values")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, grad={self.requires_grad})"


_OPEN = threading.local()  # .tape: the tape open in this thread, if any


class Tape:
    """Ordered record of executed ops; reverse replay populates gradients.

    A thread has at most one tape open, and ops record onto it; entering a
    second tape in a thread that has one open raises ``RuntimeError``."""

    __slots__ = ("_nodes", "_consumed")

    def __init__(self):
        self._nodes: list[tuple] = []  # (out, parents, needs, backward_fn) per op
        self._consumed: int | None = None  # node count once backward has run

    def __enter__(self) -> "Tape":
        if getattr(_OPEN, "tape", None) is not None:
            raise RuntimeError("a tape is already open in this thread")
        _OPEN.tape = self
        return self

    def __exit__(self, *exc):
        if getattr(_OPEN, "tape", None) is not self:
            raise RuntimeError("this tape is not the one open in this thread")
        _OPEN.tape = None
        return False

    def __len__(self):
        return len(self._nodes) if self._consumed is None else self._consumed

    def backward(self, loss: Tensor) -> None:
        """Accumulate dLoss/dLeaf into every requires_grad leaf, visiting
        each recorded node exactly once (reverse execution order).

        An op's backward returns one raw partial per parent, or None for a
        parent that needs no gradient. A partial has its parent's shape or a
        shape that shape broadcasts to; this loop sums it down to the
        parent's shape (over extra leading axes, then over the parent's
        size-1 axes) before adding it in. Each leaf's gradient is an array
        of its own, so changing one in place changes no other. A leaf
        gradient that is not finite after the replay raises
        ``NumericFault``. The nodes are dropped afterwards, so the tape no
        longer keeps the step's activations alive (a node's output refers
        back to its tape); ``len`` still reports how many were recorded.
        """
        if self._consumed is not None:
            raise RuntimeError("stale tape: backward was already run")
        if loss.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.shape}")
        if loss._tape is not self:
            raise RuntimeError("loss was not recorded on this tape")
        nodes, self._nodes = self._nodes, []
        self._consumed = len(nodes)
        loss.grad = np.ones_like(loss.data)
        leaves = {}
        for out, parents, needs, backward_fn in reversed(nodes):
            g = out.grad
            if g is None:
                continue
            for parent, need, pg in zip(parents, needs, backward_fn(g, needs)):
                if not need or pg is None:
                    continue
                pg = _unbroadcast(pg, parent.shape)
                if parent._tape is None:  # a leaf
                    leaves[id(parent)] = parent
                    if parent.grad is None and np.may_share_memory(pg, g):
                        # an op may hand its own gradient, or a view of it, to
                        # several parents; a leaf gets an array it owns
                        pg = pg.copy()
                parent.grad = pg if parent.grad is None else parent.grad + pg
            out.grad = None  # free intermediate storage
        if not all(np.all(np.isfinite(leaf.grad)) for leaf in leaves.values()):
            raise NumericFault("backward produced non-finite leaf gradients")


def _record(out_data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    if not np.all(np.isfinite(out_data)):
        raise NumericFault("operation produced non-finite values")
    tape = getattr(_OPEN, "tape", None)
    needs = tuple(p.requires_grad or p._tape is tape for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = False
    out._tape = None
    if tape is not None and any(needs):
        out._tape = tape
        tape._nodes.append((out, parents, needs, backward_fn))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``: over its extra leading
    axes, then over the axes where ``shape`` has size 1; ``g`` itself if it has
    ``shape`` already."""
    if g.ndim > len(shape):
        g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bwd(g, needs):
        return g, g

    return _record(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bwd(g, needs):
        return g, -g if needs[1] else None

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bwd(g, needs):
        return g * b.data if needs[0] else None, g * a.data if needs[1] else None

    return _record(out, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(real(s, "scale factor"))
    out = a.data * np.asarray(s, dtype=a.dtype)

    def bwd(g, needs):
        return (g * np.asarray(s, dtype=g.dtype),)

    return _record(out, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)

    def bwd(g, needs):
        return (g * (out > 0),)

    return _record(out, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra and shape ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"inner dims differ: {a.shape} @ {b.shape}")
    if a.ndim != b.ndim and not (a.ndim == 2 or b.ndim == 2):
        raise ValueError("batched matmul requires equal leading dims")
    if a.ndim == b.ndim and a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"leading dims differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def bwd(g, needs):
        return (
            g @ np.swapaxes(b.data, -1, -2) if needs[0] else None,
            np.swapaxes(a.data, -1, -2) @ g if needs[1] else None,
        )

    return _record(out, (a, b), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def bwd(g, needs):
        return (g.reshape(a.shape),)

    return _record(out, (a,), bwd)


def permute(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = np.ascontiguousarray(a.data.transpose(axes))

    def bwd(g, needs):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return _record(out, (a,), bwd)


def concat(tensors, axis: int) -> Tensor:
    tensors = tuple(tensors)
    axis = count(axis, "axis")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g, needs):
        return np.split(g, offsets, axis=axis)

    return _record(out, tensors, bwd)


def _tensor_sum(a: Tensor) -> Tensor:
    """Sum of every element, as a 0-d tensor of ``a``'s dtype."""
    # float64 accumulator regardless of storage dtype
    out = np.asarray(np.sum(a.data, dtype=np.float64).astype(a.dtype))

    def bwd(g, needs):
        return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=True),)

    return _record(out, (a,), bwd)


def mean(a: Tensor) -> Tensor:
    """Mean of every element, as a 0-d tensor of ``a``'s dtype; ``a`` must
    not be empty."""
    if a.size == 0:
        raise ValueError("mean of an empty tensor")
    return scale(_tensor_sum(a), 1.0 / a.size)


# ---------------------------------------------------------------------------
# normalization / attention arithmetic
# ---------------------------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    axis = count(axis, "axis")
    out = a.data - np.max(a.data, axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True)

    def bwd(g, needs):
        gx = g * out
        inner = np.sum(gx, axis=axis, keepdims=True)
        np.subtract(g, inner, out=gx)
        gx *= out
        return (gx,)

    return _record(out, (a,), bwd)


def layer_norm(a: Tensor, axes, gain: Tensor, bias: Tensor) -> Tensor:
    """Zero-mean/unit-variance over ``axes`` per remaining slice, then affine.
    The variance is offset by ``1e-5`` before its square root is taken.

    ``gain``/``bias`` must broadcast against the input (e.g. per-channel
    ``[C, 1, 1]`` for NCHW feature maps, ``[D]`` for token embeddings).
    """
    axes = tuple(count(ax, "axes") for ax in ((axes,) if np.isscalar(axes) else axes))
    x = a.data
    if not all(-x.ndim <= ax < x.ndim for ax in axes):
        raise ValueError(f"axes {axes} out of range for a {x.ndim}-D input")
    m = int(np.prod([x.shape[i] for i in axes]))
    mu = np.mean(x, axis=axes, keepdims=True, dtype=np.float64)
    var = np.mean(
        (x.astype(np.float64) - mu) ** 2, axis=axes, keepdims=True, dtype=np.float64
    )
    inv_std = (1.0 / np.sqrt(var + 1e-5)).astype(x.dtype)
    mu = mu.astype(x.dtype)
    xhat = (x - mu) * inv_std
    out = xhat * gain.data + bias.data

    def bwd(g, needs):
        ga = None
        if needs[0]:
            dxhat = g * gain.data
            # standard layer-norm backward over the normalized axes
            s1 = np.sum(dxhat, axis=axes, keepdims=True)
            s2 = np.sum(dxhat * xhat, axis=axes, keepdims=True)
            ga = inv_std * (dxhat - s1 / m - xhat * s2 / m)
        return ga, g * xhat if needs[1] else None, g

    return _record(out, (a, gain, bias), bwd)
