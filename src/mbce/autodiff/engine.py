"""Tensor, tape, and the differentiable primitives that are not convolutions."""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "NumericFault",
    "Tensor",
    "Tape",
    "backward",
    "grad_check",
]

_FLOAT_TYPES = (np.float32, np.float64)


class NumericFault(FloatingPointError):
    """An operation produced NaN/Inf, or gradients went non-finite."""


class Tensor:
    """Dense real n-d array with optional participation in a gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_TYPES:
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

    # operator sugar; all routed through the module-level ops
    def __add__(self, other):
        return add(self, _coerce(other, self.dtype))

    def __radd__(self, other):
        return add(_coerce(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, _coerce(other, self.dtype))

    def __rsub__(self, other):
        return sub(_coerce(other, self.dtype), self)

    def __mul__(self, other):
        if np.isscalar(other):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


def _coerce(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


class _Node:
    __slots__ = ("out", "parents", "needs", "backward_fn")

    def __init__(self, out, parents, needs, backward_fn):
        self.out = out
        self.parents = parents
        self.needs = needs
        self.backward_fn = backward_fn


class _TapeStack(threading.local):
    def __init__(self):
        self.tapes: list[Tape] = []  # open in the current thread, innermost last


_TAPE_STACK = _TapeStack()


class Tape:
    """Ordered record of executed ops; reverse replay populates gradients.

    Ops record onto the innermost tape open in the calling thread."""

    __slots__ = ("_nodes", "_consumed")

    def __init__(self):
        self._nodes: list[_Node] = []
        self._consumed: int | None = None  # node count once backward has run

    def __enter__(self) -> "Tape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, *exc):
        tapes = _TAPE_STACK.tapes
        if not tapes or tapes[-1] is not self:
            raise RuntimeError("tape stack corrupted: tapes must close innermost first")
        tapes.pop()
        return False

    def __len__(self):
        return len(self._nodes) if self._consumed is None else self._consumed

    def backward(self, loss: Tensor) -> None:
        """Accumulate dLoss/dLeaf into every requires_grad leaf, visiting
        each recorded node exactly once (reverse execution order).

        The nodes are dropped afterwards, so the tape no longer keeps the
        step's activations alive (a node's output refers back to its tape);
        ``len`` still reports how many were recorded.
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
        for node in reversed(nodes):
            g = node.out.grad
            if g is None:
                continue
            grads = node.backward_fn(g, node.needs)
            for parent, need, pg in zip(node.parents, node.needs, grads):
                if not need or pg is None:
                    continue
                if parent.grad is None:
                    parent.grad = pg
                else:
                    parent.grad = parent.grad + pg
            node.out.grad = None  # free intermediate storage


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation for the tape that recorded ``loss``."""
    if loss._tape is None:
        raise RuntimeError("loss is not attached to a tape (nothing recorded)")
    loss._tape.backward(loss)


def _record(out_data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    if not np.all(np.isfinite(out_data)):
        raise NumericFault("operation produced non-finite values")
    tapes = _TAPE_STACK.tapes
    tape = tapes[-1] if tapes else None
    needs = tuple(p.requires_grad or p._tape is tape for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = False
    out._tape = None
    if tape is not None and any(needs):
        out._tape = tape
        tape._nodes.append(_Node(out, parents, needs, backward_fn))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bwd(g, needs):
        return (
            _unbroadcast(g, a.shape) if needs[0] else None,
            _unbroadcast(g, b.shape) if needs[1] else None,
        )

    return _record(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bwd(g, needs):
        return (
            _unbroadcast(g, a.shape) if needs[0] else None,
            _unbroadcast(-g, b.shape) if needs[1] else None,
        )

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bwd(g, needs):
        return (
            _unbroadcast(g * b.data, a.shape) if needs[0] else None,
            _unbroadcast(g * a.data, b.shape) if needs[1] else None,
        )

    return _record(out, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
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
        ga = gb = None
        if needs[0]:
            ga = g @ np.swapaxes(b.data, -1, -2)
            if ga.ndim > a.ndim:
                ga = ga.sum(axis=tuple(range(ga.ndim - a.ndim)))
        if needs[1]:
            gb = np.swapaxes(a.data, -1, -2) @ g
            if gb.ndim > b.ndim:
                gb = gb.sum(axis=tuple(range(gb.ndim - b.ndim)))
        return ga, gb

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
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g, needs):
        pieces = np.split(g, offsets, axis=axis)
        return tuple(p if need else None for p, need in zip(pieces, needs))

    return _record(out, tensors, bwd)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    # float64 accumulator regardless of storage dtype
    out = np.sum(a.data, axis=axis, keepdims=keepdims, dtype=np.float64).astype(a.dtype)
    out = np.asarray(out)

    def bwd(g, needs):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, a.shape).astype(a.dtype, copy=True),)

    return _record(out, (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        m = a.size
    else:
        axes = (axis,) if np.isscalar(axis) else tuple(axis)
        m = int(np.prod([a.shape[i] for i in axes]))
    s = tensor_sum(a, axis=axis, keepdims=keepdims)
    return scale(s, 1.0 / m)


# ---------------------------------------------------------------------------
# normalization / attention arithmetic
# ---------------------------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)

    def bwd(g, needs):
        inner = np.sum(g * out, axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return _record(out, (a,), bwd)


def layer_norm(a: Tensor, axes, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean/unit-variance over ``axes`` per remaining slice, then affine.

    ``gain``/``bias`` must broadcast against the input (e.g. per-channel
    ``[C, 1, 1]`` for NCHW feature maps, ``[D]`` for token embeddings).
    """
    axes = (axes,) if np.isscalar(axes) else tuple(axes)
    x = a.data
    m = int(np.prod([x.shape[i] for i in axes]))
    mu = np.mean(x, axis=axes, keepdims=True, dtype=np.float64)
    var = np.mean(
        (x.astype(np.float64) - mu) ** 2, axis=axes, keepdims=True, dtype=np.float64
    )
    inv_std = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    mu = mu.astype(x.dtype)
    xhat = (x - mu) * inv_std
    out = xhat * gain.data + bias.data

    def bwd(g, needs):
        ga = ggain = gbias = None
        if needs[0]:
            dxhat = g * gain.data
            # standard layer-norm backward over the normalized axes
            s1 = np.sum(dxhat, axis=axes, keepdims=True)
            s2 = np.sum(dxhat * xhat, axis=axes, keepdims=True)
            ga = inv_std * (dxhat - s1 / m - xhat * s2 / m)
        if needs[1]:
            ggain = _unbroadcast(g * xhat, gain.shape)
        if needs[2]:
            gbias = _unbroadcast(g, bias.shape)
        return ga, ggain, gbias

    return _record(out, (a, gain, bias), bwd)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def grad_check(f, inputs, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` maps the given tensors to a scalar Tensor. Inputs should be float64
    for tight comparisons. Returns ``max |g_ad - g_fd| / max(|g_ad|, |g_fd|,
    1e-8)`` over every coordinate of every input.
    """
    if isinstance(inputs, Tensor):
        inputs = (inputs,)
    xs = [Tensor(t.data.astype(np.float64).copy(), requires_grad=True) for t in inputs]

    with Tape() as tape:
        out = f(*xs)
    if out.size != 1:
        raise ValueError("grad_check requires a scalar-valued function")
    tape.backward(out)
    analytic = [np.zeros_like(x.data) if x.grad is None else x.grad.copy() for x in xs]

    worst = 0.0
    for x, ga in zip(xs, analytic):
        flat = x.data.ravel()
        gflat = ga.ravel()
        for i in range(flat.size):
            orig = flat[i]
            h = eps * max(1.0, abs(orig))
            flat[i] = orig + h
            f_plus = float(f(*xs).data)
            flat[i] = orig - h
            f_minus = float(f(*xs).data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst
