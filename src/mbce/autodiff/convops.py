"""Convolution, transposed convolution, and pooling.

conv2d uses the cross-correlation convention. Both convolutions run on one
im2col/col2im pair over zero-padded NHWC arrays:

- ``_im2col(xp, ...)`` turns a padded ``[n, hp, wp, c]`` block into the
  ``[n*ho*wo, kh*kw*c]`` column matrix with ``kh*kw`` shifted-slice copies,
  so each row holds its window in ``(kh, kw, c)`` order with ``c`` fastest.
  Kernel matrices are flattened in the same order: ``k.transpose(0, 2, 3, 1)``
  reshaped to ``(c_out, -1)`` for conv2d and to ``(c_in, -1)`` for
  conv_transpose2d; the kernel gradient is transposed back.
- ``_col2im`` is its exact adjoint: ``kh*kw`` shifted-slice adds into a padded
  NHWC buffer, which is cropped and transposed back to NCHW once per call.

Hence ``<conv2d(x), y> == <x, conv_transpose2d(y)>`` holds for a shared kernel
and mirrored geometry. Both ops walk the batch in blocks of samples whose
columns fit ``_COL_BUDGET`` elements (one sample when a single one does not
fit); each block's GEMM writes into its slice of the output. No column matrix
outlives its block: backward holds the padded NHWC input (for
conv_transpose2d, the input itself), recomputes each block's columns from it
(for conv_transpose2d, from the padded upstream gradient) and accumulates the
kernel gradient over the blocks.
"""

from __future__ import annotations

import numpy as np

from .._checks import count
from .engine import Tensor, _record

__all__ = ["conv2d", "conv_transpose2d", "max_pool2d", "adaptive_avg_pool"]

# Column-matrix elements per block; 2**18 float32 is 1 MB, inside L2. Timed over
# forward plus backward of the four refine_step convs (float32, 2 cores), 2**18
# and 2**19 tie at ~38 ms, while 2**14 to 2**17 and 2**20 or more take 41-44 ms.
_COL_BUDGET = 2**18


def _pair(v, name, low):
    """``(v, v)`` for an integer ``v``, else the integer pair ``v``, each ``>= low``;
    ``ValueError`` for anything else."""
    try:
        a, b = (v, v) if np.isscalar(v) else v
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer or a pair of integers, got {v!r}") from None
    return count(a, name, low), count(b, name, low)


def _conv_out(size, k, s, p):
    return (size + 2 * p - k) // s + 1


def _pad_nhwc(x, ph, pw):
    """Zero-padded NHWC copy of the NCHW array ``x``."""
    b, c, h, w = x.shape
    xp = np.zeros((b, h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
    xp[:, ph : ph + h, pw : pw + w] = x.transpose(0, 2, 3, 1)
    return xp


def _crop_nchw(xp, ph, pw):
    """NCHW array of the interior of the padded NHWC array ``xp``."""
    _, hp, wp, _ = xp.shape
    return np.ascontiguousarray(xp[:, ph : hp - ph, pw : wp - pw].transpose(0, 3, 1, 2))


def _rows(x):
    """NCHW array as ``[b*h*w, c]`` rows, one per pixel."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(-1, x.shape[1])


def _blocks(n, per_sample):
    """Slices of ``range(n)`` whose columns (``per_sample`` each) fit the budget."""
    step = max(1, _COL_BUDGET // per_sample)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _window_slices(kh, kw, sh, sw, ho, wo):
    """Each kernel offset ``(i, j)`` with its strided slice of a padded NHWC array."""
    for i in range(kh):
        for j in range(kw):
            yield i, j, (slice(None), slice(i, i + sh * ho, sh), slice(j, j + sw * wo, sw))


def _im2col(xp, kh, kw, sh, sw):
    """Column matrix ``[n*ho*wo, kh*kw*c]`` of the padded NHWC block ``xp``."""
    n, hp, wp, c = xp.shape
    ho, wo = _conv_out(hp, kh, sh, 0), _conv_out(wp, kw, sw, 0)
    cols = np.empty((n, ho, wo, kh, kw, c), dtype=xp.dtype)
    for i, j, win in _window_slices(kh, kw, sh, sw, ho, wo):
        cols[:, :, :, i, j] = xp[win]
    return cols.reshape(n * ho * wo, kh * kw * c)


def _col2im(cols, xp, kh, kw, sh, sw):
    """Exact adjoint of :func:`_im2col`: add ``cols`` into the padded NHWC ``xp``."""
    n, hp, wp, c = xp.shape
    ho, wo = _conv_out(hp, kh, sh, 0), _conv_out(wp, kw, sw, 0)
    cols6 = cols.reshape(n, ho, wo, kh, kw, c)
    for i, j, win in _window_slices(kh, kw, sh, sw, ho, wo):
        xp[win] += cols6[:, :, :, i, j]


def conv2d(x: Tensor, k: Tensor, stride=1, pad=0) -> Tensor:
    """Batched NCHW cross-correlation with kernel ``[c_out, c_in, kh, kw]``.

    ``stride`` (>= 1) and ``pad`` (>= 0) are integers or ``(h, w)`` pairs of them.
    """
    (sh, sw), (ph, pw) = _pair(stride, "stride", 1), _pair(pad, "pad", 0)
    if x.ndim != 4 or k.ndim != 4:
        raise ValueError("conv2d expects 4-D input and kernel")
    co, ci, kh, kw = k.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel dims must be odd, got {kh}x{kw}")
    b, c, h, w = x.shape
    if c != ci:
        raise ValueError(f"input channels {c} != kernel channels {ci}")
    ho, wo = _conv_out(h, kh, sh, ph), _conv_out(w, kw, sw, pw)
    if ho < 1 or wo < 1:
        raise ValueError(f"empty output for input {h}x{w}, kernel {kh}x{kw}")

    xp = _pad_nhwc(x.data, ph, pw)
    w2 = k.data.transpose(0, 2, 3, 1).reshape(co, -1)
    blocks = _blocks(b, ho * wo * w2.shape[1])
    out = np.empty((b, ho, wo, co), dtype=np.result_type(x.data, k.data))
    for s in blocks:
        np.matmul(_im2col(xp[s], kh, kw, sh, sw), w2.T, out=out[s].reshape(-1, co))

    def bwd(g, needs):
        gxp = np.zeros(xp.shape, dtype=g.dtype) if needs[0] else None
        gk = np.zeros(w2.shape, dtype=g.dtype) if needs[1] else None
        for s in blocks:
            gf = _rows(g[s])
            if needs[0]:
                _col2im(gf @ w2, gxp[s], kh, kw, sh, sw)
            if needs[1]:
                gk += gf.T @ _im2col(xp[s], kh, kw, sh, sw)
        return (
            _crop_nchw(gxp, ph, pw) if needs[0] else None,
            gk.reshape(co, kh, kw, ci).transpose(0, 3, 1, 2) if needs[1] else None,
        )

    return _record(np.ascontiguousarray(out.transpose(0, 3, 1, 2)), (x, k), bwd)


def conv_transpose2d(x: Tensor, k: Tensor, stride=1, pad=0, *, out_hw) -> Tensor:
    """Adjoint geometry of conv2d, kernel ``[c_in, c_out, kh, kw]``.

    ``stride`` and ``pad`` are as in :func:`conv2d`. The output spatial dims
    ``out_hw`` must be a size that conv2d's shape map, with the same kernel,
    stride and pad, takes back to the input dims (stride > 1 leaves several).
    """
    (sh, sw), (ph, pw) = _pair(stride, "stride", 1), _pair(pad, "pad", 0)
    if x.ndim != 4 or k.ndim != 4:
        raise ValueError("conv_transpose2d expects 4-D input and kernel")
    ci, co, kh, kw = k.shape
    b, c, h, w = x.shape
    if c != ci:
        raise ValueError(f"input channels {c} != kernel channels {ci}")
    ho, wo = _pair(out_hw, "out_hw", 1)
    if _conv_out(ho, kh, sh, ph) != h or _conv_out(wo, kw, sw, pw) != w:
        raise ValueError(
            f"output {ho}x{wo} is inconsistent with input {h}x{w} under the adjoint shape map"
        )

    w2 = k.data.transpose(0, 2, 3, 1).reshape(ci, -1)
    blocks = _blocks(b, h * w * w2.shape[1])
    outp = np.zeros((b, ho + 2 * ph, wo + 2 * pw, co), dtype=np.result_type(x.data, k.data))
    for s in blocks:
        _col2im(_rows(x.data[s]) @ w2, outp[s], kh, kw, sh, sw)

    def bwd(g, needs):
        gp = _pad_nhwc(g, ph, pw)
        gx = np.empty((b, h, w, ci), dtype=g.dtype) if needs[0] else None
        gk = np.zeros(w2.shape, dtype=g.dtype) if needs[1] else None
        for s in blocks:
            gcols = _im2col(gp[s], kh, kw, sh, sw)
            if needs[0]:
                np.matmul(gcols, w2.T, out=gx[s].reshape(-1, ci))
            if needs[1]:
                gk += _rows(x.data[s]).T @ gcols
        return (
            np.ascontiguousarray(gx.transpose(0, 3, 1, 2)) if needs[0] else None,
            gk.reshape(ci, kh, kw, co).transpose(0, 3, 1, 2) if needs[1] else None,
        )

    return _record(_crop_nchw(outp, ph, pw), (x, k), bwd)


def max_pool2d(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2, floor semantics on odd dims.

    The backward pass routes gradient to the first maximal element of each
    window in row-major scan order.
    """
    if x.ndim != 4:
        raise ValueError("max_pool2d expects a 4-D tensor")
    _, _, h, w = x.shape
    if h < 2 or w < 2:
        raise ValueError(f"spatial dims {h}x{w} smaller than the 2x2 window")
    ho, wo = h // 2, w // 2
    quads = [(slice(None), slice(None), slice(i, 2 * ho, 2), slice(j, 2 * wo, 2))
             for i in (0, 1) for j in (0, 1)]
    q = [x.data[idx] for idx in quads]
    out = np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))

    def bwd(g, needs):
        gx = np.zeros_like(x.data, dtype=g.dtype)
        free = np.ones(out.shape, dtype=bool)
        for idx, qi in zip(quads, q):
            hit = free & (qi == out)
            np.multiply(g, hit, out=gx[idx])
            free &= ~hit
        return (gx,)

    return _record(out, (x,), bwd)


def adaptive_avg_pool(x: Tensor, out_hw) -> Tensor:
    """Average pooling onto a fixed output grid (same cell split as torch)."""
    if x.ndim != 4:
        raise ValueError("adaptive_avg_pool expects a 4-D tensor")
    oh, ow = _pair(out_hw, "out_hw", 1)
    b, c, h, w = x.shape
    if oh > h or ow > w:
        raise ValueError(f"bad adaptive pool target {oh}x{ow} for input {h}x{w}")

    def bounds(n, o):
        return [(n * i // o, -(-n * (i + 1) // o)) for i in range(o)]

    hb, wb = bounds(h, oh), bounds(w, ow)
    out = np.empty((b, c, oh, ow), dtype=x.dtype)
    for i, (h0, h1) in enumerate(hb):
        for j, (w0, w1) in enumerate(wb):
            out[:, :, i, j] = x.data[:, :, h0:h1, w0:w1].mean(axis=(2, 3))

    def bwd(g, needs):
        gx = np.zeros_like(x.data)
        for i, (h0, h1) in enumerate(hb):
            for j, (w0, w1) in enumerate(wb):
                area = (h1 - h0) * (w1 - w0)
                gx[:, :, h0:h1, w0:w1] += g[:, :, i : i + 1, j : j + 1] / area
        return (gx,)

    return _record(out, (x,), bwd)
