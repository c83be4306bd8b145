"""Convolution, transposed convolution, and pooling.

conv2d uses the cross-correlation convention. A conv geometry is the linear
map ``C`` from a zero-padded NHWC ``[b, hp, wp, c_in]`` array to the
``[b, ho, wo, c_out]`` output grid, with a conv2d kernel ``[c_out, c_in, kh,
kw]``: conv2d applies ``C``, conv_transpose2d applies ``C^T`` (its kernel
``[c_in, c_out, kh, kw]`` is ``C``'s kernel read with the channel roles
swapped). Each geometry is lowered to GEMMs once, by :class:`_Lowering`, and
that one decision serves ``C x``, ``C^T g`` and the kernel gradient, so both
ops and both their backward passes run on the same side. A side reads one of
the two grids as rows, ``[n*h*w, c]`` with one row per pixel, and builds from
the other grid a column matrix with ``kh*kw`` slabs of channels per row pixel:

- **Input side:** the rows are the output grid ``[n, ho, wo, c_out]``, the
  columns come from the padded input grid. ``_im2col`` turns a padded
  ``[n, hp, wp, c]`` block into the ``[n*ho*wo, kh*kw*c]`` column matrix with
  ``kh*kw`` shifted-slice copies, each row holding its window in ``(kh, kw,
  c)`` order with ``c`` fastest; ``_col2im`` is its exact adjoint, ``kh*kw``
  shifted-slice adds into a padded NHWC buffer.
- **Output side:** the same with the grids' roles swapped. The rows are the
  padded input grid ``[n, hp, wp, c_in]``, the columns come from the output
  grid. ``_out2col`` spreads an ``[n, ho, wo, c]`` block into the ``kh*kw``
  slabs of an ``[n*hp*wp, kh*kw*c]`` column matrix, slab ``(i, j)`` at the
  padded pixels its kernel offset reads; ``_col2out`` is its exact adjoint,
  ``kh*kw`` shifted-slab adds into the output grid.

All four builders take the rows' grid. The kernel matrix is ``[rows'
channels, kh*kw*columns' channels]``, and one loop serves both sides: rows
times the kernel matrix go through the adjoint builder onto the columns' grid,
the columns times its transpose land whole on the rows' grid, and rows^T
times columns is the kernel gradient. The first of those products is ``C^T g``
on the input side and ``C x`` on the output side; the second is the other one.

The rule is computed, not an option: the side with fewer column entries,
``ho*wo*c_in`` against ``hp*wp*c_out`` per sample and kernel offset, the input
side on a tie. A head that maps many channels to few (32 -> 2 on 32x32) thus
lowers on the output side, while a stride-1 layer that keeps or widens its
channel count lowers on the input side.

Both lowerings satisfy ``<conv2d(x), y> == <x, conv_transpose2d(y)>`` for a
shared kernel and mirrored geometry. They walk the batch in blocks of samples
whose columns fit ``_COL_BUDGET`` elements (one sample when a single one does
not fit); each block's GEMM writes into its slice of the result. No column
matrix outlives its block: backward keeps the padded input (conv2d) or the
input itself (conv_transpose2d) and rebuilds each block's columns.
"""

from __future__ import annotations

import numpy as np

from .._checks import counts
from .engine import Tensor, _record

__all__ = ["conv2d", "conv_transpose2d", "max_pool2d", "adaptive_avg_pool"]

# Column-matrix elements per block; 2**18 float32 is 1 MB, inside L2. Timed over
# forward plus backward of the four refine_step convs, the head on the output
# side (float32, 2 cores, medians of 40-60 interleaved runs), 2**18 takes
# 37-39 ms, while 2**14 to 2**17 and 2**19 to 2**21 take 39-44 ms.
_COL_BUDGET = 2**18


def _pair(v, name, low):
    """``(v, v)`` for an integer ``v``, else the integer pair ``v``, each ``>= low``;
    ``ValueError`` for anything else."""
    return counts((v, v) if np.isscalar(v) else v, name, low, n=2)


def _conv_out(size, k, s, p):
    return (size + 2 * p - k) // s + 1


def _geometry(x, k, stride, pad, transposed):
    """``stride`` and ``pad`` as ``(h, w)`` pairs, once ``x`` and ``k`` are 4-D
    and ``x`` has the kernel's input channels (its axis 1, or axis 0 when
    ``transposed``), with at least one channel on each side."""
    pairs = _pair(stride, "stride", 1), _pair(pad, "pad", 0)
    if x.ndim != 4 or k.ndim != 4:
        op = "conv_transpose2d" if transposed else "conv2d"
        raise ValueError(f"{op} expects 4-D input and kernel")
    ci, co = k.shape[:2] if transposed else k.shape[1::-1]  # conv2d's is [c_out, c_in, ...]
    if x.shape[1] != ci:
        raise ValueError(f"input channels {x.shape[1]} != kernel channels {ci}")
    if ci < 1 or co < 1:
        raise ValueError(f"a conv needs at least one channel on each side, got {ci} -> {co}")
    return pairs


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


def _rows(a):
    """NHWC array as ``[n*h*w, c]`` rows, one per pixel."""
    return np.ascontiguousarray(a).reshape(-1, a.shape[-1])


def _blocks(n, per_sample):
    """Slices of ``range(n)`` whose columns (``per_sample`` each) fit the budget."""
    step = max(1, _COL_BUDGET // max(per_sample, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _window_slices(kh, kw, sh, sw, ho, wo):
    """Each kernel offset ``(i, j)`` with its strided slice of a padded NHWC array."""
    for i in range(kh):
        for j in range(kw):
            yield i, j, (slice(None), slice(i, i + sh * ho, sh), slice(j, j + sw * wo, sw))


def _im2col(xp, ho, wo, kh, kw, sh, sw):
    """Column matrix ``[n*ho*wo, kh*kw*c]`` of the padded NHWC block ``xp``."""
    n, _, _, c = xp.shape
    cols = np.empty((n, ho, wo, kh, kw, c), dtype=xp.dtype)
    for i, j, win in _window_slices(kh, kw, sh, sw, ho, wo):
        cols[:, :, :, i, j] = xp[win]
    return cols.reshape(n * ho * wo, kh * kw * c)


def _col2im(cols, xp, ho, wo, kh, kw, sh, sw):
    """Exact adjoint of :func:`_im2col`: add ``cols`` into the padded NHWC ``xp``."""
    n, _, _, c = xp.shape
    cols6 = cols.reshape(n, ho, wo, kh, kw, c)
    for i, j, win in _window_slices(kh, kw, sh, sw, ho, wo):
        xp[win] += cols6[:, :, :, i, j]


def _out2col(y, hp, wp, kh, kw, sh, sw):
    """Column matrix ``[n*hp*wp, kh*kw*c]`` of the NHWC output-grid block ``y``:
    slab ``(i, j)`` holds ``y`` at the padded pixels its kernel offset reads,
    zeros elsewhere."""
    n, ho, wo, c = y.shape
    cols = np.zeros((n, hp, wp, kh, kw, c), dtype=y.dtype)
    for i, j, win in _window_slices(kh, kw, sh, sw, ho, wo):
        cols[win + (i, j)] = y
    return cols.reshape(n * hp * wp, kh * kw * c)


def _col2out(cols, y, hp, wp, kh, kw, sh, sw):
    """Exact adjoint of :func:`_out2col`: add the shifted slabs of ``cols``
    into the NHWC output-grid block ``y``."""
    n, ho, wo, c = y.shape
    cols6 = cols.reshape(n, hp, wp, kh, kw, c)
    for i, j, win in _window_slices(kh, kw, sh, sw, ho, wo):
        y += cols6[win + (i, j)]


class _Lowering:
    """The conv geometry ``C`` of the kernel ``k`` (``[c_out, c_in, kh, kw]``)
    on a padded ``hp x wp`` grid of ``b`` samples, lowered on the side with
    fewer column entries (see the module docstring).

    A side is one row of data: which of the padded input ``xp`` and the output
    ``y`` gives the rows and which the columns (``y`` and ``xp`` on the input
    side, ``xp`` and ``y`` on the output side), the column builder with its
    exact adjoint (:func:`_im2col` and :func:`_col2im`, or :func:`_out2col` and
    :func:`_col2out`), and the axes of ``k`` that make the ``[rows' channels,
    kh*kw*columns' channels]`` kernel matrix. Each builder takes the rows' grid.
    """

    def __init__(self, k, b, hp, wp, stride):
        co, ci, kh, kw = k.shape
        sh, sw = stride
        ho, wo = _conv_out(hp, kh, sh, 0), _conv_out(wp, kw, sw, 0)
        self.output_side = hp * wp * co < ho * wo * ci
        self.win = (kh, kw, sh, sw)
        # `step` orders (xp, y) as (rows, columns): 1 on the output side, -1 on the input side
        self.step, self.to_cols, self.add_cols, self.axes = (
            (1, _out2col, _col2out, (1, 2, 3, 0)) if self.output_side
            else (-1, _im2col, _col2im, (0, 2, 3, 1)))
        self.grids = ((b, hp, wp, ci), (b, ho, wo, co))[:: self.step]
        self.w = k.transpose(self.axes).reshape(k.shape[self.axes[0]], -1)
        self.blocks = _blocks(b, self.grids[0][1] * self.grids[0][2] * self.w.shape[1])

    def products(self, xp, y, *, fwd=False, adj=False, kgrad=False):
        """``(C xp, C^T y, d<y, C xp>/dk)``, each only where asked, else None.

        ``xp`` is on the padded input grid and ``y`` on the output grid, both
        NHWC; ``C xp`` and ``C^T y`` come back NHWC on those same grids, the
        kernel gradient in ``k``'s layout. An operand no asked-for product
        reads may be None.
        """
        rgrid, cgrid = self.grids
        _, rh, rw, rc = rgrid
        dtype = np.result_type(*(a for a in (xp, y, self.w) if a is not None))
        # the rows land on the columns' grid through the adjoint, the columns on the rows' grid
        r, c = (xp, y)[:: self.step]
        ask_c, ask_r = (fwd, adj)[:: self.step]
        # a GEMM writes its result whole; shifted adds need it zeroed first
        out_c = np.zeros(cgrid, dtype) if ask_c else None
        out_r = np.empty(rgrid, dtype) if ask_r else None
        gw = np.zeros(self.w.shape, dtype) if kgrad else None
        for s in self.blocks:
            rows = _rows(r[s]) if ask_c or kgrad else None
            if ask_c:
                self.add_cols(rows @ self.w, out_c[s], rh, rw, *self.win)
            cols = self.to_cols(c[s], rh, rw, *self.win) if ask_r or kgrad else None
            if ask_r:
                np.matmul(cols, self.w.T, out=out_r[s].reshape(-1, rc))
            if kgrad:
                gw += rows.T @ cols
        if kgrad:
            gw = gw.reshape(rc, *self.win[:2], -1).transpose(np.argsort(self.axes))
        return (*(out_c, out_r)[:: self.step], gw)


def conv2d(x: Tensor, k: Tensor, stride=1, pad=0) -> Tensor:
    """Batched NCHW cross-correlation with kernel ``[c_out, c_in, kh, kw]``.

    ``stride`` (>= 1) and ``pad`` (>= 0) are integers or ``(h, w)`` pairs of them.
    """
    (sh, sw), (ph, pw) = _geometry(x, k, stride, pad, transposed=False)
    (b, _, h, w), (kh, kw) = x.shape, k.shape[2:]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel dims must be odd, got {kh}x{kw}")
    ho, wo = _conv_out(h, kh, sh, ph), _conv_out(w, kw, sw, pw)
    if ho < 1 or wo < 1:
        raise ValueError(f"empty output for input {h}x{w}, kernel {kh}x{kw}")

    xp = _pad_nhwc(x.data, ph, pw)
    conv = _Lowering(k.data, b, h + 2 * ph, w + 2 * pw, (sh, sw))
    out = conv.products(xp, None, fwd=True)[0]

    def bwd(g, needs):
        _, gxp, gk = conv.products(xp, g.transpose(0, 2, 3, 1), adj=needs[0], kgrad=needs[1])
        return _crop_nchw(gxp, ph, pw) if needs[0] else None, gk

    return _record(_crop_nchw(out, 0, 0), (x, k), bwd)


def conv_transpose2d(x: Tensor, k: Tensor, stride=1, pad=0, *, out_hw) -> Tensor:
    """Adjoint geometry of conv2d, kernel ``[c_in, c_out, kh, kw]``.

    ``stride`` and ``pad`` are as in :func:`conv2d`. The output spatial dims
    ``out_hw`` must be a size that conv2d's shape map, with the same kernel,
    stride and pad, takes back to the input dims (stride > 1 leaves several).
    """
    (sh, sw), (ph, pw) = _geometry(x, k, stride, pad, transposed=True)
    (b, _, h, w), (kh, kw) = x.shape, k.shape[2:]
    ho, wo = _pair(out_hw, "out_hw", 1)
    if _conv_out(ho, kh, sh, ph) != h or _conv_out(wo, kw, sw, pw) != w:
        raise ValueError(
            f"output {ho}x{wo} is inconsistent with input {h}x{w} under the adjoint shape map"
        )

    xn = x.data.transpose(0, 2, 3, 1)
    conv = _Lowering(k.data, b, ho + 2 * ph, wo + 2 * pw, (sh, sw))
    outp = conv.products(None, xn, adj=True)[1]

    def bwd(g, needs):
        gx, _, gk = conv.products(_pad_nhwc(g, ph, pw), xn, fwd=needs[0], kgrad=needs[1])
        return _crop_nchw(gx, 0, 0) if needs[0] else None, gk

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
