"""Stand-in for the refinement network, built from public ``mbce.autodiff`` ops.

``mbce.pinn`` cannot be imported yet, so ``refine_step`` trains this small
U-Net-shaped model instead: conv -> relu -> max-pool -> conv -> one
self-attention block over the pooled grid -> transposed conv back to full
size, a skip connection, and a final conv that predicts a correction added to
the coarse estimate. Every op goes through ``call`` so the traced run can
time it.
"""

from __future__ import annotations

import math

import numpy as np

from mbce import autodiff as ad


def init_params(rng: np.random.Generator, c1: int, c2: int) -> dict:
    """He-normal weights, zero biases and unit layer-norm gains, all float32."""

    def he(shape, fan_in):
        return ad.Tensor(
            (rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)).astype(np.float32),
            requires_grad=True,
        )

    def zeros(shape):
        return ad.Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)

    def ones(shape):
        return ad.Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)

    return {
        "enc1.w": he((c1, 2, 3, 3), 2 * 9),
        "enc1.b": zeros((1, c1, 1, 1)),
        "enc2.w": he((c2, c1, 3, 3), c1 * 9),
        "enc2.b": zeros((1, c2, 1, 1)),
        "attn.gain": ones((c2,)),
        "attn.bias": zeros((c2,)),
        "attn.q": he((c2, c2), c2),
        "attn.k": he((c2, c2), c2),
        "attn.v": he((c2, c2), c2),
        "attn.o": he((c2, c2), 4 * c2),
        "up.w": he((c2, c1, 3, 3), c2 * 9),
        "up.b": zeros((1, c1, 1, 1)),
        "out.w": he((2, c1, 3, 3), 4 * c1 * 9),
        "out.b": zeros((1, 2, 1, 1)),
    }


def forward(p: dict, x, call):
    """Refined planes ``[B, 2, H, W]`` from coarse planes ``x`` (H, W even)."""
    b, _, h, w = x.shape
    c2 = p["enc2.w"].shape[0]

    e1 = call("autodiff.conv2d", ad.conv2d, x, p["enc1.w"], pad=1)
    e1 = call("autodiff.relu", ad.relu, call("autodiff.add", ad.add, e1, p["enc1.b"]))
    e2 = call("autodiff.max_pool2d", ad.max_pool2d, e1)
    e2 = call("autodiff.conv2d", ad.conv2d, e2, p["enc2.w"], pad=1)
    e2 = call("autodiff.relu", ad.relu, call("autodiff.add", ad.add, e2, p["enc2.b"]))

    # self-attention over the (h/2)*(w/2) latent positions
    n = (h // 2) * (w // 2)
    tok = call("autodiff.permute", ad.permute, e2, (0, 2, 3, 1))
    tok = call("autodiff.reshape", ad.reshape, tok, (b, n, c2))
    z = call("autodiff.layer_norm", ad.layer_norm, tok, -1, p["attn.gain"], p["attn.bias"])
    q = call("autodiff.matmul", ad.matmul, z, p["attn.q"])
    k = call("autodiff.matmul", ad.matmul, z, p["attn.k"])
    v = call("autodiff.matmul", ad.matmul, z, p["attn.v"])
    kt = call("autodiff.permute", ad.permute, k, (0, 2, 1))
    scores = call("autodiff.matmul", ad.matmul, q, kt)
    scores = call("autodiff.scale", ad.scale, scores, 1.0 / math.sqrt(c2))
    att = call("autodiff.softmax", ad.softmax, scores, -1)
    ctx = call("autodiff.matmul", ad.matmul, att, v)
    ctx = call("autodiff.matmul", ad.matmul, ctx, p["attn.o"])
    tok = call("autodiff.add", ad.add, tok, ctx)
    lat = call("autodiff.reshape", ad.reshape, tok, (b, h // 2, w // 2, c2))
    lat = call("autodiff.permute", ad.permute, lat, (0, 3, 1, 2))

    u = call("autodiff.conv_transpose2d", ad.conv_transpose2d, lat, p["up.w"],
             stride=2, pad=1, out_hw=(h, w))
    u = call("autodiff.add", ad.add, u, p["up.b"])
    u = call("autodiff.relu", ad.relu, call("autodiff.add", ad.add, u, e1))
    y = call("autodiff.conv2d", ad.conv2d, u, p["out.w"], pad=1)
    y = call("autodiff.add", ad.add, y, p["out.b"])
    return call("autodiff.add", ad.add, x, y)


def mse(pred, target, call):
    diff = call("autodiff.sub", ad.sub, pred, target)
    return call("autodiff.mean", ad.mean, call("autodiff.mul", ad.mul, diff, diff))


def conv_costs(p: dict, x_shape) -> dict[str, tuple[int, int, int]]:
    """Computed FLOPs, bytes moved and calls in one forward pass, per conv kind.

    A conv over output grid ``Ho x Wo`` costs ``2 * B*Ho*Wo * Co*Ci*kh*kw``
    FLOPs (a transposed conv: the same over its input grid). Bytes moved are
    the float32 input, kernel and output, each read or written once.
    """
    b, _, h, w = x_shape
    c1, c2 = p["enc1.w"].shape[0], p["enc2.w"].shape[0]
    calls = {
        "conv2d": [
            ((b, 2, h, w), p["enc1.w"].shape, (b, c1, h, w), h * w),
            ((b, c1, h // 2, w // 2), p["enc2.w"].shape, (b, c2, h // 2, w // 2), h * w // 4),
            ((b, c1, h, w), p["out.w"].shape, (b, 2, h, w), h * w),
        ],
        "conv_transpose2d": [
            ((b, c2, h // 2, w // 2), p["up.w"].shape, (b, c1, h, w), h * w // 4),
        ],
    }
    out = {}
    for kind, shapes in calls.items():
        flops = nbytes = 0
        for xs, ks, ys, grid in shapes:
            flops += 2 * b * grid * int(np.prod(ks))
            nbytes += 4 * (int(np.prod(xs)) + int(np.prod(ks)) + int(np.prod(ys)))
        out[kind] = (flops, nbytes, len(shapes))
    return out
