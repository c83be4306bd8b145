import gc
import sys
import tracemalloc
import zipfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from mbce.autodiff import (
    NumericFault,
    Tape,
    Tensor,
    adaptive_avg_pool,
    add,
    concat,
    conv2d,
    conv_transpose2d,
    layer_norm,
    load_params,
    matmul,
    max_pool2d,
    mean,
    mul,
    permute,
    relu,
    reshape,
    save_params,
    scale,
    softmax,
    sub,
)
from mbce.autodiff.convops import _COL_BUDGET, _Lowering
from mbce.autodiff.engine import _tensor_sum as tensor_sum

from archives import npy_bytes, npy_with_header, npz_bytes

RNG = np.random.default_rng(2024)
ONE32 = np.ones(1, np.float32)


def grad_check(f, inputs) -> float:
    """Max relative error between tape gradients and central differences of
    step ``1e-5 * max(1, |x|)``.

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
            h = 1e-5 * max(1.0, abs(orig))
            flat[i] = orig + h
            f_plus = float(f(*xs).data)
            flat[i] = orig - h
            f_minus = float(f(*xs).data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst


def t64(*shape, margin=0.0):
    """Random float64 tensor; margin pushes values away from zero."""
    data = RNG.normal(size=shape)
    if margin:
        data = data + margin * np.sign(data)
    return Tensor(data)


class TestElementwise:
    def test_relu_values(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_add_identity(self):
        x = Tensor([1.0, 2.0, 3.0])
        out = add(x, Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(out.data, x.data)

    def test_elementwise_dispatch(self):
        a, b = Tensor([2.0]), Tensor([3.0])
        assert mul(a, b).data[0] == 6.0
        assert sub(a, b).data[0] == -1.0
        assert scale(a, 4.0).data[0] == 8.0
        assert relu(Tensor([-2.0])).data[0] == 0.0

    @pytest.mark.parametrize("trial", range(10))
    def test_mul_gradient_finite_differences(self, trial):
        a, b = t64(3, 4), t64(3, 4)
        err = grad_check(lambda x, y: tensor_sum(mul(mul(x, y), y)), (a, b))
        assert err < 1e-4

    def test_broadcast_add_gradient(self):
        a, b = t64(2, 3, 4), t64(1, 3, 1)
        err = grad_check(lambda x, y: tensor_sum(mul(add(x, y), add(x, y))), (a, b))
        assert err < 1e-4

    def test_relu_gradient_away_from_kink(self):
        x = t64(4, 5, margin=0.2)
        assert grad_check(lambda a: tensor_sum(relu(a)), x) < 1e-6

    def test_shape_mismatch_raises(self):
        with pytest.raises(Exception):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))


class TestMatmul:
    def test_identity(self):
        x = Tensor(RNG.normal(size=(3, 3)))
        out = matmul(Tensor(np.eye(3, dtype=np.float32)), x)
        np.testing.assert_allclose(out.data, x.data, rtol=1e-6)

    def test_one_by_one_is_scalar_mul(self):
        a, b = Tensor([[2.0]]), Tensor([[3.0]])
        assert matmul(a, b).data[0, 0] == 6.0

    @pytest.mark.parametrize("trial", range(10))
    def test_gradients(self, trial):
        a, b = t64(5, 7), t64(7, 3)
        err = grad_check(lambda x, y: tensor_sum(mul(matmul(x, y), matmul(x, y))), (a, b))
        assert err < 1e-4

    def test_batched_gradients(self):
        a, b = t64(2, 4, 3), t64(2, 3, 5)
        err = grad_check(lambda x, y: tensor_sum(matmul(x, y)), (a, b))
        assert err < 1e-6

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


class TestConv2d:
    def test_one_by_one_kernel_equals_matmul(self):
        x = t64(2, 3, 4, 5)
        k = t64(6, 3, 1, 1)
        out = conv2d(x, k)
        xm = x.data.transpose(0, 2, 3, 1).reshape(-1, 3)
        km = k.data.reshape(6, 3)
        expect = (xm @ km.T).reshape(2, 4, 5, 6).transpose(0, 3, 1, 2)
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)

    def test_all_ones_kernel_interior(self):
        x = Tensor(np.full((1, 2, 5, 5), 3.0))
        k = Tensor(np.ones((1, 2, 3, 3)))
        out = conv2d(x, k, pad=1)
        assert out.data[0, 0, 2, 2] == 9 * 2 * 3.0

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), ((1, 2), (1, 1))])
    def test_gradients(self, stride, pad):
        x, k = t64(2, 3, 5, 6), t64(4, 3, 3, 3)
        err = grad_check(lambda a, b: tensor_sum(conv2d(a, b, stride, pad)), (x, k))
        assert err < 1e-5

    def test_gradient_squared_output(self):
        x, k = t64(1, 2, 4, 4), t64(2, 2, 3, 3)

        def f(a, b):
            y = conv2d(a, b, 1, 1)
            return tensor_sum(mul(y, y))

        assert grad_check(f, (x, k)) < 1e-4

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 2, 2))))


@pytest.mark.parametrize("op", ["conv2d", "conv_transpose2d"])
@pytest.mark.parametrize(
    "stride,pad",
    [(1.5, 0), (0, 0), ((1, 0), 0), (-1, 1), (1, -1), (1, (0, -1)), (1, 0.5), ("1", 0),
     ((1, 2, 3), 0)],
    ids=["float-stride", "zero-stride", "zero-stride-w", "negative-stride", "negative-pad",
         "negative-pad-w", "float-pad", "str-stride", "triple-stride"],
)
def test_conv_geometry_rejected(op, stride, pad):
    x, k = Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 3, 3)))
    with pytest.raises(ValueError, match="stride|pad"):
        if op == "conv2d":
            conv2d(x, k, stride, pad)
        else:
            conv_transpose2d(x, k, stride, pad, out_hw=(4, 4))


@pytest.mark.parametrize(
    "op,c_in,c_out",
    [("conv2d", 0, 2), ("conv2d", 2, 0), ("conv_transpose2d", 0, 2), ("conv_transpose2d", 2, 0)],
)
def test_conv_without_channels_rejected(op, c_in, c_out):
    x = Tensor(np.ones((1, c_in, 4, 4)))
    with pytest.raises(ValueError, match=f"got {c_in} -> {c_out}"):
        if op == "conv2d":
            conv2d(x, Tensor(np.ones((c_out, c_in, 3, 3))), 1, 1)
        else:
            conv_transpose2d(x, Tensor(np.ones((c_in, c_out, 3, 3))), 1, 1, out_hw=(4, 4))


class TestConvTranspose2d:
    def test_empty_input_grid_gives_zeros(self):
        # a 3x3 kernel at stride 2 reads no full window of a 1-row output
        x = Tensor(np.ones((1, 1, 0, 4)), requires_grad=True)
        k = Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
        with Tape() as tape:
            y = conv_transpose2d(x, k, 2, 0, out_hw=(1, 9))
            loss = tensor_sum(y)
        tape.backward(loss)
        np.testing.assert_array_equal(y.data, np.zeros((1, 1, 1, 9)))
        assert x.grad.shape == x.shape
        np.testing.assert_array_equal(k.grad, np.zeros((1, 1, 3, 3)))

    def test_single_pixel_copies_kernel(self):
        x = Tensor(np.full((1, 1, 1, 1), 2.0))
        k = Tensor(np.arange(4.0).reshape(1, 1, 2, 2))
        out = conv_transpose2d(x, k, stride=2, out_hw=(2, 2))
        np.testing.assert_allclose(out.data[0, 0], 2.0 * k.data[0, 0])

    def test_table_shape_chain(self):
        # Decoder spatial chain 1x72 -> 1x144 -> 2x288 -> 4x576.
        x = Tensor(np.zeros((1, 8, 1, 72), dtype=np.float32))
        k1 = Tensor(np.zeros((8, 8, 3, 3), dtype=np.float32))
        y = conv_transpose2d(x, k1, stride=(1, 2), pad=1, out_hw=(1, 144))
        assert y.shape == (1, 8, 1, 144)
        y = conv_transpose2d(y, k1, stride=(2, 2), pad=1, out_hw=(2, 288))
        assert y.shape == (1, 8, 2, 288)
        y = conv_transpose2d(y, k1, stride=(2, 2), pad=1, out_hw=(4, 576))
        assert y.shape == (1, 8, 4, 576)

    @pytest.mark.parametrize("stride", [1, 2, (1, 2)])
    def test_gradients(self, stride):
        x, k = t64(2, 3, 3, 4), t64(3, 2, 3, 3)
        sh, sw = (stride, stride) if np.isscalar(stride) else stride
        out_hw = (2 * sh + 1, 3 * sw + 1)  # (in - 1)*stride - 2*pad + k, the smallest size
        err = grad_check(
            lambda a, b: tensor_sum(conv_transpose2d(a, b, stride, 1, out_hw=out_hw)), (x, k)
        )
        assert err < 1e-5

    def test_adjoint_identity_with_conv2d(self):
        # <conv(x), y> == <x, conv_T(y)> for the shared kernel.
        for stride, pad in [(1, 0), (2, 1), ((1, 2), 1)]:
            x = t64(2, 3, 6, 8)
            k = t64(4, 3, 3, 3)
            y_shape = conv2d(x, k, stride, pad).shape
            y = t64(*y_shape)
            lhs = float(np.sum(conv2d(x, k, stride, pad).data * y.data))
            back = conv_transpose2d(y, k, stride, pad, out_hw=x.shape[2:])
            rhs = float(np.sum(x.data * back.data))
            assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize(
    "kernel,grid,stride,output_side",
    [((32, 2, 3, 3), 34, 1, False), ((64, 32, 3, 3), 18, 1, False),
     ((64, 32, 3, 3), 34, 2, False), ((2, 32, 3, 3), 34, 1, True)],
    ids=["enc1", "enc2", "up", "head"],
)
def test_refine_step_convs_pick_their_side(kernel, grid, stride, output_side):
    # The bench's four convs at B=16 as conv2d geometries (kernel, padded
    # grid, stride); "up" is conv_transpose2d 64 -> 32 onto 32x32, whose
    # geometry maps the 32-channel 34x34 grid to the 64-channel 16x16 one.
    lw = _Lowering(np.zeros(kernel, np.float32), 16, grid, grid, (stride, stride))
    assert lw.output_side == output_side


def conv_reference(x, k, y, stride, pad):
    """``conv2d(x, k)`` and the gradients of ``<y, conv2d(x, k)>`` with respect
    to ``x`` and ``k``, in float64 by einsum over sliding windows."""
    (sh, sw), (ph, pw) = stride, pad
    kh, kw = k.shape[2:]
    h, w = x.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    ho, wo = win.shape[2:4]
    out = np.einsum("bchwij,ocij->bohw", win, k)
    gk = np.einsum("bohw,bchwij->ocij", y, win)
    gwin = np.einsum("bohw,ocij->bchwij", y, k)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + sh * ho : sh, j : j + sw * wo : sw] += gwin[..., i, j]
    return out, gxp[:, :, ph : ph + h, pw : pw + w], gk


def value_and_grads(op, x, k, y):
    """``op(x, k)`` and the gradients of ``<y, op(x, k)>`` from the tape."""
    xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
    with Tape() as tape:
        out = op(xt, kt)
        loss = tensor_sum(mul(out, Tensor(y)))
    tape.backward(loss)
    return out.data, xt.grad, kt.grad


class TestConvBlocks:
    """Shapes whose columns span several ``_COL_BUDGET`` blocks, or whose one
    sample alone exceeds a block, against the einsum reference, on both sides
    of the lowering rule."""

    # c_out << c_in: lowered on the output side, whose columns span >= 3 blocks
    OUTPUT_SIDE = [
        ((3, 8, 96, 96), 2, (1, 1), (1, 1)),
        ((3, 8, 128, 128), 1, (2, 2), (1, 1)),
    ]
    CASES = [
        # (input shape, c_out, stride, pad)
        ((1, 8, 72, 72), 3, (1, 1), (1, 1)),
        ((4, 16, 32, 32), 4, (1, 1), (1, 1)),
        ((4, 16, 34, 34), 4, (1, 1), (0, 0)),
        ((3, 8, 96, 96), 3, (2, 2), (1, 1)),
        ((3, 8, 96, 96), 3, (1, 2), (0, 0)),
        ((1, 16, 72, 72), 32, (1, 1), (1, 1)),  # input side, one sample over budget
    ] + OUTPUT_SIDE

    @staticmethod
    def lowering(shape, co, stride, pad):
        b, ci, h, w = shape
        return _Lowering(np.zeros((co, ci, 3, 3)), b, h + 2 * pad[0], w + 2 * pad[1], stride)

    @pytest.mark.parametrize("shape,co,stride,pad", OUTPUT_SIDE)
    def test_output_side_columns_span_blocks(self, shape, co, stride, pad):
        lw = self.lowering(shape, co, stride, pad)
        assert lw.output_side and len(lw.blocks) >= 3

    def test_cases_cover_both_sides(self):
        sides = [self.lowering(*case).output_side for case in self.CASES]
        assert True in sides and False in sides

    @staticmethod
    def crosses_blocks(per_sample, b):
        """One sample's columns exceed a block, or the batch spans >= 3 blocks."""
        per_block = max(1, _COL_BUDGET // per_sample)
        return per_sample > _COL_BUDGET or -(-b // per_block) >= 3

    @staticmethod
    def grid(shape, stride, pad):
        """conv2d output grid of a 3x3 kernel over the input ``shape``."""
        return tuple((n + 2 * p - 3) // s + 1 for n, s, p in zip(shape[2:], stride, pad))

    @pytest.mark.parametrize("shape,co,stride,pad", CASES)
    def test_conv2d(self, shape, co, stride, pad):
        b, ci = shape[:2]
        ho, wo = self.grid(shape, stride, pad)
        x, k = RNG.normal(size=shape), RNG.normal(size=(co, ci, 3, 3))
        y = RNG.normal(size=(b, co, ho, wo))
        ref_out, ref_gx, ref_gk = conv_reference(x, k, y, stride, pad)
        assert self.crosses_blocks(ho * wo * ci * 9, b)

        out, gx, gk = value_and_grads(lambda a, c: conv2d(a, c, stride, pad), x, k, y)
        np.testing.assert_allclose(out, ref_out, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(gx, ref_gx, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(gk, ref_gk, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("shape,co,stride,pad", CASES)
    def test_conv_transpose2d(self, shape, co, stride, pad):
        # conv_transpose2d(x, k) maps the conv2d output grid back to ``shape``:
        # it is the input gradient of <x, conv2d(z, k)>, and the gradients of
        # <y, conv_transpose2d(x, k)> are conv2d(y, k) and d<x, conv2d(y, k)>/dk.
        b, cz = shape[:2]
        h, w = self.grid(shape, stride, pad)
        k = RNG.normal(size=(co, cz, 3, 3))
        x, y = RNG.normal(size=(b, co, h, w)), RNG.normal(size=shape)
        ref_gx, ref_out, ref_gk = conv_reference(y, k, x, stride, pad)
        assert self.crosses_blocks(h * w * cz * 9, b)

        out, gx, gk = value_and_grads(
            lambda a, c: conv_transpose2d(a, c, stride, pad, out_hw=shape[2:]), x, k, y
        )
        np.testing.assert_allclose(out, ref_out, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(gx, ref_gx, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(gk, ref_gk, rtol=1e-10, atol=1e-12)

    def test_memory_peak_of_final_layer(self):
        # The refine_step final conv: 32 -> 2 channels on [16, 32, 32, 32],
        # lowered on the output side. Its padded NHWC input (2.4 MB), the
        # input gradient of the same size and 1 MB column blocks stay well
        # below the bound.
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(16, 32, 32, 32)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 32, 3, 3)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = tensor_sum(conv2d(x, k, pad=1))
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape and k.grad.shape == k.shape
        assert peak <= 10e6


class TestPooling:
    def test_constant_input(self):
        x = Tensor(np.full((1, 1, 4, 4), 5.0))
        np.testing.assert_array_equal(max_pool2d(x).data, np.full((1, 1, 2, 2), 5.0))

    def test_block_max(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert max_pool2d(x).data[0, 0, 0, 0] == 4.0

    def test_max_pool_gradient(self):
        x = Tensor(RNG.permutation(16).reshape(1, 1, 4, 4).astype(np.float64))
        assert grad_check(lambda a: tensor_sum(max_pool2d(a)), x) < 1e-6

    def test_tie_break_first_in_scan_order(self):
        x = Tensor(np.full((1, 1, 2, 2), 7.0), requires_grad=True)
        with Tape() as tape:
            out = tensor_sum(max_pool2d(x))
        tape.backward(out)
        np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_odd_dims_match_reference_and_break_ties_in_scan_order(self):
        # Small integers make ties common; row 4 and column 6 are cropped.
        x = RNG.integers(0, 3, size=(2, 3, 5, 7)).astype(np.float64)
        w = RNG.normal(size=(2, 3, 2, 3))
        expect_out = np.zeros_like(w)
        expect_gx = np.zeros_like(x)
        for idx in np.ndindex(w.shape):
            b, c, i, j = idx
            window = x[b, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            di, dj = divmod(int(np.argmax(window)), 2)
            expect_out[idx] = window[di, dj]
            expect_gx[b, c, 2 * i + di, 2 * j + dj] = w[idx]

        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = max_pool2d(xt)
            loss = tensor_sum(mul(out, Tensor(w)))
        tape.backward(loss)
        np.testing.assert_array_equal(out.data, expect_out)
        np.testing.assert_array_equal(xt.grad, expect_gx)
        assert not xt.grad[:, :, 4, :].any() and not xt.grad[:, :, :, 6].any()

    def test_adaptive_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = adaptive_avg_pool(x, (2, 2))
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_adaptive_avg_pool_gradient_uneven(self):
        x = t64(2, 3, 5, 7)
        assert grad_check(lambda a: tensor_sum(mul(adaptive_avg_pool(a, (2, 3)),
                                                   adaptive_avg_pool(a, (2, 3)))), x) < 1e-5

    def test_pool_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            max_pool2d(Tensor(np.ones((1, 1, 1, 4))))


class TestSoftmaxLayerNorm:
    def test_softmax_constant_vector(self):
        out = softmax(Tensor(np.full((5,), 3.0)), axis=-1)
        np.testing.assert_allclose(out.data, 0.2, rtol=1e-6)

    def test_softmax_closed_form(self):
        out = softmax(Tensor([0.0, float(np.log(3.0))]), axis=-1)
        np.testing.assert_allclose(out.data, [0.25, 0.75], rtol=1e-6)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(7, 11)) * 10)
        out = softmax(x, axis=-1)
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("trial", range(10))
    def test_softmax_gradient(self, trial):
        x = t64(3, 6)
        w = Tensor(RNG.normal(size=(3, 6)))  # fixed probe
        err = grad_check(lambda a: tensor_sum(mul(softmax(a, -1), w)), x)
        assert err < 1e-4

    def test_layer_norm_statistics(self):
        x = Tensor(RNG.normal(size=(4, 8)) * 3 + 1)
        g = Tensor(np.ones(8))
        b = Tensor(np.zeros(8))
        out = layer_norm(x, 1, g, b)
        np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.data.std(axis=1), 1.0, atol=1e-3)

    @pytest.mark.parametrize("trial", range(10))
    def test_layer_norm_gradient(self, trial):
        x = t64(2, 5)
        g = t64(5)
        b = t64(5)
        err = grad_check(
            lambda a, gg, bb: tensor_sum(mul(layer_norm(a, 1, gg, bb),
                                             layer_norm(a, 1, gg, bb))),
            (x, g, b),
        )
        assert err < 1e-4

    def test_layer_norm_nchw_axes(self):
        x = t64(2, 3, 4, 5)
        g = t64(3, 1, 1)
        b = t64(3, 1, 1)
        err = grad_check(
            lambda a, gg, bb: tensor_sum(layer_norm(a, (1, 2, 3), gg, bb)), (x, g, b)
        )
        assert err < 1e-4

    def test_softmax_rejects_non_integer_axis(self):
        with pytest.raises(ValueError, match="axis"):
            softmax(t64(2, 3), 1.5)

    def test_layer_norm_rejects_non_integer_axis(self):
        with pytest.raises(ValueError, match="axes"):
            layer_norm(t64(2, 3), 1.5, t64(3), t64(3))
        with pytest.raises(ValueError, match="axes"):
            layer_norm(t64(2, 3), 5, t64(3), t64(3))


class TestShapeOps:
    def test_reshape_permute_concat_gradients(self):
        a, b = t64(2, 3, 4), t64(2, 5, 4)

        def f(x, y):
            xc = concat((x, y), axis=1)           # [2, 8, 4]
            xp = permute(xc, (0, 2, 1))           # [2, 4, 8]
            return tensor_sum(mul(reshape(xp, (8, 8)), reshape(xp, (8, 8))))

        assert grad_check(f, (a, b)) < 1e-5

    def test_concat_rejects_non_integer_axis(self):
        with pytest.raises(ValueError, match="axis"):
            concat((t64(2, 3), t64(2, 3)), 1.5)

    def test_mean_gradient(self):
        x = t64(3, 4)
        assert grad_check(lambda a: mean(mul(a, a)), x) < 1e-6


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(x)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, np.ones((3, 4)), rtol=1e-6)

    def test_squared_norm_gradient(self):
        x = Tensor(RNG.normal(size=(5,)).astype(np.float64), requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(mul(x, x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-6)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((3,)), requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
        with pytest.raises(ValueError):
            tape.backward(y)

    def test_double_backward_rejected(self):
        x = Tensor(np.ones((3,)), requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(x)
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="stale"):
            tape.backward(loss)

    def test_finished_step_leaves_no_garbage_cycles(self):
        def step():
            x = Tensor(RNG.normal(size=(2, 3, 8, 8)), requires_grad=True)
            w = Tensor(RNG.normal(size=(4, 3, 3, 3)), requires_grad=True)
            with Tape() as tape:
                h = relu(conv2d(x, w, stride=1, pad=1))
                loss = mean(mul(h, h))
            tape.backward(loss)
            assert len(tape) > 0 and w.grad is not None

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            step()
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    def test_tapes_in_concurrent_threads_stay_separate(self):
        # Each thread records chains of 20 multiplications, y = x^21, on its
        # own tapes while the interpreter switches threads every microsecond.
        def worker(k):
            for i in range(300):
                x = Tensor(np.full(3, 1.0 + 0.001 * (k + i % 7)), requires_grad=True)
                with Tape() as tape:
                    y = x
                    for _ in range(20):
                        y = mul(y, x)
                    loss = tensor_sum(y)
                tape.backward(loss)
                np.testing.assert_allclose(x.grad, 21 * x.data**20, rtol=1e-12)
                assert len(tape) == 21

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for done in [pool.submit(worker, k) for k in range(4)]:
                    done.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)

    def test_second_tape_in_a_thread_raises(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
            with pytest.raises(RuntimeError, match="already open"):
                with Tape():
                    pass
            with pytest.raises(RuntimeError, match="not the one open"):
                Tape().__exit__(None, None, None)
            loss = tensor_sum(y)
        tape.backward(loss)
        assert len(tape) == 2
        np.testing.assert_array_equal(x.grad, [4.0, 6.0])
        x.grad = None
        with Tape() as again:
            loss = tensor_sum(scale(x, 3.0))
        again.backward(loss)
        assert len(again) == 2
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_scale_gradient(self):
        x = Tensor(np.ones((2,)), requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(scale(x, 3.0))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [3.0, 3.0])

    def test_gradient_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(add(mul(x, x), x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [5.0])

    @pytest.mark.parametrize(
        "join", [add, lambda a, b: add(reshape(a, (3,)), b)], ids=["add", "reshape-add"]
    )
    def test_leaf_gradients_do_not_share_memory(self, join):
        # add hands its incoming gradient to both parents, reshape a view of it
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(join(a, b))
        tape.backward(loss)
        assert not np.shares_memory(a.grad, b.grad)
        a.grad *= 2
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0, 1.0])

    def test_raw_partial_is_summed_to_the_leaf_shape(self):
        # An op whose backward returns its partial at the output's shape, with
        # an extra leading axis and the leaf's size-1 axis broadcast.
        from mbce.autodiff.engine import _record

        def spread(a):
            out = np.broadcast_to(a.data, (2, 3, 4)).copy()

            def bwd(g, needs):
                return (g,)

            return _record(out, (a,), bwd)

        x = Tensor(RNG.normal(size=(3, 1)), requires_grad=True)
        w = t64(2, 3, 4)
        with Tape() as tape:
            loss = tensor_sum(mul(spread(x), w))
        tape.backward(loss)
        assert x.grad.shape == (3, 1)
        np.testing.assert_allclose(x.grad, w.data.sum(axis=(0, 2))[:, None], rtol=1e-12)

    def test_determinism_bit_identical_forward(self):
        rng1 = np.random.default_rng(33)
        rng2 = np.random.default_rng(33)
        a1 = Tensor(rng1.normal(size=(16, 16)).astype(np.float32))
        a2 = Tensor(rng2.normal(size=(16, 16)).astype(np.float32))
        o1 = softmax(matmul(a1, a1), -1)
        o2 = softmax(matmul(a2, a2), -1)
        assert o1.data.tobytes() == o2.data.tobytes()


class TestNumericFault:
    def test_overflow_trips_fault(self):
        x = Tensor(np.array([1e30], dtype=np.float32))
        with pytest.raises(NumericFault), pytest.warns(RuntimeWarning, match="overflow"):
            mul(mul(x, x), x)

    def test_non_finite_leaf_gradient_trips_fault(self):
        # a finite forward whose gradient, 3e38 * 1e-30 * 3e38, overflows float32
        x = Tensor(np.array([1e-30], dtype=np.float32), requires_grad=True)
        big, small = Tensor(np.float32(3e38)), Tensor(np.float32(1e-30))
        with Tape() as tape:
            loss = tensor_sum(mul(mul(mul(x, big), small), big))
        with pytest.raises(NumericFault), pytest.warns(RuntimeWarning, match="overflow"):
            tape.backward(loss)

    def test_constructor_rejects_nan(self):
        with pytest.raises(NumericFault):
            Tensor(np.array([np.nan]))


class TestTensor:
    @pytest.mark.parametrize(
        "data,dtype",
        [(np.ones(2, np.float64), np.float64), (np.ones(2, np.float32), np.float32),
         ([1.0, 2.0], np.float64), (np.arange(2), np.float32), ([True], np.float32)],
        ids=["float64", "float32", "list", "int", "bool"],
    )
    def test_storage_dtype(self, data, dtype):
        assert Tensor(data).dtype == dtype

    @pytest.mark.parametrize(
        "make, match",
        [(lambda: Tensor([1 + 2j]), "tensor data"),
         (lambda: Tensor(["a"]), "tensor data"),
         (lambda: mean(Tensor(np.ones(0))), "empty tensor"),
         (lambda: scale(Tensor(np.ones(2)), "2"), "scale factor"),
         (lambda: scale(Tensor(np.ones(2)), np.nan), "scale factor")],
        ids=["complex", "text", "empty-mean", "text-scale", "nan-scale"],
    )
    def test_malformed_input_raises_value_error(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()


class TestGradCheck:
    def test_sum_is_exact(self):
        x = t64(4, 4)
        assert grad_check(lambda a: tensor_sum(a), x) < 1e-10

    def test_squared_norm_tight(self):
        x = t64(6)
        assert grad_check(lambda a: tensor_sum(mul(a, a)), x) < 1e-7

    def test_detects_wrong_gradient(self):
        # Negative control: an op with a deliberately wrong backward rule.
        from mbce.autodiff.engine import _record

        def bad_square(a):
            out = a.data**2

            def bwd(g, needs):
                return (g * 1.234,)  # wrong: should be 2*a*g

            return _record(out, (a,), bwd)

        x = t64(5, margin=0.5)
        assert grad_check(lambda a: tensor_sum(bad_square(a)), x) > 1e-1


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = {
            "enc/w": Tensor(RNG.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True),
            "enc/b": Tensor(np.zeros(4, dtype=np.float32), requires_grad=True),
            "norm/scale": Tensor(np.array([1.5], dtype=np.float32)),
        }
        path = tmp_path / "model.mbwt"
        save_params(params, path)
        loaded = load_params(path)
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name].data, params[name].data)

    def test_save_is_deterministic(self, tmp_path):
        params = {"b": Tensor(np.ones(3)), "a": Tensor(np.zeros((2, 2)))}
        p1, p2 = tmp_path / "a.mbwt", tmp_path / "b.mbwt"
        save_params(params, p1)
        save_params(dict(reversed(params.items())), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        # garbage, an empty file and a plain .npy file are no zip archive
        p = tmp_path / "x.mbwt"
        for raw in (b"NOPE" + b"\x00" * 8, b"", npy_bytes(np.ones(3, np.float32))):
            p.write_bytes(raw)
            with pytest.raises(ValueError, match="malformed checkpoint"):
                load_params(p)

    def test_truncated_file_raises_value_error(self, tmp_path):
        params = {"w": Tensor(np.arange(6.0).reshape(2, 3)), "b": Tensor(np.ones(2))}
        path = tmp_path / "full.mbwt"
        save_params(params, path)
        raw = path.read_bytes()
        for cut in range(len(raw)):
            p = tmp_path / f"cut{cut}.mbwt"
            p.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="malformed checkpoint"):
                load_params(p)

    def test_values_beyond_float32_rejected_and_nothing_written(self, tmp_path):
        path = tmp_path / "big.mbwt"
        params = {"a": Tensor(np.ones(2)), "b": Tensor(np.array([1.0, -1e39]))}
        with pytest.raises(ValueError, match="float32"):
            save_params(params, path)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_tensor_made_non_finite_after_construction_is_not_saved(self, tmp_path, bad):
        path = tmp_path / "bad.mbwt"
        params = {"a": Tensor(np.ones(2)), "w": Tensor(np.zeros((2, 3), np.float32))}
        params["w"].data[1, 2] = bad
        with pytest.raises(ValueError, match=r"parameter 'w'\[1, 2\]=.* is not finite"):
            save_params(params, path)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_raises_value_error(self, tmp_path, bad):
        path = tmp_path / "bad.mbwt"
        path.write_bytes(npz_bytes(("w.npy", np.array([0.0, 0.0, bad], np.float32))))
        with pytest.raises(ValueError, match=r"parameter 'w'\[2\]=.* is not finite"):
            load_params(path)

    def test_repeated_name_raises_value_error(self, tmp_path):
        path = tmp_path / "twice.mbwt"
        path.write_bytes(npz_bytes(*[("w.npy", ONE32)] * 2))
        with pytest.raises(ValueError, match="'w.npy' is not a new"):
            load_params(path)

    @pytest.mark.parametrize(
        "raw",
        [
            pytest.param(npz_bytes(("w.npy", np.array([1.0]))), id="float64"),
            pytest.param(npz_bytes(("w.npy", np.array([None], object))), id="object"),
            pytest.param(npz_bytes(("w", ONE32)), id="not-npy"),
            pytest.param(npz_bytes(("w.npy", ONE32)) + b"\0", id="trailing-byte"),
            pytest.param(npz_bytes(("w.npy", ONE32), compress_type=zipfile.ZIP_DEFLATED),
                         id="deflated"),
            pytest.param(npz_bytes(("w.npy", ONE32), flag_bits=1), id="encrypted"),
            pytest.param(npz_bytes(("w.npy", ONE32), flag_bits=0x40), id="strong-encryption"),
            pytest.param(npz_bytes(("w.npy", b"\0" * 64)), id="not-an-array"),
            pytest.param(npz_bytes(("w.npy", npy_bytes(ONE32) + b"\0")), id="bytes-after-array"),
            pytest.param(npz_bytes(("w.npy", npy_with_header("{'descr': '<f4', 'shape': (1, "))),
                         id="unclosed-header"),
            pytest.param(npz_bytes(("w.npy", npy_with_header(
                "{b'x': 0, 'descr': '<f4', 'fortran_order': False, 'shape': (1,)}"))),
                id="mixed-keys"),
            pytest.param(npz_bytes(("w.npy", npy_with_header(
                "{'descr': '<f8', 'fortran_order': False, 'shape': (1000000000000000,)}"))),
                id="huge-shape"),
        ],
    )
    def test_malformed_archive_raises_value_error(self, tmp_path, raw):
        path = tmp_path / "bad.mbwt"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="checkpoint|float32"):
            load_params(path)

    def test_file_is_an_npz_at_exactly_the_path(self, tmp_path):
        params = {"w": Tensor(RNG.normal(size=(2, 3)).astype(np.float32)), "b": Tensor(np.ones(2))}
        path = tmp_path / "model.bin"
        save_params(params, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
        with zipfile.ZipFile(path) as zf:  # no clock time, so saves repeat byte for byte
            assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}
        with np.load(path) as npz:
            assert npz.files == ["b", "w"]
            assert all(npz[k].dtype == np.float32 for k in npz.files)
            np.testing.assert_array_equal(npz["w"], params["w"].data)

    @pytest.mark.parametrize(
        "params",
        [{1: Tensor(np.ones(2))}, {"w": np.ones(2)}, {"w": [1.0, 2.0]},
         {"a\0b": Tensor(np.ones(2))}, {"n" * 65_532: Tensor(np.ones(2))},
         {"\u00fc" * 32_766: Tensor(np.ones(2))}, [Tensor(np.ones(2))]],
        ids=["int-name", "ndarray-value", "list-value", "nul-in-name", "long-name",
             "long-utf8-name", "list-params"],
    )
    def test_unsavable_params_raise_value_error_and_write_nothing(self, tmp_path, params):
        path = tmp_path / "bad.mbwt"
        with pytest.raises(ValueError, match="params maps|NUL or is too long"):
            save_params(params, path)
        assert not path.exists()

    def test_longest_name_a_zip_entry_holds_round_trips(self, tmp_path):
        # 65,531 utf-8 bytes plus ".npy" fill the zip format's 16-bit name length
        path = tmp_path / "long.mbwt"
        for name in ("n" * 65_531, "\u00fc" * 32_765 + "n"):
            save_params({name: Tensor(np.ones(2))}, path)
            assert list(load_params(path)) == [name]
