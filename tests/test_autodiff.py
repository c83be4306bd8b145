import gc
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mbce.autodiff import (
    NumericFault,
    Tape,
    Tensor,
    adaptive_avg_pool,
    add,
    backward,
    concat,
    conv2d,
    conv_transpose2d,
    grad_check,
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
    tensor_sum,
)

RNG = np.random.default_rng(2024)


def t64(*shape, margin=0.0):
    """Random float64 tensor; margin pushes values away from zero."""
    data = RNG.normal(size=shape)
    if margin:
        data = data + margin * np.sign(data)
    return Tensor(data, dtype=np.float64)


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


class TestConvTranspose2d:
    def test_single_pixel_copies_kernel(self):
        x = Tensor(np.full((1, 1, 1, 1), 2.0))
        k = Tensor(np.arange(4.0).reshape(1, 1, 2, 2))
        out = conv_transpose2d(x, k, stride=2)
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
        err = grad_check(
            lambda a, b: tensor_sum(conv_transpose2d(a, b, stride, 1)), (x, k)
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
        x = Tensor(np.full((1, 1, 2, 2), 7.0), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            out = tensor_sum(max_pool2d(x))
        tape.backward(out)
        np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

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
        w = Tensor(RNG.normal(size=(3, 6)), dtype=np.float64)  # fixed probe
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


class TestShapeOps:
    def test_reshape_permute_concat_gradients(self):
        a, b = t64(2, 3, 4), t64(2, 5, 4)

        def f(x, y):
            xc = concat((x, y), axis=1)           # [2, 8, 4]
            xp = permute(xc, (0, 2, 1))           # [2, 4, 8]
            return tensor_sum(mul(reshape(xp, (8, 8)), reshape(xp, (8, 8))))

        assert grad_check(f, (a, b)) < 1e-5

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

    def test_out_of_order_exit_raises(self):
        outer, inner = Tape(), Tape()
        with outer:
            inner.__enter__()
            with pytest.raises(RuntimeError, match="tape stack corrupted"):
                outer.__exit__(None, None, None)
            inner.__exit__(None, None, None)

    def test_backward_free_function(self):
        x = Tensor(np.ones((2,)), requires_grad=True)
        with Tape():
            loss = tensor_sum(scale(x, 3.0))
        backward(loss)
        np.testing.assert_allclose(x.grad, [3.0, 3.0])

    def test_gradient_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            loss = tensor_sum(add(mul(x, x), x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [5.0])

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
        with pytest.raises(NumericFault):
            mul(mul(x, x), x)

    def test_constructor_rejects_nan(self):
        with pytest.raises(NumericFault):
            Tensor(np.array([np.nan]))


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
        p = tmp_path / "x.mbwt"
        p.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(ValueError, match="magic"):
            load_params(p)

    def test_truncated_file_raises_value_error(self, tmp_path):
        params = {"w": Tensor(np.arange(6.0).reshape(2, 3)), "b": Tensor(np.ones(2))}
        path = tmp_path / "full.mbwt"
        save_params(params, path)
        raw = path.read_bytes()
        # cuts in the header, then in the first record's name length, name,
        # rank, dims and data, then in the second record's name and data
        for cut in (0, 7, 12, 13, 14, 15, 19, 24, 30, len(raw) - 1):
            p = tmp_path / f"cut{cut}.mbwt"
            p.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="truncated"):
                load_params(p)
