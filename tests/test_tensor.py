"""Autodiff engine tests.

Every differentiable primitive is checked against central finite differences
in float64 (the oracle), and forward values are checked against independent
references: scipy.signal.correlate2d for convolution, blockwise python loops
for pooling, and closed-form expressions elsewhere.
"""

import numpy as np
import pytest
from scipy.signal import convolve2d, correlate2d

import palmvein.tensor as T
from palmvein import (
    ContractError,
    DegenerateVectorError,
    DimensionError,
    ParamSet,
    Tensor,
    adaptive_avg_pool2d,
    backward,
    clamp01,
    concat_channels,
    conv2d,
    l2_normalize,
    linear,
    maxpool2,
    mse_loss,
    no_grad,
    relu,
    upsample2_nearest,
)
from conftest import max_rel_err, numeric_grad

F64 = np.float64
GRAD_TOL = 1e-4
FE_KERNELS = [(9, 3), (3, 9), (7, 3), (3, 7), (5, 3), (3, 5)]


def t64(arr, grad=True):
    return Tensor(arr, requires_grad=grad, dtype=F64)


def fd_assert(loss_fn, tensors, tol=GRAD_TOL):
    """Backprop loss_fn once, then compare each tensor's grad to the FD oracle."""
    for t in tensors:
        t.grad = None
    backward(loss_fn())
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numeric_grad(lambda: loss_fn().item(), t.data)
        assert max_rel_err(analytic, numeric) < tol


class TestConv2d:
    def test_matches_scipy_valid(self, rng):
        x = rng.normal(size=(2, 3, 9, 8))
        w = rng.normal(size=(4, 3, 3, 5))
        b = rng.normal(size=4)
        out = conv2d(t64(x, False), t64(w, False), t64(b, False), "valid").data
        assert out.shape == (2, 4, 7, 4)
        for n in range(2):
            for o in range(4):
                ref = sum(correlate2d(x[n, c], w[o, c], mode="valid") for c in range(3))
                np.testing.assert_allclose(out[n, o], ref + b[o], atol=1e-12)

    def test_matches_scipy_same(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        out = conv2d(t64(x, False), t64(w, False), t64(np.zeros(3), False), "same").data
        assert out.shape == (1, 3, 6, 6)
        for o in range(3):
            ref = sum(correlate2d(x[0, c], w[o, c], mode="same") for c in range(2))
            np.testing.assert_allclose(out[0, o], ref, atol=1e-12)

    def test_same_preserves_spatial_for_rect_kernels(self, rng):
        for kh, kw in [(9, 3), (3, 9), (7, 3), (5, 3), (1, 1)]:
            x = t64(rng.normal(size=(1, 1, 16, 16)), False)
            w = t64(rng.normal(size=(2, 1, kh, kw)), False)
            out = conv2d(x, w, t64(np.zeros(2), False), "same")
            assert out.shape == (1, 2, 16, 16), (kh, kw)

    @pytest.mark.parametrize("kh,kw", FE_KERNELS + [(1, 1)])
    def test_matches_scipy_same_every_kernel_shape(self, rng, kh, kw):
        # non-square input, so a row-length or wrap-around mix-up changes
        # values; ci=1 is the one-deep contraction of the CED's first layer
        for ci in (2, 1):
            x = rng.normal(size=(3, ci, 11, 8))
            w = rng.normal(size=(4, ci, kh, kw))
            b = rng.normal(size=4)
            out = conv2d(t64(x, False), t64(w, False), t64(b, False), "same").data
            assert out.shape == (3, 4, 11, 8)
            for n in range(3):
                for o in range(4):
                    ref = sum(correlate2d(x[n, c], w[o, c], mode="same") for c in range(ci))
                    np.testing.assert_allclose(out[n, o], ref + b[o], atol=1e-12)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("kh,kw", [(3, 3), (3, 5), (1, 1)])
    def test_one_output_channel_input_grad_matches_scipy(self, rng, kh, kw, padding):
        # the input gradient of a one-output conv (the CED head) contracts
        # over that one channel
        x = t64(rng.normal(size=(2, 3, 9, 7)))
        w = rng.normal(size=(1, 3, kh, kw))
        out = conv2d(x, t64(w, False), t64(np.zeros(1), False), padding)
        g = rng.normal(size=out.shape)
        backward((out * t64(g, False)).sum())
        for n in range(2):
            for c in range(3):
                ref = convolve2d(g[n, 0], w[0, c], mode="same" if padding == "same" else "full")
                np.testing.assert_allclose(x.grad[n, c], ref, atol=1e-12)

    @pytest.mark.parametrize("kh,kw", [(9, 3), (3, 7)])
    def test_gradients_same_rect(self, rng, kh, kw):
        x = t64(rng.normal(size=(2, 2, 11, 8)))
        w = t64(rng.normal(size=(2, 2, kh, kw)) * 0.3)
        b = t64(rng.normal(size=2))
        tgt = t64(rng.normal(size=(2, 2, 11, 8)), False)
        fd_assert(lambda: mse_loss(conv2d(x, w, b, "same"), tgt), [x, w, b])

    def test_batch_equals_images_alone(self, rng):
        x = rng.normal(size=(3, 3, 10, 7)).astype(np.float32)
        w = Tensor(rng.normal(size=(5, 3, 7, 3)).astype(np.float32))
        b = Tensor(rng.normal(size=5).astype(np.float32))
        g = rng.normal(size=(3, 5, 10, 7)).astype(np.float32)
        xb = Tensor(x, requires_grad=True)
        out = conv2d(xb, w, b, "same")
        backward((out * Tensor(g)).sum())
        for n in range(3):
            xn = Tensor(x[n:n + 1], requires_grad=True)
            outn = conv2d(xn, w, b, "same")
            backward((outn * Tensor(g[n:n + 1])).sum())
            np.testing.assert_array_equal(out.data[n:n + 1], outn.data)
            np.testing.assert_array_equal(xb.grad[n:n + 1], xn.grad)

    def test_gradients(self, rng):
        x = t64(rng.normal(size=(2, 2, 6, 5)))
        w = t64(rng.normal(size=(3, 2, 3, 3)) * 0.5)
        b = t64(rng.normal(size=3))
        tgt = t64(rng.normal(size=(2, 3, 6, 5)), False)
        fd_assert(lambda: mse_loss(conv2d(x, w, b, "same"), tgt), [x, w, b])

    def test_gradients_valid_rect(self, rng):
        x = t64(rng.normal(size=(1, 2, 9, 7)))
        w = t64(rng.normal(size=(2, 2, 5, 3)) * 0.5)
        b = t64(rng.normal(size=2))
        tgt = t64(rng.normal(size=(1, 2, 5, 5)), False)
        fd_assert(lambda: mse_loss(conv2d(x, w, b, "valid"), tgt), [x, w, b])

    def test_channel_mismatch_raises(self, rng):
        x = t64(rng.normal(size=(1, 3, 5, 5)), False)
        w = t64(rng.normal(size=(2, 4, 3, 3)), False)
        with pytest.raises(DimensionError, match="channel"):
            conv2d(x, w, t64(np.zeros(2), False))

    def test_kernel_larger_than_input_raises(self, rng):
        x = t64(rng.normal(size=(1, 1, 4, 4)), False)
        w = t64(rng.normal(size=(1, 1, 5, 5)), False)
        with pytest.raises(DimensionError, match="spatial"):
            conv2d(x, w, t64(np.zeros(1), False), "valid")

    def test_bad_bias_shape_raises(self, rng):
        x = t64(rng.normal(size=(1, 1, 4, 4)), False)
        w = t64(rng.normal(size=(2, 1, 3, 3)), False)
        with pytest.raises(DimensionError, match="bias"):
            conv2d(x, w, t64(np.zeros(3), False))


class TestPoolingAndUpsample:
    def test_maxpool_matches_block_loop(self, rng):
        x = rng.normal(size=(2, 3, 8, 6))
        out = maxpool2(t64(x, False)).data
        for n in range(2):
            for c in range(3):
                for i in range(4):
                    for j in range(3):
                        assert out[n, c, i, j] == x[n, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()

    def test_maxpool_odd_dims_dropped(self, rng):
        x = rng.normal(size=(1, 1, 5, 7))
        out = maxpool2(t64(x, False)).data
        assert out.shape == (1, 1, 2, 3)
        ref = maxpool2(t64(x[:, :, :4, :6], False)).data
        np.testing.assert_array_equal(out, ref)

    def test_maxpool_tie_goes_to_first_rowmajor(self):
        x = np.array([[[[5.0, 5.0], [3.0, 5.0]]]])
        xt = t64(x)
        backward(maxpool2(xt).sum())
        np.testing.assert_array_equal(xt.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_maxpool_nan_goes_to_first_nan(self):
        # a block holding NaN outputs NaN, and its gradient goes to the first
        # NaN in row-major order, not to the larger number after it
        x = np.array([[[[1.0, np.nan], [np.nan, 5.0]]]])
        xt = t64(x)
        out = maxpool2(xt)
        assert np.isnan(out.data).all()
        backward((out * t64(np.full((1, 1, 1, 1), 3.0), False)).sum())
        np.testing.assert_array_equal(xt.grad, [[[[0.0, 3.0], [0.0, 0.0]]]])

    def test_maxpool_gradients(self, rng):
        # Distinct values so the argmax is stable under the FD perturbation.
        vals = rng.permutation(np.arange(2 * 2 * 4 * 4, dtype=F64)).reshape(2, 2, 4, 4)
        x = t64(vals)
        tgt = t64(rng.normal(size=(2, 2, 2, 2)), False)
        fd_assert(lambda: mse_loss(maxpool2(x), tgt), [x])

    def test_upsample_values(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = upsample2_nearest(t64(x, False)).data
        expect = np.array([[[[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]]], dtype=F64)
        np.testing.assert_array_equal(out, expect)

    def test_upsample_gradients(self, rng):
        x = t64(rng.normal(size=(1, 2, 3, 3)))
        tgt = t64(rng.normal(size=(1, 2, 6, 6)), False)
        fd_assert(lambda: mse_loss(upsample2_nearest(x), tgt), [x])

    def test_maxpool_of_upsample_is_identity(self, rng):
        x = rng.normal(size=(2, 3, 5, 4))
        out = maxpool2(upsample2_nearest(t64(x, False))).data
        np.testing.assert_array_equal(out, x)

    def test_adaptive_pool_global_is_mean(self, rng):
        x = rng.normal(size=(2, 3, 7, 5))
        out = adaptive_avg_pool2d(t64(x, False), 1).data
        np.testing.assert_allclose(out[..., 0, 0], x.mean(axis=(2, 3)), atol=1e-12)

    def test_adaptive_pool_identity_when_grid_matches(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        out = adaptive_avg_pool2d(t64(x, False), 4).data
        np.testing.assert_array_equal(out, x)

    def test_adaptive_pool_regions(self, rng):
        # floor/ceil region convention, 5 -> 2: rows [0,3) and [2,5)
        x = rng.normal(size=(1, 1, 5, 5))
        out = adaptive_avg_pool2d(t64(x, False), 2).data
        np.testing.assert_allclose(out[0, 0, 0, 0], x[0, 0, 0:3, 0:3].mean(), atol=1e-12)
        np.testing.assert_allclose(out[0, 0, 1, 1], x[0, 0, 2:5, 2:5].mean(), atol=1e-12)

    def test_adaptive_pool_gradients(self, rng):
        x = t64(rng.normal(size=(1, 2, 5, 7)))
        tgt = t64(rng.normal(size=(1, 2, 3, 3)), False)
        fd_assert(lambda: mse_loss(adaptive_avg_pool2d(x, 3), tgt), [x])

    def test_adaptive_pool_grid_too_large_raises(self, rng):
        with pytest.raises(DimensionError):
            adaptive_avg_pool2d(t64(rng.normal(size=(1, 1, 3, 3)), False), 4)


class TestFourDOnly:
    def test_unbatched_input_raises(self, rng):
        x = t64(rng.normal(size=(2, 4, 4)), False)
        w = t64(rng.normal(size=(1, 2, 3, 3)), False)
        calls = [lambda: conv2d(x, w, t64(np.zeros(1), False)),
                 lambda: maxpool2(x),
                 lambda: upsample2_nearest(x),
                 lambda: adaptive_avg_pool2d(x, 2),
                 lambda: concat_channels(x, x)]
        for call in calls:
            with pytest.raises(DimensionError, match=r"\[N,C,H,W\]"):
                call()


class TestPointwiseOps:
    def test_relu_values_and_grad_at_zero(self):
        x = t64(np.array([-1.0, 0.0, 2.0]))
        out = relu(x)
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
        backward(out.sum())
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_relu_gradients(self, rng):
        x = t64(rng.normal(size=(4, 5)) + 0.05)
        fd_assert(lambda: (relu(x) * relu(x)).mean(), [x])

    def test_clamp01_values_and_boundary_grad(self):
        x = t64(np.array([-0.5, 0.0, 0.5, 1.0, 1.5]))
        out = clamp01(x)
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.5, 1.0, 1.0])
        backward(out.sum())
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0, 1.0, 0.0])

    def test_clamp01_gradients(self, rng):
        x = t64(rng.uniform(0.1, 0.9, size=(3, 3)))
        tgt = t64(np.full((3, 3), 0.4), False)
        fd_assert(lambda: mse_loss(clamp01(x), tgt), [x])

    def test_mse_matches_closed_form(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        out = mse_loss(t64(a, False), t64(b, False)).item()
        assert out == pytest.approx(((a - b) ** 2).mean(), rel=1e-12)

    def test_mse_shape_mismatch_raises(self, rng):
        with pytest.raises(DimensionError):
            mse_loss(t64(rng.normal(size=(2, 3)), False), t64(rng.normal(size=(3, 2)), False))

    def test_mse_gradients_both_sides(self, rng):
        a = t64(rng.normal(size=(2, 3)))
        b = t64(rng.normal(size=(2, 3)))
        fd_assert(lambda: mse_loss(a, b), [a, b])


class TestL2Normalize:
    def test_unit_norm_rows(self, rng):
        x = rng.normal(size=(5, 8))
        out = l2_normalize(t64(x, False)).data
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(out, x / np.linalg.norm(x, axis=1, keepdims=True), atol=1e-12)

    def test_single_vector(self, rng):
        x = rng.normal(size=6)
        out = l2_normalize(t64(x, False)).data
        np.testing.assert_allclose(out, x / np.linalg.norm(x), atol=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateVectorError):
            l2_normalize(t64(np.zeros(4), False))
        with pytest.raises(DegenerateVectorError):
            l2_normalize(t64(np.array([[1.0, 0.0], [0.0, 0.0]]), False))

    def test_gradients(self, rng):
        x = t64(rng.normal(size=(3, 6)))
        tgt = t64(rng.normal(size=(3, 6)), False)
        fd_assert(lambda: mse_loss(l2_normalize(x), tgt), [x])

    def test_gradient_orthogonal_to_output(self, rng):
        # d||y||=1 constraint: backprop grad must be tangent to the sphere
        x = t64(rng.normal(size=8))
        g_up = rng.normal(size=8)
        out = l2_normalize(x)
        backward((out * t64(g_up, False)).sum())
        assert abs(np.dot(x.grad, x.data / np.linalg.norm(x.data))) < 1e-10


class TestLinearAndShape:
    def test_linear_matches_matmul(self, rng):
        x, w, b = rng.normal(size=(4, 6)), rng.normal(size=(3, 6)), rng.normal(size=3)
        out = linear(t64(x, False), t64(w, False), t64(b, False)).data
        np.testing.assert_allclose(out, x @ w.T + b, atol=1e-12)

    def test_linear_unbatched(self, rng):
        x, w, b = rng.normal(size=6), rng.normal(size=(3, 6)), rng.normal(size=3)
        out = linear(t64(x, False), t64(w, False), t64(b, False)).data
        assert out.shape == (3,)
        np.testing.assert_allclose(out, w @ x + b, atol=1e-12)

    def test_linear_gradients(self, rng):
        x = t64(rng.normal(size=(3, 5)))
        w = t64(rng.normal(size=(4, 5)))
        b = t64(rng.normal(size=4))
        tgt = t64(rng.normal(size=(3, 4)), False)
        fd_assert(lambda: mse_loss(linear(x, w, b), tgt), [x, w, b])

    def test_linear_feature_mismatch_raises(self, rng):
        with pytest.raises(DimensionError):
            linear(t64(rng.normal(size=(2, 5)), False),
                   t64(rng.normal(size=(3, 6)), False), t64(np.zeros(3), False))

    def test_concat_order_and_split_grad(self, rng):
        a = t64(rng.normal(size=(1, 2, 3, 3)))
        b = t64(rng.normal(size=(1, 3, 3, 3)))
        out = concat_channels(a, b)
        assert out.shape == (1, 5, 3, 3)
        np.testing.assert_array_equal(out.data[:, :2], a.data)
        np.testing.assert_array_equal(out.data[:, 2:], b.data)
        tgt = t64(rng.normal(size=(1, 5, 3, 3)), False)
        fd_assert(lambda: mse_loss(concat_channels(a, b), tgt), [a, b])

    def test_concat_spatial_mismatch_raises(self, rng):
        with pytest.raises(DimensionError, match="spatial"):
            concat_channels(t64(rng.normal(size=(1, 1, 4, 4)), False),
                            t64(rng.normal(size=(1, 1, 5, 4)), False))

    def test_reshape_and_sum_gradients(self, rng):
        x = t64(rng.normal(size=(2, 3, 4)))
        y = t64(rng.normal(size=(6, 4)), False)
        fd_assert(lambda: (x.reshape(6, 4) * y).sum() * 0.1, [x])
        fd_assert(lambda: (x.sum(axis=1) * x.sum(axis=1)).mean(), [x])

    def test_flatten_from(self, rng):
        x = t64(rng.normal(size=(2, 3, 4, 4)), False)
        assert x.flatten_from(1).shape == (2, 48)


class TestArithmeticAndGraph:
    def test_mixed_expression_gradients(self, rng):
        x = t64(rng.normal(size=(3, 3)))
        y = t64(rng.normal(size=(3, 3)))
        fd_assert(lambda: ((x * y - 2.0 * x + 0.5) * (x + y) - (1.0 - y)).mean(), [x, y])

    def test_scalar_tensor_broadcast_gradients(self, rng):
        x = t64(rng.normal(size=(2, 4)))
        s = t64(np.array(0.7))
        fd_assert(lambda: ((x * s + s) * (x - s)).mean(), [x, s])

    def test_grad_accumulates_across_reuse(self, rng):
        x = t64(np.array([1.0, 2.0]))
        backward((x + x).sum())
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_diamond_graph(self, rng):
        x = t64(np.array(3.0))
        a = x * 2.0
        b = x * 5.0
        backward(a + b)
        assert x.grad == pytest.approx(7.0)

    def test_detach_blocks_gradient(self, rng):
        # a constant rebuilt from another tensor's data, as batched inference
        # feeds one network's output to the next, is cut off from the graph
        x = t64(rng.normal(size=4))
        backward((Tensor(x.data) * x).sum())
        np.testing.assert_allclose(x.grad, x.data)

    def test_no_grad_into_frozen_tensor(self, rng):
        x = t64(rng.normal(size=4), grad=False)
        y = t64(rng.normal(size=4))
        backward((x * y).sum())
        assert x.grad is None
        np.testing.assert_allclose(y.grad, x.data)

    def test_backward_requires_scalar(self, rng):
        x = t64(rng.normal(size=(2, 2)))
        with pytest.raises(ContractError):
            backward(x * 2.0)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(DimensionError):
            t64(rng.normal(size=(2, 3)), False) + t64(rng.normal(size=(3, 2)), False)

    def test_float32_production_dtype_preserved(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        out = relu(conv2d(x, w, b, "same"))
        assert out.dtype == np.float32
        backward(out.mean())
        assert x.grad.dtype == np.float32 and w.grad.dtype == np.float32

    def test_item_requires_single_element(self, rng):
        with pytest.raises(ContractError):
            t64(rng.normal(size=3), False).item()


class TestNoGradAndConsumedGraph:
    def chain(self, x, w, b):
        return l2_normalize(relu(conv2d(x, w, b, "same")).flatten_from(1) * 2.0 + 0.5)

    def test_no_grad_output_bit_equal_and_detached(self, rng):
        x, w, b = (t64(rng.normal(size=s)) for s in ((2, 3, 6, 5), (4, 3, 3, 3), (4,)))
        graph = self.chain(x, w, b)
        with no_grad():
            free = self.chain(x, w, b)
        np.testing.assert_array_equal(free.data, graph.data)
        assert graph._parents and graph.requires_grad
        assert free._parents == () and free._backward_fn is None and not free.requires_grad
        backward(free.sum())  # nothing to do
        assert x.grad is None and w.grad is None

    def test_flag_restored_after_exception_and_nesting(self, rng):
        x = t64(rng.normal(size=3))
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        assert (x * x).requires_grad
        with no_grad():
            with no_grad():
                assert not (x * x).requires_grad
            assert not (x * x).requires_grad
        assert (x * x).requires_grad

    def test_backward_frees_interior_grads_and_keeps_leaf_grads(self, rng):
        x = t64(rng.normal(size=4))
        y = x * 2.0
        z = y * y
        loss = z.sum()
        backward(loss)
        assert y.grad is None and z.grad is None and loss.grad is None
        assert y._parents == () and z._parents == ()
        np.testing.assert_allclose(x.grad, 8.0 * x.data)

    def test_second_backward_through_consumed_graph_raises(self, rng):
        x = t64(rng.normal(size=4))
        y = x * 2.0
        loss = (y * y).sum()
        backward(loss)
        with pytest.raises(ContractError, match="consumed"):
            backward(loss)
        with pytest.raises(ContractError, match="consumed"):
            backward((y * 3.0).sum())


class TestParamSet:
    def test_ordered_unique_names(self, rng):
        ps = ParamSet()
        a = ps.add("w1", t64(rng.normal(size=2)))
        ps.add("b1", t64(np.zeros(2)))
        assert ps.names() == ["w1", "b1"]
        assert ps["w1"] is a
        with pytest.raises(ContractError):
            ps.add("w1", t64(np.zeros(1)))

    def test_zero_grad_and_freeze(self, rng):
        ps = ParamSet()
        x = ps.add("x", t64(rng.normal(size=3)))
        backward((x * x).sum())
        assert x.grad is not None
        ps.zero_grad()
        assert x.grad is None
        ps.set_requires_grad(False)
        backward((x * x).sum())
        assert x.grad is None

    def test_union_prefixes_and_shares(self, rng):
        p1, p2 = ParamSet(), ParamSet()
        t1 = p1.add("w", t64(np.ones(2)))
        p2.add("w", t64(np.zeros(2)))
        merged = ParamSet.union(("enc", p1), ("dec", p2))
        assert merged.names() == ["enc.w", "dec.w"]
        assert merged["enc.w"] is t1


class TestInit:
    def test_kaiming_uniform_bound_and_determinism(self):
        w1 = T.kaiming_uniform(np.random.default_rng(5), (64, 3, 3, 3), fan_in=27)
        w2 = T.kaiming_uniform(np.random.default_rng(5), (64, 3, 3, 3), fan_in=27)
        bound = np.sqrt(6.0 / 27)
        assert np.abs(w1.data).max() <= bound
        assert np.abs(w1.data).max() > bound * 0.9  # actually fills the range
        np.testing.assert_array_equal(w1.data, w2.data)
        assert w1.data.dtype == np.float32 and w1.requires_grad

    def test_conv_linear_params_shapes(self, rng):
        w, b = T.conv_params(rng, 8, 3, 9, 3)
        assert w.shape == (8, 3, 9, 3) and b.shape == (8,)
        np.testing.assert_array_equal(b.data, 0)
        w2, b2 = T.linear_params(rng, 128, 1024)
        assert w2.shape == (128, 1024) and b2.shape == (128,)
