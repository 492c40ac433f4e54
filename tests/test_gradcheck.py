"""Gradient-checker tests: a correct net passes, a sabotaged backward fails."""

import numpy as np
import pytest

from palmvein import (
    ContractError,
    ParamSet,
    Tensor,
    check_gradients,
    conv2d,
    linear,
    mse_loss,
    relu,
)
import palmvein.tensor as T


def small_net(rng):
    ps = ParamSet()
    w1, b1 = T.conv_params(rng, 4, 1, 3, 3)
    w2, b2 = T.linear_params(rng, 2, 4 * 6 * 6)
    ps.add("conv.w", w1)
    ps.add("conv.b", b1)
    ps.add("fc.w", w2)
    ps.add("fc.b", b2)
    x = Tensor(rng.normal(size=(2, 1, 6, 6)).astype(np.float32))
    tgt = Tensor(rng.normal(size=(2, 2)).astype(np.float32))

    def loss_fn():
        h = relu(conv2d(x, w1, b1, "same"))
        return mse_loss(linear(h.flatten_from(1), w2, b2), tgt)

    return ps, loss_fn


class TestCheckGradients:
    def test_correct_net_passes(self):
        ps, loss_fn = small_net(np.random.default_rng(0))
        report = check_gradients(ps, loss_fn, tolerance=1e-2,
                                 max_elements_per_param=10)
        assert report.passed, report.checks
        assert report.worst < 1e-2
        assert all(c.has_gradient for c in report.checks)

    def test_sabotaged_backward_fails(self):
        # An op whose forward is x*3 but whose backward claims d/dx = 2
        rng = np.random.default_rng(1)
        ps = ParamSet()
        p = ps.add("p", Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True))

        def broken_triple(t):
            def bw(g):
                t.accumulate_grad(g * 2.0)
            return Tensor._op(t.data * 3.0, (t,), bw)

        def loss_fn():
            y = broken_triple(p)
            return (y * y).mean()

        report = check_gradients(ps, loss_fn, tolerance=1e-2)
        assert not report.passed
        assert report.checks[0].max_rel_error > 0.2

    def test_frozen_param_reported_without_gradient(self):
        ps, loss_fn = small_net(np.random.default_rng(2))
        ps["conv.w"].requires_grad = False
        report = check_gradients(ps, loss_fn, tolerance=1e-2,
                                 max_elements_per_param=4)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["conv.w"].has_gradient
        assert by_name["conv.w"].checked_elements == 0
        assert by_name["fc.w"].has_gradient
        assert report.passed  # frozen params are not scored

    def test_subsampling_caps_probes(self):
        ps, loss_fn = small_net(np.random.default_rng(3))
        report = check_gradients(ps, loss_fn, tolerance=1e-2,
                                 max_elements_per_param=3)
        for c in report.checks:
            assert c.checked_elements <= 3

    def test_params_restored_after_check(self):
        ps, loss_fn = small_net(np.random.default_rng(4))
        before = {n: (t.data.copy(), t.data.dtype) for n, t in ps.items()}
        check_gradients(ps, loss_fn, tolerance=1e-2, max_elements_per_param=2)
        for name, t in ps.items():
            data, dtype = before[name]
            assert t.data.dtype == dtype
            np.testing.assert_array_equal(t.data, data)

    def test_nonscalar_loss_rejected(self):
        ps = ParamSet()
        p = ps.add("p", Tensor(np.ones(3, dtype=np.float32), requires_grad=True))
        with pytest.raises(ContractError):
            check_gradients(ps, lambda: p * 2.0)
