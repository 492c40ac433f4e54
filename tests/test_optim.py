"""Adam optimizer tests against a scalar-loop reference implementation, and
the training loop every stage runs."""

import numpy as np
import pytest

from palmvein import AdamState, ContractError, ParamSet, Tensor, adam_step, backward
from palmvein.optim import fit


def reference_adam(values, grads_per_step, lr, b1, b2, eps):
    """Plain per-element Adam loop: the oracle adam_step must reproduce."""
    p = [float(v) for v in values]
    m = [0.0] * len(p)
    v = [0.0] * len(p)
    for t, grads in enumerate(grads_per_step, start=1):
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            m_hat = m[i] / (1 - b1 ** t)
            v_hat = v[i] / (1 - b2 ** t)
            p[i] -= lr * m_hat / (v_hat ** 0.5 + eps)
    return np.array(p)


class TestAdamStep:
    def test_matches_scalar_reference(self, rng):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        init = rng.normal(size=5)
        grad_seq = [rng.normal(size=5) for _ in range(10)]

        ps = ParamSet()
        p = ps.add("p", Tensor(init.copy(), requires_grad=True, dtype=np.float64))
        state = AdamState()
        for g in grad_seq:
            p.grad = g.copy()
            adam_step(ps, state, lr=lr, beta1=b1, beta2=b2, eps=eps)

        expect = reference_adam(init, grad_seq, lr, b1, b2, eps)
        np.testing.assert_allclose(p.data, expect, rtol=1e-12, atol=1e-15)

    def test_first_step_size_is_about_lr(self, rng):
        # With bias correction the very first update has magnitude ~= lr
        ps = ParamSet()
        p = ps.add("p", Tensor(np.zeros(4), requires_grad=True, dtype=np.float64))
        p.grad = rng.normal(size=4) * 100.0
        adam_step(ps, AdamState(), lr=1e-3)
        np.testing.assert_allclose(np.abs(p.data), 1e-3, rtol=1e-6)
        assert np.all(np.sign(p.data) == -np.sign(p.grad))

    def test_frozen_and_gradless_params_skipped(self, rng):
        ps = ParamSet()
        frozen = ps.add("frozen", Tensor(np.ones(3), requires_grad=False))
        idle = ps.add("idle", Tensor(np.ones(3), requires_grad=True))
        live = ps.add("live", Tensor(np.ones(3), requires_grad=True))
        frozen.grad = np.ones(3, dtype=np.float32)
        live.grad = np.ones(3, dtype=np.float32)
        state = AdamState()
        adam_step(ps, state)
        np.testing.assert_array_equal(frozen.data, 1.0)
        np.testing.assert_array_equal(idle.data, 1.0)
        assert np.all(live.data < 1.0)
        assert set(state.m) == {"live"}

    def test_moments_survive_freeze_cycle(self, rng):
        ps = ParamSet()
        p = ps.add("p", Tensor(np.zeros(2), requires_grad=True, dtype=np.float64))
        state = AdamState()
        p.grad = np.ones(2)
        adam_step(ps, state)
        m_after = state.m["p"].copy()
        p.requires_grad = False
        p.grad = None
        adam_step(ps, state)  # no-op for p, but state must persist
        np.testing.assert_array_equal(state.m["p"], m_after)

    def test_bad_lr_raises(self):
        with pytest.raises(ContractError):
            adam_step(ParamSet(), AdamState(), lr=0.0)

    def test_float32_params_stay_float32(self, rng):
        ps = ParamSet()
        p = ps.add("p", Tensor(np.ones(3, dtype=np.float32), requires_grad=True))
        p.grad = np.ones(3, dtype=np.float32)
        adam_step(ps, AdamState())
        assert p.data.dtype == np.float32


def quadratic(start):
    """A parameter set of one float64 vector and a ``grad_step`` for
    ``fit`` that minimizes its squared distance to (3, 2)."""
    ps = ParamSet()
    p = ps.add("p", Tensor(np.array(start), requires_grad=True, dtype=np.float64))
    target = Tensor(np.array([3.0, 2.0]), dtype=np.float64)

    def grad_step(step, batch):
        diff = p - target
        loss = (diff * diff).sum()
        backward(loss)
        return loss.item()

    return ps, p, grad_step


class TestFit:
    def test_converges_on_quadratic(self):
        ps, p, grad_step = quadratic([8.0, -5.0])
        losses = fit(ps, 0.1, range(400), grad_step, "quadratic")
        assert len(losses) == 400
        np.testing.assert_allclose(p.data, [3.0, 2.0], atol=1e-3)

    def test_steps_match_raw_adam(self):
        ps, p, grad_step = quadratic([8.0, -5.0])
        fit(ps, 0.1, range(5), grad_step, "quadratic")
        ref, q, ref_step = quadratic([8.0, -5.0])
        state = AdamState()
        for step in range(5):
            ref.zero_grad()
            ref_step(step, None)
            adam_step(ref, state, lr=0.1)
        np.testing.assert_array_equal(p.data, q.data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loss_raises_before_update(self, bad):
        ps, p, grad_step = quadratic([8.0, -5.0])
        before = []

        def poisoned(step, batch):
            before.append(p.data.copy())
            loss = grad_step(step, batch)
            return bad if step == 2 else loss

        with pytest.raises(ContractError, match="quadratic diverged at step 2"):
            fit(ps, 0.1, range(5), poisoned, "quadratic")
        assert len(before) == 3
        np.testing.assert_array_equal(p.data, before[2])
        assert not np.array_equal(before[1], before[2])
