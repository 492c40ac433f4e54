"""Adam on a ParamSet, and the one training loop every stage runs."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import ContractError
from .tensor import ParamSet, Tensor, backward, mse_loss

logger = logging.getLogger(__name__)


@dataclass
class TrainHyper:
    epochs: int = 30
    batch_size: int = 10
    lr: float = 1e-3
    seed: int = 0


@dataclass
class AdamState:
    """First/second moment accumulators keyed by parameter name."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: ParamSet, state: AdamState, lr: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One Adam update with bias correction; skips frozen or gradient-free params.

    Moments live in `state` keyed by name, so a parameter keeps its history
    across freeze/unfreeze cycles.
    """
    if lr <= 0:
        raise ContractError(f"learning rate must be positive, got {lr}")
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, p in params.items():
        if not p.requires_grad or p.grad is None:
            continue
        g = p.grad
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / c1
        v_hat = v / c2
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.data.dtype, copy=False)


def fit(params: ParamSet, lr: float, batches: Iterable,
        grad_step: Callable[[int, object], float], what: str) -> list[float]:
    """Train ``params`` with one Adam update per batch; returns each step's loss.

    ``grad_step(step, batch)`` fills the gradients of ``params`` (cleared
    before each call) and returns the loss as a float. A non-finite loss
    raises ``ContractError`` naming ``what`` and the step, before that step's
    update.
    """
    state = AdamState()
    losses = []
    for step, batch in enumerate(batches):
        params.zero_grad()
        loss = grad_step(step, batch)
        if not np.isfinite(loss):
            raise ContractError(f"{what} diverged at step {step}: loss {loss}")
        adam_step(params, state, lr)
        logger.info("%s step %d: loss %.5f", what, step, loss)
        losses.append(loss)
    return losses


def fit_mse(apply_fn: Callable[[Tensor], Tensor], params: ParamSet, xs: np.ndarray,
            ys: np.ndarray, hyper: TrainHyper, tag: int, what: str) -> list[float]:
    """Minibatch MSE of ``apply_fn(xs)`` against ``ys`` through ``fit``, one
    permutation per epoch drawn from ``(hyper.seed, tag)``; returns the
    per-epoch mean loss."""
    rng = np.random.default_rng([hyper.seed, tag])
    n = xs.shape[0]
    bs = min(hyper.batch_size, n)
    batches = (order[start:start + bs]
               for order in (rng.permutation(n) for _ in range(hyper.epochs))
               for start in range(0, n, bs))

    def grad_step(step: int, sel: np.ndarray) -> float:
        loss = mse_loss(apply_fn(Tensor(xs[sel])), Tensor(ys[sel]))
        backward(loss)
        return loss.item()

    losses = fit(params, hyper.lr, batches, grad_step, what)
    per_epoch = -(-n // bs)
    return [float(np.mean(losses[s:s + per_epoch]))
            for s in range(0, len(losses), per_epoch)]
