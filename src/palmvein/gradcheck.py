"""Finite-difference verification of analytic gradients.

The analytic pass runs at whatever dtype the parameters hold (float32 in
production). The numeric pass then recasts every parameter to float64 in
place -- same evaluation point, higher precision -- so central differences
are not drowned by rounding. Original arrays are restored afterwards.

`run_battery` packages the standard verification suite: every differentiable
primitive at 64-bit precision (tolerance 1e-3), and the full desk-size
networks at their production 32-bit precision and the end-to-end graph that
composes them at 64-bit (tolerance 1e-2), each over many randomized trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ContractError
from .tensor import ParamSet, Tensor, backward, no_grad

REL_FLOOR = 1e-6


@dataclass
class ParamCheck:
    name: str
    has_gradient: bool
    max_rel_error: float
    checked_elements: int


@dataclass
class GradCheckReport:
    tolerance: float
    checks: list[ParamCheck]

    @property
    def passed(self) -> bool:
        return all(c.max_rel_error <= self.tolerance
                   for c in self.checks if c.has_gradient)

    @property
    def worst(self) -> float:
        errs = [c.max_rel_error for c in self.checks if c.has_gradient]
        return max(errs) if errs else 0.0


def check_gradients(params: ParamSet,
                    loss_fn: Callable[[], Tensor],
                    tolerance: float = 1e-3,
                    eps: float = 1e-5,
                    max_elements_per_param: Optional[int] = None,
                    rng: Optional[np.random.Generator] = None,
                    scale_floor: float = 0.0) -> GradCheckReport:
    """Compare backprop gradients against central finite differences.

    `loss_fn` must rebuild the computation graph from the parameters' current
    .data on every call and return a scalar loss; the finite-difference probes
    call it under `no_grad`. Relative error per element
    is |analytic - numeric| / max(|analytic|, |numeric|, floor); a parameter's
    score is the max over its checked elements. Frozen or unreachable
    parameters are reported as having no gradient and are not scored.

    `max_elements_per_param` caps the finite-difference probes per parameter
    (random subset without replacement); None checks every element.

    The denominator floor is max(1e-6, scale_floor * max|analytic|) per
    parameter. A nonzero `scale_floor` turns the check into a mixed
    relative/absolute comparison: elements far below the parameter's
    gradient scale are judged by absolute error against that scale instead
    of their own magnitude. This is how 32-bit networks are checked --
    their backward pass carries accumulation rounding of order 1e-4 of the
    gradient scale, which would otherwise dominate the relative error of
    negligible elements while significant elements remain tightly verified.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not 0.0 <= scale_floor <= 1.0:
        raise ContractError(f"scale_floor must be in [0, 1], got {scale_floor}")

    params.zero_grad()
    loss = loss_fn()
    if loss.data.size != 1:
        raise ContractError("loss_fn must return a scalar loss")
    backward(loss)
    analytic = {name: (None if t.grad is None else t.grad.copy())
                for name, t in params.items()}

    originals = {name: t.data for name, t in params.items()}
    for t in params.tensors():
        t.data = t.data.astype(np.float64)

    try:
        checks = []
        for name, t in params.items():
            a = analytic[name]
            if not t.requires_grad or a is None:
                checks.append(ParamCheck(name, False, float("nan"), 0))
                continue
            size = t.data.size
            if max_elements_per_param is not None and size > max_elements_per_param:
                idx = rng.choice(size, size=max_elements_per_param, replace=False)
            else:
                idx = np.arange(size)
            flat = t.data.reshape(-1)
            a_flat = a.reshape(-1)
            floor = max(REL_FLOOR, scale_floor * float(np.abs(a_flat).max()))
            worst = 0.0
            for i in idx:
                saved = flat[i]
                with no_grad():
                    flat[i] = saved + eps
                    f_plus = loss_fn().item()
                    flat[i] = saved - eps
                    f_minus = loss_fn().item()
                flat[i] = saved
                numeric = (f_plus - f_minus) / (2.0 * eps)
                an = float(a_flat[i])
                rel = abs(an - numeric) / max(abs(an), abs(numeric), floor)
                worst = max(worst, rel)
            checks.append(ParamCheck(name, True, worst, len(idx)))
    finally:
        for name, t in params.items():
            t.data = originals[name]

    return GradCheckReport(tolerance=tolerance, checks=checks)


# ---------------------------------------------------------------------------
# Standard verification battery
# ---------------------------------------------------------------------------


@dataclass
class BatteryCase:
    """Outcome of one battery entry over all its randomized trials."""

    name: str
    tolerance: float
    trials: int
    worst: float
    passed: bool

    def line(self) -> str:
        return (f"{self.name}: worst_rel_err={self.worst:.3e} "
                f"tol={self.tolerance:.0e} trials={self.trials} "
                f"[{'PASS' if self.passed else 'FAIL'}]")


def _params_of(**named: Tensor) -> ParamSet:
    ps = ParamSet()
    for name, t in named.items():
        ps.add(name, t)
    return ps


def _t64(rng: np.random.Generator, *shape: int, lo: float = -1.0,
         hi: float = 1.0) -> Tensor:
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _const(rng: np.random.Generator, *shape: int) -> Tensor:
    return Tensor(rng.uniform(-1.0, 1.0, size=shape))


def _primitive_cases() -> list[tuple[str, Callable]]:
    """Each builder maps (rng, trial) -> (params, loss_fn), all float64."""
    from .tensor import (adaptive_avg_pool2d, clamp01, concat_channels, conv2d,
                         l2_normalize, linear, maxpool2, mse_loss, relu,
                         upsample2_merge, upsample2_nearest)
    from .triplet import triplet_loss_batch

    def conv_case(rng, trial):
        # trials cycle through 3x3 same and valid, a rectangular same kernel
        # on a non-square input (where a wrap-around column bug would show)
        # and a 1x1 kernel
        h, w_, kh, kw, padding = ((6, 6, 3, 3, "same"), (6, 6, 3, 3, "valid"),
                                  (9, 6, 7, 3, "same"), (5, 4, 1, 1, "same"))[trial % 4]
        x, w, b = _t64(rng, 2, 2, h, w_), _t64(rng, 3, 2, kh, kw), _t64(rng, 3)
        if padding == "valid":
            h, w_ = h - kh + 1, w_ - kw + 1
        t = _const(rng, 2, 3, h, w_)
        return _params_of(x=x, w=w, b=b), lambda: mse_loss(conv2d(x, w, b, padding), t)

    def conv_relu_case(rng, trial):
        # the fused epilogue on a square and a rectangular same kernel
        kh, kw = ((3, 3), (5, 3))[trial % 2]
        x, w, b = _t64(rng, 2, 2, 6, 5), _t64(rng, 3, 2, kh, kw), _t64(rng, 3)
        t = _const(rng, 2, 3, 6, 5)
        return _params_of(x=x, w=w, b=b), \
            lambda: mse_loss(conv2d(x, w, b, "same", fused_relu=True), t)

    def linear_case(rng, trial):
        x, w, b = _t64(rng, 3, 5), _t64(rng, 4, 5), _t64(rng, 4)
        t = _const(rng, 3, 4)
        return _params_of(x=x, w=w, b=b), lambda: mse_loss(linear(x, w, b), t)

    def relu_case(rng, trial):
        x, t = _t64(rng, 4, 7), _const(rng, 4, 7)
        return _params_of(x=x), lambda: mse_loss(relu(x), t)

    def maxpool_case(rng, trial):
        x, t = _t64(rng, 2, 2, 6, 6), _const(rng, 2, 2, 3, 3)
        return _params_of(x=x), lambda: mse_loss(maxpool2(x), t)

    def upsample_case(rng, trial):
        x, t = _t64(rng, 2, 2, 3, 3), _const(rng, 2, 2, 6, 6)
        return _params_of(x=x), lambda: mse_loss(upsample2_nearest(x), t)

    def upsample_merge_case(rng, trial):
        x, skip = _t64(rng, 2, 2, 3, 2), _t64(rng, 2, 3, 6, 4)
        t = _const(rng, 2, 5, 6, 4)
        return _params_of(x=x, skip=skip), lambda: mse_loss(upsample2_merge(x, skip), t)

    def concat_case(rng, trial):
        a, b = _t64(rng, 2, 2, 4, 4), _t64(rng, 2, 3, 4, 4)
        t = _const(rng, 2, 5, 4, 4)
        return _params_of(a=a, b=b), lambda: mse_loss(concat_channels(a, b), t)

    def clamp_case(rng, trial):
        x, t = _t64(rng, 5, 5, lo=-0.5, hi=1.5), _const(rng, 5, 5)
        return _params_of(x=x), lambda: mse_loss(clamp01(x), t)

    def l2_case(rng, trial):
        x, t = _t64(rng, 3, 8, lo=0.2, hi=1.0), _const(rng, 3, 8)
        return _params_of(x=x), lambda: mse_loss(l2_normalize(x), t)

    def avgpool_case(rng, trial):
        x, t = _t64(rng, 2, 3, 8, 8), _const(rng, 2, 3, 2, 2)
        return _params_of(x=x), lambda: mse_loss(adaptive_avg_pool2d(x, 2), t)

    def arith_case(rng, trial):
        a, b, c = _t64(rng, 3, 4), _t64(rng, 3, 4), _t64(rng, 3, 4)
        t = _const(rng, 3, 4)
        return _params_of(a=a, b=b, c=c), lambda: mse_loss(a * b + c * 2.0 - b, t)

    def mse_case(rng, trial):
        x, t = _t64(rng, 4, 4), _const(rng, 4, 4)
        return _params_of(x=x), lambda: mse_loss(x, t)

    def triplet_case(rng, trial):
        base = rng.uniform(-1.0, 1.0, size=(3, 8))
        a = Tensor(base, requires_grad=True)
        p = Tensor(base + rng.uniform(0.2, 0.4, size=(3, 8)), requires_grad=True)
        offsets = rng.uniform(0.05, 0.1, size=(3, 8))
        offsets[2] += 1.0
        hn = Tensor(base + offsets, requires_grad=True)
        # rows 0-1: hn sits closer than p, so the hinge is active; row 2: hn
        # sits far beyond the margin, so the hinge is inactive with zero gradient
        return _params_of(a=a, p=p, hn=hn), lambda: triplet_loss_batch(a, p, hn, 0.5)

    return [
        ("conv2d", conv_case),
        ("conv2d_fused_relu", conv_relu_case),
        ("linear", linear_case),
        ("relu", relu_case),
        ("maxpool2", maxpool_case),
        ("upsample2_nearest", upsample_case),
        ("upsample2_merge", upsample_merge_case),
        ("concat_channels", concat_case),
        ("clamp01", clamp_case),
        ("l2_normalize", l2_case),
        ("adaptive_avg_pool2d", avgpool_case),
        ("elementwise_arith", arith_case),
        ("mse_loss", mse_case),
        ("triplet_loss_batch", triplet_case),
    ]


def _jitter_params(params: ParamSet, rng: np.random.Generator) -> None:
    """Move freshly built weights to a generic point.

    Zero-initialized biases put relu/clamp pre-activations exactly at their
    kinks across whole dead-feature regions, and a central difference is not
    a valid derivative reference at a nonsmooth point (the analytic pass uses
    a one-sided subgradient there, the stencil averages both sides). Random
    jitter makes the evaluation point smooth with probability one while
    exercising exactly the same gradient machinery.
    """
    for t in params.tensors():
        t.data = (t.data
                  + rng.uniform(-0.05, 0.05, size=t.data.shape)).astype(t.data.dtype)


def _net_cases() -> list[tuple[str, Callable]]:
    """Full desk-size networks at production (32-bit) precision, and their
    end-to-end composition."""
    from .ced import CEDConfig, build_ced, ced_apply
    from .fe import FEConfig, build_fe, fe_apply
    from .tensor import concat_channels, mse_loss
    from .triplet import triplet_loss_batch

    def ced_case(rng, trial):
        model = build_ced(CEDConfig(depth=3, base_channels=8, input_size=64),
                          seed=trial)
        _jitter_params(model.params, rng)
        x = Tensor(rng.uniform(0.0, 1.0, size=(1, 1, 64, 64)).astype(np.float32))
        t = Tensor(rng.uniform(0.0, 1.0, size=(1, 1, 64, 64)).astype(np.float32))
        return model.params, lambda: mse_loss(ced_apply(model, x), t)

    def fe_case(rng, trial):
        model = build_fe(FEConfig(), seed=trial)
        _jitter_params(model.params, rng)
        x = Tensor(rng.uniform(0.0, 1.0, size=(1, 3, 64, 64)).astype(np.float32))
        t = Tensor(rng.uniform(-0.2, 0.2,
                               size=(1, model.config.embedding_dim)).astype(np.float32))
        return model.params, lambda: mse_loss(fe_apply(model, x), t)

    def e2e_case(rng, trial):
        # the stage-9 graph: CED -> CED -> channel stack -> FE -> triplet loss
        ced_cfg = CEDConfig(depth=3, base_channels=8, input_size=64)
        first = build_ced(ced_cfg, seed=trial)
        second = build_ced(ced_cfg, seed=trial + 1)
        fe = build_fe(FEConfig(), seed=trial)
        stack = ParamSet.union(("ced1", first.params), ("ced2", second.params))
        params = ParamSet.union(("stack", stack), ("fe", fe.params))
        _jitter_params(params, rng)
        # 64-bit: the 32-bit gradient of this composition is a difference of
        # near-equal per-image terms, and its rounding alone reaches a few
        # percent on some CED elements
        for t in params.tensors():
            t.data = t.data.astype(np.float64)
        # one random tensor of the stack and one of the FE per trial: a sweep
        # of every tensor through this graph at desk size takes minutes
        for group in (stack, fe.params):
            probed = group.names()[rng.integers(len(group))]
            for name, t in group.items():
                t.requires_grad = name == probed
        images = rng.uniform(0.0, 1.0, size=(5, 1, 64, 64))

        def embed(rows):
            x = Tensor(images[rows])
            mid = ced_apply(first, x)
            out = ced_apply(second, mid)
            return fe_apply(fe, concat_channels(concat_channels(x, mid), out))

        # sample 0 is the first anchor and the second negative, so its
        # gradient sums over two corners; a margin of 4 keeps every hinge
        # active on the unit sphere
        return params, lambda: triplet_loss_batch(embed([0, 1]), embed([2, 3]),
                                                  embed([4, 0]), 4.0)

    return [("ced-desk-32bit", ced_case), ("fe-desk-32bit", fe_case),
            ("e2e-desk-64bit", e2e_case)]


def run_battery(trials: int = 20, seed: int = 0,
                progress: Optional[Callable[[str], None]] = None
                ) -> list[BatteryCase]:
    """Run the standard gradient-verification suite.

    Primitives run at 64-bit with tolerance 1e-3 and every element probed.
    The desk networks run at 32-bit with tolerance 1e-2, probing one random
    element per parameter per trial (fresh, jittered weights and data each
    trial), a smaller step to keep piecewise-linear kinks out of the
    stencil, and a 0.1 gradient-scale denominator floor to absorb 32-bit
    accumulation rounding on negligible elements. The end-to-end case runs
    under the same settings at 64-bit.
    """
    if trials < 1:
        raise ContractError(f"trials must be >= 1, got {trials}")
    results = []
    suites = [(case, 1e-3, None, 0.0, 1e-5) for case in _primitive_cases()] + \
             [(case, 1e-2, 1, 0.1, 1e-6) for case in _net_cases()]
    for case_index, ((name, builder), tolerance, max_elements, floor, eps) \
            in enumerate(suites):
        worst = 0.0
        passed = True
        for trial in range(trials):
            rng = np.random.default_rng([seed, case_index, trial])
            params, loss_fn = builder(rng, trial)
            report = check_gradients(params, loss_fn, tolerance=tolerance, eps=eps,
                                     max_elements_per_param=max_elements, rng=rng,
                                     scale_floor=floor)
            worst = max(worst, report.worst)
            passed = passed and report.passed
        case = BatteryCase(name=name, tolerance=tolerance, trials=trials,
                           worst=worst, passed=passed)
        results.append(case)
        if progress is not None:
            progress(case.line())
    return results
