"""Convolutional encoder-decoder (CED) with merge connections.

A U-Net-style image-to-image network: an encoder of strided (pooled) conv
blocks, a bottleneck, and a decoder whose levels upsample and concatenate the
matching encoder feature map (the merge connection) before convolving. Two
CEDs are trained -- original->texture-code and texture-code->ray-transform --
then stacked and finetuned so the stack renders the ray transform straight
from the original image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .optim import Adam
from .tensor import (
    ParamSet,
    Tensor,
    backward,
    clamp01,
    concat_channels,
    conv2d,
    conv_params,
    maxpool2,
    mse_loss,
    relu,
    upsample2_nearest,
)

_FORWARD_CHUNK = 32  # images per inference forward; bounds conv temporaries


@dataclass(frozen=True)
class CEDConfig:
    depth: int = 3
    base_channels: int = 16
    input_size: int = 64
    in_channels: int = 1

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.base_channels < 4:
            raise ConfigError(f"base_channels must be >= 4, got {self.base_channels}")
        if self.input_size % (1 << self.depth) != 0:
            raise ConfigError(
                f"input_size {self.input_size} not divisible by 2^depth = {1 << self.depth}")

    def level_channels(self, level: int) -> int:
        return self.base_channels << level


@dataclass
class CEDModel:
    config: CEDConfig
    params: ParamSet


@dataclass
class TrainHyper:
    epochs: int = 30
    batch_size: int = 10
    lr: float = 1e-3
    seed: int = 0


def _add_conv(params: ParamSet, rng, name: str, c_out: int, c_in: int,
              kh: int = 3, kw: int = 3) -> None:
    w, b = conv_params(rng, c_out, c_in, kh, kw)
    params.add(f"{name}.w", w)
    params.add(f"{name}.b", b)


def build_ced(config: CEDConfig, seed: int = 0) -> CEDModel:
    """Construct a CED with Kaiming-uniform weights and zero biases."""
    rng = np.random.default_rng([seed, 0xCED])
    params = ParamSet()
    c_in = config.in_channels
    for level in range(config.depth):
        c = config.level_channels(level)
        _add_conv(params, rng, f"enc.{level}.conv1", c, c_in)
        _add_conv(params, rng, f"enc.{level}.conv2", c, c)
        c_in = c
    c_mid = config.base_channels << config.depth
    _add_conv(params, rng, "bottleneck.conv1", c_mid, c_in)
    _add_conv(params, rng, "bottleneck.conv2", c_mid, c_mid)
    c_below = c_mid
    for level in reversed(range(config.depth)):
        c = config.level_channels(level)
        _add_conv(params, rng, f"dec.{level}.conv1", c, c_below + c)
        _add_conv(params, rng, f"dec.{level}.conv2", c, c)
        c_below = c
    _add_conv(params, rng, "head.conv", 1, config.base_channels, 1, 1)
    return CEDModel(config=config, params=params)


def _conv_block(p: ParamSet, name: str, x: Tensor) -> Tensor:
    return relu(conv2d(x, p[f"{name}.w"], p[f"{name}.b"], "same"))


def ced_apply(model: CEDModel, x: Tensor) -> Tensor:
    """Graph-building forward pass on a [N,C,H,W] tensor."""
    cfg = model.config
    if x.shape[-1] != cfg.input_size or x.shape[-2] != cfg.input_size:
        raise DimensionError(
            f"spatial dims {x.shape[-2:]} do not match config size {cfg.input_size}")
    if x.shape[-3] != cfg.in_channels:
        raise DimensionError(
            f"input has {x.shape[-3]} channels, config expects {cfg.in_channels}")
    p = model.params
    skips = []
    for level in range(cfg.depth):
        x = _conv_block(p, f"enc.{level}.conv1", x)
        x = _conv_block(p, f"enc.{level}.conv2", x)
        skips.append(x)
        x = maxpool2(x)
    x = _conv_block(p, "bottleneck.conv1", x)
    x = _conv_block(p, "bottleneck.conv2", x)
    for level in reversed(range(cfg.depth)):
        x = upsample2_nearest(x)
        x = concat_channels(x, skips[level])  # upsampled channels, then merge
        x = _conv_block(p, f"dec.{level}.conv1", x)
        x = _conv_block(p, f"dec.{level}.conv2", x)
    return clamp01(conv2d(x, p["head.conv.w"], p["head.conv.b"], "same"))


def ced_forward(model: CEDModel, images: np.ndarray) -> np.ndarray:
    """Inference on a [N,H,W] batch, 32 images per forward; returns float32."""
    imgs = np.asarray(images, dtype=np.float32)
    if imgs.ndim != 3:
        raise DimensionError(f"expected [N,H,W], got {imgs.ndim} dims")
    outs = [ced_apply(model, Tensor(imgs[s:s + _FORWARD_CHUNK, None])).data[:, 0]
            for s in range(0, imgs.shape[0], _FORWARD_CHUNK)]
    return np.concatenate(outs, axis=0)


def _pairs_to_arrays(pairs) -> tuple[np.ndarray, np.ndarray]:
    if not pairs:
        raise ContractError("training requires at least one (input, target) pair")
    xs = np.stack([np.asarray(a, dtype=np.float32) for a, _ in pairs])[:, None]
    ys = np.stack([np.asarray(b, dtype=np.float32) for _, b in pairs])[:, None]
    if xs.shape != ys.shape:
        raise DimensionError(f"input/target shapes differ: {xs.shape} vs {ys.shape}")
    return xs, ys


def _run_epochs(apply_fn, params: ParamSet, xs, ys, hyper: TrainHyper) -> list[float]:
    rng = np.random.default_rng([hyper.seed, 0x7124])
    opt = Adam(params, lr=hyper.lr)
    n = xs.shape[0]
    bs = min(hyper.batch_size, n)
    log = []
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, bs):
            sel = order[start:start + bs]
            opt.zero_grad()
            loss = mse_loss(apply_fn(Tensor(xs[sel])), Tensor(ys[sel]))
            backward(loss)
            opt.step()
            losses.append(loss.item())
        log.append(float(np.mean(losses)))
        if not np.isfinite(log[-1]):
            raise ContractError(f"training diverged: epoch loss {log[-1]}")
    return log


def train_ced(model: CEDModel, pairs, hyper: TrainHyper | None = None) -> list[float]:
    """Minimize MSE between ced output and targets with Adam.

    Returns the per-epoch mean training loss.
    """
    if hyper is None:
        hyper = TrainHyper()
    xs, ys = _pairs_to_arrays(pairs)
    return _run_epochs(lambda x: ced_apply(model, x), model.params, xs, ys, hyper)


@dataclass
class StackedCED:
    first: CEDModel
    second: CEDModel
    params: ParamSet = field(init=False)

    def __post_init__(self):
        if self.first.config.input_size != self.second.config.input_size:
            raise DimensionError(
                f"stack size mismatch: {self.first.config.input_size} vs "
                f"{self.second.config.input_size}")
        if self.second.config.in_channels != 1:
            raise DimensionError("second CED must take the first's 1-channel output")
        self.params = ParamSet.union(("ced1", self.first.params),
                                     ("ced2", self.second.params))


def stack_ceds(first: CEDModel, second: CEDModel) -> StackedCED:
    """Compose two CEDs; parameters stay independently addressable."""
    return StackedCED(first=first, second=second)


def stacked_apply(stacked: StackedCED, x: Tensor) -> Tensor:
    return ced_apply(stacked.second, ced_apply(stacked.first, x))


def finetune_stacked(stacked: StackedCED, pairs, hyper: TrainHyper | None = None
                     ) -> list[float]:
    """Jointly train both CEDs of a stack against (original, target) pairs."""
    if hyper is None:
        hyper = TrainHyper()
    xs, ys = _pairs_to_arrays(pairs)
    if hyper.epochs == 0:
        return []
    return _run_epochs(lambda x: stacked_apply(stacked, x), stacked.params,
                       xs, ys, hyper)


def extract_features_batch(stacked: StackedCED, images: np.ndarray) -> np.ndarray:
    """The [original, learned-tcm, learned-irt] channel stacks: [N,H,W] -> [N,3,H,W]."""
    imgs = np.asarray(images, dtype=np.float32)
    learned_tcm = ced_forward(stacked.first, imgs)
    learned_irt = ced_forward(stacked.second, learned_tcm)
    return np.stack([imgs, learned_tcm, learned_irt], axis=1)
