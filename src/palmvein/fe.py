"""Siamese feature extractor (FE).

The trunk's early stages run two rectangular convolutions in parallel -- one
tall, one wide, capturing vein strokes in both orientations -- and
channel-concatenate the branches. Later stages are plain 3x3 convs. An
adaptive average pool fixes the spatial grid regardless of input size, and a
single fully-connected head projects the flattened map to a unit-norm
embedding.

The trunk can be pretrained as an autoencoder: a mirror decoder (upsample +
conv per pooled stage) reconstructs the multi-channel input under MSE, then
is discarded and only the trunk weights kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .optim import TrainHyper, fit_mse
from .tensor import (
    ParamSet,
    Tensor,
    adaptive_avg_pool2d,
    clamp01,
    concat_channels,
    conv2d,
    conv_params,
    l2_normalize,
    linear,
    linear_params,
    maxpool2,
    no_grad,
    upsample2_nearest,
)

_EMBED_CHUNK = 16  # images per embedding forward; bounds live activations


@dataclass(frozen=True)
class StageSpec:
    """One trunk stage: 1 kernel shape (plain conv) or 2 (parallel branches,
    channel-concatenated). out_channels is the stage's total output width."""

    kernels: tuple[tuple[int, int], ...]
    out_channels: int
    pool: bool

    def __post_init__(self):
        if len(self.kernels) not in (1, 2):
            raise ConfigError(f"stage must have 1 or 2 kernels, got {len(self.kernels)}")
        if len(self.kernels) == 2 and self.out_channels % 2 != 0:
            raise ConfigError(
                f"parallel stage needs even out_channels, got {self.out_channels}")
        for k in self.kernels:
            if len(k) != 2 or k[0] < 1 or k[1] < 1:
                raise ConfigError(f"bad kernel shape {k}")
        if self.out_channels < 1:
            raise ConfigError(f"out_channels must be >= 1, got {self.out_channels}")


def standard_stages(schedule: tuple[int, ...]) -> tuple[StageSpec, ...]:
    """The six-stage trunk: three parallel rectangular stages with pooling,
    one pooled 3x3 stage, then two unpooled 3x3 stages."""
    if len(schedule) != 6:
        raise ConfigError(f"channel schedule needs 6 entries, got {len(schedule)}")
    return (
        StageSpec(((9, 3), (3, 9)), schedule[0], pool=True),
        StageSpec(((7, 3), (3, 7)), schedule[1], pool=True),
        StageSpec(((5, 3), (3, 5)), schedule[2], pool=True),
        StageSpec(((3, 3),), schedule[3], pool=True),
        StageSpec(((3, 3),), schedule[4], pool=False),
        StageSpec(((3, 3),), schedule[5], pool=False),
    )


@dataclass(frozen=True)
class FEConfig:
    input_size: int = 64
    input_channels: int = 3
    stages: tuple[StageSpec, ...] = standard_stages((8, 16, 32, 64, 64, 64))
    pool_grid: int = 4
    embedding_dim: int = 128

    def __post_init__(self):
        if not self.stages:
            raise ConfigError("need at least one stage")
        pools = sum(1 for s in self.stages if s.pool)
        if self.input_size >> pools < 1:
            raise ConfigError(
                f"input_size {self.input_size} too small for {pools} pool stages")
        if self.pool_grid < 1:
            raise ConfigError(f"pool_grid must be >= 1, got {self.pool_grid}")
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {self.embedding_dim}")

    @property
    def trunk_channels(self) -> int:
        return self.stages[-1].out_channels

    @property
    def flat_dim(self) -> int:
        return self.trunk_channels * self.pool_grid * self.pool_grid


@dataclass
class FEModel:
    config: FEConfig
    trunk: ParamSet
    head: ParamSet

    @property
    def params(self) -> ParamSet:
        return ParamSet.union(("trunk", self.trunk), ("head", self.head))


def build_fe(config: FEConfig, seed: int = 0) -> FEModel:
    rng = np.random.default_rng([seed, 0xFE])
    trunk = ParamSet()
    c_in = config.input_channels
    for i, stage in enumerate(config.stages):
        c_branch = stage.out_channels // len(stage.kernels)
        for b, (kh, kw) in enumerate(stage.kernels):
            w, bias = conv_params(rng, c_branch, c_in, kh, kw)
            trunk.add(f"stage{i}.branch{b}.w", w)
            trunk.add(f"stage{i}.branch{b}.b", bias)
        c_in = stage.out_channels
    head = ParamSet()
    w, b = linear_params(rng, config.embedding_dim, config.flat_dim)
    head.add("fc.w", w)
    head.add("fc.b", b)
    return FEModel(config=config, trunk=trunk, head=head)


def trunk_apply(model: FEModel, x: Tensor) -> Tensor:
    """Conv stages only: [N,C,H,W] -> final feature map (no pooling to grid)."""
    cfg = model.config
    if x.shape[-3] != cfg.input_channels:
        raise DimensionError(
            f"input has {x.shape[-3]} channels, config expects {cfg.input_channels}")
    if x.shape[-2] != cfg.input_size or x.shape[-1] != cfg.input_size:
        raise DimensionError(
            f"spatial dims {x.shape[-2:]} do not match config size {cfg.input_size}")
    for i, stage in enumerate(cfg.stages):
        branches = []
        for b in range(len(stage.kernels)):
            w = model.trunk[f"stage{i}.branch{b}.w"]
            bias = model.trunk[f"stage{i}.branch{b}.b"]
            branches.append(conv2d(x, w, bias, "same", fused_relu=True))
        x = branches[0] if len(branches) == 1 else concat_channels(*branches)
        if stage.pool:
            x = maxpool2(x)
    return x


def pooled_trunk_apply(model: FEModel, x: Tensor) -> Tensor:
    """Trunk, then the adaptive pool to the grid: [N,C,H,W] -> [N,flat_dim]."""
    feat = adaptive_avg_pool2d(trunk_apply(model, x), model.config.pool_grid)
    return feat.flatten_from(feat.ndim - 3)


def head_apply(model: FEModel, flat: Tensor) -> Tensor:
    """FC head: [N,flat_dim] pooled trunk features -> [N,embedding_dim] unit-norm."""
    return l2_normalize(linear(flat, model.head["fc.w"], model.head["fc.b"]))


def fe_apply(model: FEModel, x: Tensor) -> Tensor:
    """Full forward: [N,C,H,W] -> [N,embedding_dim] unit-norm embeddings."""
    return head_apply(model, pooled_trunk_apply(model, x))


def _forward_chunks(apply_fn, model: FEModel, mcis: np.ndarray) -> np.ndarray:
    arr = np.asarray(mcis, dtype=np.float32)
    if arr.ndim != 4:
        raise DimensionError(f"expected [N,C,H,W], got {arr.ndim} dims")
    with no_grad():
        outs = [apply_fn(model, Tensor(arr[s:s + _EMBED_CHUNK])).data
                for s in range(0, arr.shape[0], _EMBED_CHUNK)]
    return np.concatenate(outs, axis=0)


def embed_batch(model: FEModel, mcis: np.ndarray) -> np.ndarray:
    """Embed [N,3,H,W], 16 images per forward and no graph; returns
    [N,embedding_dim] float32."""
    return _forward_chunks(fe_apply, model, mcis)


def pooled_trunk_batch(model: FEModel, mcis: np.ndarray) -> np.ndarray:
    """Pooled trunk features of [N,3,H,W], 16 images per forward and no graph:
    [N,flat_dim]."""
    return _forward_chunks(pooled_trunk_apply, model, mcis)


def set_trainable(model: FEModel, trunk: bool, head: bool) -> None:
    """Freeze/unfreeze the parameter groups; frozen tensors get no gradients."""
    model.trunk.set_requires_grad(trunk)
    model.head.set_requires_grad(head)


# ---------------------------------------------------------------------------
# Autoencoder pretraining
# ---------------------------------------------------------------------------


def build_mirror_decoder(config: FEConfig, seed: int = 0) -> ParamSet:
    """Decoder mirroring the trunk: per encoder stage in reverse, upsample
    (if that stage pooled) then a 3x3 conv back to the stage's input width."""
    rng = np.random.default_rng([seed, 0xDEC])
    dec = ParamSet()
    c_in = config.input_channels
    widths = []
    for stage in config.stages:
        widths.append((c_in, stage.out_channels))
        c_in = stage.out_channels
    for i, (c_from, c_to) in enumerate(reversed(widths)):
        w, b = conv_params(rng, c_from, c_to, 3, 3)
        dec.add(f"dec{i}.w", w)
        dec.add(f"dec{i}.b", b)
    return dec


def decoder_apply(config: FEConfig, dec: ParamSet, feat: Tensor) -> Tensor:
    n_stages = len(config.stages)
    x = feat
    for i, stage in enumerate(reversed(config.stages)):
        if stage.pool:
            x = upsample2_nearest(x)
        last = i == n_stages - 1
        x = conv2d(x, dec[f"dec{i}.w"], dec[f"dec{i}.b"], "same", fused_relu=not last)
        if last:
            x = clamp01(x)
    return x


def pretrain_autoencoder(model: FEModel, images: np.ndarray, hyper: TrainHyper) -> list[float]:
    """Train trunk+mirror-decoder to reconstruct the [N,3,H,W] inputs, updating
    the model's trunk in place; discard the decoder. Returns the per-epoch
    loss log."""
    arr = np.asarray(images, dtype=np.float32)
    if arr.ndim != 4 or arr.shape[0] < 1:
        raise ContractError("pretraining requires at least one [3,H,W] image")
    cfg = model.config
    if arr.shape[1] != cfg.input_channels or arr.shape[2] != cfg.input_size:
        raise DimensionError(
            f"images {arr.shape[1:]} do not match config "
            f"({cfg.input_channels},{cfg.input_size},{cfg.input_size})")

    dec = build_mirror_decoder(cfg, seed=hyper.seed)
    joint = ParamSet.union(("trunk", model.trunk), ("dec", dec))
    was_trainable = [t.requires_grad for t in model.trunk.tensors()]
    model.trunk.set_requires_grad(True)
    try:
        return fit_mse(lambda x: decoder_apply(cfg, dec, trunk_apply(model, x)), joint,
                       arr, arr, hyper, 0xAE, "autoencoder")
    finally:
        for t, flag in zip(model.trunk.tensors(), was_trainable):
            t.requires_grad = flag
