"""Feature-extractor tests: stage arithmetic for both presets, parallel
rectangular branches, unit-norm embeddings, freeze semantics, and
autoencoder pretraining."""

import numpy as np
import pytest

from palmvein import ConfigError, ContractError, DimensionError, Tensor, backward
from palmvein.fe import (
    FEConfig,
    StageSpec,
    build_fe,
    build_mirror_decoder,
    decoder_apply,
    embed_batch,
    fe_apply,
    pretrain_autoencoder,
    set_trainable,
    standard_stages,
    trunk_apply,
)
from palmvein.optim import AdamState, TrainHyper, adam_step


def fullscale_config() -> FEConfig:
    """The full-scale extractor: 150x150 input, 7x7x512 trunk interface."""
    return FEConfig(input_size=150, stages=standard_stages((64, 128, 256, 512, 512, 512)),
                    pool_grid=7)


def param_values(params) -> dict[str, np.ndarray]:
    """A copy of every parameter's values, by name."""
    return {name: t.data.copy() for name, t in params.items()}


def reconstruction_mse(model, dec, images: np.ndarray) -> float:
    """Mean reconstruction error of the trunk plus mirror decoder on `images`."""
    recon = decoder_apply(model.config, dec, trunk_apply(model, Tensor(images)))
    return float(((recon.data - images) ** 2).mean())


class TestConfig:
    def test_desk_preset_arithmetic(self):
        cfg = FEConfig()
        assert cfg.input_size == 64 and cfg.input_channels == 3
        assert cfg.trunk_channels == 64
        assert cfg.pool_grid == 4
        assert cfg.flat_dim == 1024
        assert cfg.embedding_dim == 128

    def test_fullscale_preset_arithmetic(self):
        cfg = fullscale_config()
        assert cfg.input_size == 150
        assert cfg.trunk_channels == 512
        assert cfg.pool_grid == 7
        assert cfg.flat_dim == 7 * 7 * 512 == 25088

    def test_stage_list_shape(self):
        cfg = FEConfig()
        assert [len(s.kernels) for s in cfg.stages] == [2, 2, 2, 1, 1, 1]
        assert [s.pool for s in cfg.stages] == [True, True, True, True, False, False]
        assert cfg.stages[0].kernels == ((9, 3), (3, 9))
        assert cfg.stages[1].kernels == ((7, 3), (3, 7))
        assert cfg.stages[2].kernels == ((5, 3), (3, 5))

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            StageSpec(((3, 3), (3, 3), (3, 3)), 8, True)
        with pytest.raises(ConfigError):
            StageSpec(((9, 3), (3, 9)), 7, True)  # odd split across branches
        with pytest.raises(ConfigError):
            StageSpec(((0, 3),), 8, True)
        with pytest.raises(ConfigError):
            FEConfig(input_size=8)  # four pools need >= 16


class TestBuildAndForward:
    def test_parallel_branches_concat(self):
        fe = build_fe(FEConfig(), seed=0)
        assert fe.trunk["stage0.branch0.w"].shape == (4, 3, 9, 3)
        assert fe.trunk["stage0.branch1.w"].shape == (4, 3, 3, 9)
        assert fe.trunk["stage1.branch0.w"].shape == (8, 8, 7, 3)
        assert fe.trunk["stage3.branch0.w"].shape == (64, 32, 3, 3)
        assert "stage3.branch1.w" not in fe.trunk

    def test_build_deterministic(self):
        a = build_fe(FEConfig(), seed=3)
        b = build_fe(FEConfig(), seed=3)
        for name, t in a.trunk.items():
            np.testing.assert_array_equal(t.data, b.trunk[name].data)

    def test_fullscale_trunk_interface(self, rng):
        fe = build_fe(fullscale_config(), seed=0)
        x = Tensor(rng.uniform(size=(1, 3, 150, 150)).astype(np.float32))
        feat = trunk_apply(fe, x)
        assert feat.shape == (1, 512, 9, 9)  # 150 -> 75 -> 37 -> 18 -> 9
        emb = fe_apply(fe, x)
        assert emb.shape == (1, 128)
        assert abs(np.linalg.norm(emb.data) - 1.0) < 1e-5

    def test_embeddings_unit_norm(self, rng):
        fe = build_fe(FEConfig(), seed=0)
        x = rng.uniform(size=(8, 3, 64, 64)).astype(np.float32)
        e = embed_batch(fe, x)
        assert e.shape == (8, 128)
        np.testing.assert_allclose(np.linalg.norm(e, axis=1), 1.0, atol=1e-5)

    def test_embed_deterministic_and_matches_batch(self, rng):
        # 70 images span two 64-image forwards; each row matches a batch of one
        fe = build_fe(FEConfig(), seed=0)
        mcis = rng.uniform(size=(70, 3, 64, 64)).astype(np.float32)
        a = embed_batch(fe, mcis[:1])
        np.testing.assert_array_equal(a, embed_batch(fe, mcis[:1]))
        batch = embed_batch(fe, mcis)
        assert batch.shape == (70, 128)
        for i in (0, 63, 64, 69):
            np.testing.assert_allclose(batch[i], embed_batch(fe, mcis[i:i + 1])[0],
                                       atol=1e-6)

    def test_dim_mismatch_raises(self, rng):
        fe = build_fe(FEConfig(), seed=0)
        with pytest.raises(DimensionError):
            embed_batch(fe, rng.uniform(size=(1, 3, 32, 32)))
        with pytest.raises(DimensionError):
            embed_batch(fe, rng.uniform(size=(1, 1, 64, 64)))
        with pytest.raises(DimensionError):
            embed_batch(fe, rng.uniform(size=(3, 64, 64)))


class TestFreezing:
    def run_steps(self, fe, x, steps=10):
        state = AdamState()
        for _ in range(steps):
            fe.params.zero_grad()
            backward(fe_apply(fe, x).sum())
            adam_step(fe.params, state, lr=1e-2)

    def test_frozen_trunk_bit_identical(self, rng):
        fe = build_fe(FEConfig(), seed=0)
        x = Tensor(rng.uniform(size=(2, 3, 64, 64)).astype(np.float32))
        trunk_before = param_values(fe.trunk)
        head_before = param_values(fe.head)
        set_trainable(fe, trunk=False, head=True)
        self.run_steps(fe, x)
        for name, arr in trunk_before.items():
            np.testing.assert_array_equal(fe.trunk[name].data, arr)
        assert any(not np.array_equal(fe.head[name].data, arr)
                   for name, arr in head_before.items())

    def test_both_frozen_no_grads(self, rng):
        fe = build_fe(FEConfig(), seed=0)
        set_trainable(fe, trunk=False, head=False)
        fe.params.zero_grad()
        backward(fe_apply(fe, Tensor(rng.uniform(size=(1, 3, 64, 64)).astype(np.float32))).sum())
        assert all(t.grad is None for t in fe.params.tensors())

    def test_unfreeze_restores_updates(self, rng):
        fe = build_fe(FEConfig(), seed=0)
        x = Tensor(rng.uniform(size=(2, 3, 64, 64)).astype(np.float32))
        set_trainable(fe, trunk=False, head=True)
        self.run_steps(fe, x, steps=2)
        set_trainable(fe, trunk=True, head=True)
        before = param_values(fe.trunk)
        self.run_steps(fe, x, steps=2)
        assert any(not np.array_equal(fe.trunk[name].data, arr)
                   for name, arr in before.items())


class TestAutoencoder:
    def test_empty_rejected(self):
        fe = build_fe(FEConfig(), seed=0)
        with pytest.raises(ContractError):
            pretrain_autoencoder(fe, np.zeros((0, 3, 64, 64), np.float32),
                                 TrainHyper(epochs=1, batch_size=8))

    def test_decoder_mirror_shape(self, rng):
        cfg = FEConfig()
        fe = build_fe(cfg, seed=0)
        dec = build_mirror_decoder(cfg, seed=0)
        x = Tensor(rng.uniform(size=(2, 3, 64, 64)).astype(np.float32))
        recon = decoder_apply(cfg, dec, trunk_apply(fe, x))
        assert recon.shape == (2, 3, 64, 64)
        assert recon.data.min() >= 0.0 and recon.data.max() <= 1.0

    def test_pretraining_improves_reconstruction(self, rng):
        cfg = FEConfig()
        fe = build_fe(cfg, seed=0)
        imgs = rng.uniform(size=(16, 3, 64, 64)).astype(np.float32)
        untrained_dec = build_mirror_decoder(cfg, seed=7)
        mse_untrained = reconstruction_mse(fe, untrained_dec, imgs)
        log = pretrain_autoencoder(fe, imgs, TrainHyper(epochs=4, batch_size=8, seed=7))
        assert len(log) == 4
        assert np.all(np.isfinite(log))
        assert log[-1] < mse_untrained

    def test_trainability_flags_restored(self, rng):
        fe = build_fe(FEConfig(), seed=0)
        set_trainable(fe, trunk=False, head=True)
        imgs = rng.uniform(size=(4, 3, 64, 64)).astype(np.float32)
        pretrain_autoencoder(fe, imgs, TrainHyper(epochs=1, batch_size=8, seed=0))
        assert all(not t.requires_grad for t in fe.trunk.tensors())

    def test_nan_weight_diverges_and_restores_flags(self, rng):
        fe = build_fe(FEConfig(), seed=0)
        set_trainable(fe, trunk=False, head=True)
        fe.trunk["stage0.branch0.w"].data[0, 0, 0, 0] = np.nan
        imgs = rng.uniform(size=(4, 3, 64, 64)).astype(np.float32)
        with pytest.raises(ContractError, match="autoencoder diverged at step 0"):
            pretrain_autoencoder(fe, imgs, TrainHyper(epochs=1, batch_size=8, seed=0))
        assert all(not t.requires_grad for t in fe.trunk.tensors())

    def test_dim_mismatch_rejected(self, rng):
        fe = build_fe(FEConfig(), seed=0)
        with pytest.raises(DimensionError):
            pretrain_autoencoder(fe, rng.uniform(size=(2, 3, 32, 32)).astype(np.float32),
                                 TrainHyper(epochs=1, batch_size=8))
