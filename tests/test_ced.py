"""Encoder-decoder network tests: architecture arithmetic (pinned by hand),
shape symmetry, merge-connection gradient flow, training behavior, stacking,
feature extraction, and the memory of graph-free inference and of a backward
pass that consumes its graph."""

import tracemalloc

import numpy as np
import pytest

from palmvein import ConfigError, ContractError, DimensionError, Tensor, backward, mse_loss
from palmvein.ced import (
    CEDConfig,
    build_ced,
    ced_apply,
    ced_forward,
    extract_features_batch,
    finetune_stacked,
    stack_ceds,
    stacked_apply,
    train_ced,
)
from palmvein.optim import AdamState, TrainHyper, adam_step
from palmvein.synth import generate_subject, render_sample
from palmvein.transforms import tcm


STACK_STEP_PEAK_BOUND_MB = 100


def small_cfg():
    return CEDConfig(depth=2, base_channels=4, input_size=32)


def ced_param_count(config: CEDConfig) -> int:
    """Closed-form parameter count for a given config."""
    def conv(co, ci, k=3):
        return co * ci * k * k + co

    total = 0
    c_in = config.in_channels
    for level in range(config.depth):
        c = config.level_channels(level)
        total += conv(c, c_in) + conv(c, c)
        c_in = c
    c_mid = config.base_channels << config.depth
    total += conv(c_mid, c_in) + conv(c_mid, c_mid)
    c_below = c_mid
    for level in reversed(range(config.depth)):
        c = config.level_channels(level)
        total += conv(c, c_below + c) + conv(c, c)
        c_below = c
    total += conv(1, config.base_channels, k=1)
    return total


class TestConfig:
    def test_defaults_valid(self):
        cfg = CEDConfig()
        assert (cfg.depth, cfg.base_channels, cfg.input_size) == (3, 16, 64)
        assert cfg.input_size >> cfg.depth == 8  # bottleneck spatial size

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigError):
            CEDConfig(depth=3, input_size=60)

    def test_degenerate_rejected(self):
        with pytest.raises(ConfigError):
            CEDConfig(depth=0)
        with pytest.raises(ConfigError):
            CEDConfig(base_channels=2)


class TestBuild:
    def test_param_count_pinned_by_hand(self):
        # Hand tally for depth=3, base=16, 1 input channel:
        #   enc: (1->16,16->16) + (16->32,32->32) + (32->64,64->64)
        #      = 160+2320 + 4640+9248 + 18496+36928
        #   bottleneck: 64->128, 128->128 = 73856 + 147584
        #   dec: (192->64,64->64) + (96->32,32->32) + (48->16,16->16)
        #      = 110656+36928 + 27680+9248 + 6928+2320
        #   head 1x1: 16->1 = 17
        model = build_ced(CEDConfig(), seed=0)
        total = sum(t.size for t in model.params.tensors())
        assert total == 487009
        assert ced_param_count(CEDConfig()) == 487009

    def test_param_count_formula_other_configs(self):
        for cfg in (small_cfg(), CEDConfig(depth=1, base_channels=8, input_size=64)):
            model = build_ced(cfg, seed=1)
            assert sum(t.size for t in model.params.tensors()) == ced_param_count(cfg)

    def test_expected_param_names(self):
        names = set(build_ced(small_cfg(), seed=0).params.names())
        for expect in ("enc.0.conv1.w", "enc.1.conv2.b", "bottleneck.conv1.w",
                       "dec.1.conv1.w", "dec.0.conv2.b", "head.conv.w"):
            assert expect in names

    def test_build_deterministic(self):
        a = build_ced(small_cfg(), seed=5)
        b = build_ced(small_cfg(), seed=5)
        for name, t in a.params.items():
            np.testing.assert_array_equal(t.data, b.params[name].data)


class TestForward:
    def test_shape_symmetry_and_range(self, rng):
        model = build_ced(small_cfg(), seed=0)
        img = rng.uniform(size=(1, 32, 32)).astype(np.float32)
        out = ced_forward(model, img)
        assert out.shape == (1, 32, 32) and out.dtype == np.float32
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_deterministic(self, rng):
        model = build_ced(small_cfg(), seed=0)
        img = rng.uniform(size=(1, 32, 32)).astype(np.float32)
        np.testing.assert_array_equal(ced_forward(model, img), ced_forward(model, img))

    def test_batch_matches_single(self, rng):
        # 40 images span two 32-image forwards; each row matches a batch of one
        model = build_ced(small_cfg(), seed=0)
        imgs = rng.uniform(size=(40, 32, 32)).astype(np.float32)
        batch = ced_forward(model, imgs)
        assert batch.shape == (40, 32, 32)
        for i in (0, 31, 32, 39):
            np.testing.assert_allclose(batch[i], ced_forward(model, imgs[i:i + 1])[0],
                                       atol=1e-6)

    def test_zero_head_gives_constant_bias(self, rng):
        model = build_ced(small_cfg(), seed=0)
        model.params["head.conv.w"].data[:] = 0.0
        model.params["head.conv.b"].data[:] = 0.25
        out = ced_forward(model, rng.uniform(size=(2, 32, 32)))
        np.testing.assert_array_equal(out, np.full((2, 32, 32), 0.25, np.float32))

    def test_dim_mismatch_raises(self, rng):
        model = build_ced(small_cfg(), seed=0)
        with pytest.raises(DimensionError):
            ced_forward(model, rng.uniform(size=(1, 64, 64)))
        with pytest.raises(DimensionError):
            ced_forward(model, rng.uniform(size=(32, 32)))  # a batch needs [N,H,W]
        with pytest.raises(DimensionError):
            ced_apply(model, Tensor(rng.uniform(size=(1, 3, 32, 32)).astype(np.float32)))

    def test_merge_connection_carries_gradient(self, rng):
        # Zero every decoder conv1 weight EXCEPT the merge channels: signal
        # must still reach the output through the skips alone.
        cfg = small_cfg()
        model = build_ced(cfg, seed=0)
        c_below = cfg.base_channels << cfg.depth
        for level in reversed(range(cfg.depth)):
            w = model.params[f"dec.{level}.conv1.w"]
            w.data[:, :c_below] = 0.0  # upsampled-path channels come first
            c_below = cfg.level_channels(level)
        x = Tensor(rng.uniform(size=(1, 1, 32, 32)).astype(np.float32), requires_grad=True)
        backward(ced_apply(model, x).sum())
        assert x.grad is not None and np.abs(x.grad).max() > 0


class TestTraining:
    def test_empty_pairs_rejected(self):
        with pytest.raises(ContractError):
            train_ced(build_ced(small_cfg(), seed=0), [], TrainHyper())

    def test_nan_weight_diverges(self, rng):
        model = build_ced(small_cfg(), seed=0)
        model.params["enc.0.conv1.w"].data[0, 0, 0, 0] = np.nan
        img = rng.uniform(size=(32, 32)).astype(np.float32)
        with pytest.raises(ContractError, match="diverged"):
            train_ced(model, [(img, img)], TrainHyper(epochs=1, batch_size=1))

    def test_single_pair_memorization(self):
        img = render_sample(generate_subject(0, 0), 0, 64)
        target = tcm(img)
        model = build_ced(CEDConfig(base_channels=8), seed=0)
        log = train_ced(model, [(img, target)],
                        TrainHyper(epochs=200, batch_size=1, lr=2e-3, seed=0))
        assert len(log) == 200
        assert np.all(np.isfinite(log))
        assert log[-1] < 0.01
        assert log[-1] < log[0]

    def test_beats_identity_baseline_on_tcm(self):
        pairs = []
        for sid in range(10):
            template = generate_subject(sid, 3)
            for pose in range(2):
                img = render_sample(template, pose, 32)
                pairs.append((img, tcm(img)))
        model = build_ced(CEDConfig(depth=2, base_channels=8, input_size=32), seed=0)
        log = train_ced(model, pairs, TrainHyper(epochs=8, batch_size=10, lr=2e-3, seed=0))
        identity_mse = float(np.mean([((a - b) ** 2).mean() for a, b in pairs]))
        assert log[-1] < identity_mse
        assert np.all(np.isfinite(log))
        running_min = np.minimum.accumulate(log)
        assert np.all(np.diff(running_min) <= 0)


class TestStack:
    def make_stack(self):
        cfg = small_cfg()
        return stack_ceds(build_ced(cfg, seed=1), build_ced(cfg, seed=2))

    def test_forward_is_composition(self, rng):
        stacked = self.make_stack()
        img = rng.uniform(size=(1, 32, 32)).astype(np.float32)
        via_stack = stacked_apply(stacked, Tensor(img[:, None])).data[:, 0]
        manual = ced_forward(stacked.second, ced_forward(stacked.first, img))
        np.testing.assert_array_equal(via_stack, manual)
        assert via_stack.min() >= 0.0 and via_stack.max() <= 1.0

    def test_param_names_disjoint_union(self):
        stacked = self.make_stack()
        names = stacked.params.names()
        n1 = [n for n in names if n.startswith("ced1.")]
        n2 = [n for n in names if n.startswith("ced2.")]
        assert len(n1) + len(n2) == len(names)
        assert len(n1) == len(stacked.first.params)
        assert stacked.params["ced1.head.conv.w"] is stacked.first.params["head.conv.w"]

    def test_size_mismatch_rejected(self):
        a = build_ced(small_cfg(), seed=0)
        b = build_ced(CEDConfig(depth=2, base_channels=4, input_size=64), seed=0)
        with pytest.raises(DimensionError):
            stack_ceds(a, b)

    def test_zero_epoch_finetune_is_identity(self, rng):
        stacked = self.make_stack()
        img = rng.uniform(size=(32, 32)).astype(np.float32)
        before = extract_features_batch(stacked, img[None])
        log = finetune_stacked(stacked, [(img, img)], TrainHyper(epochs=0))
        assert log == []
        np.testing.assert_array_equal(extract_features_batch(stacked, img[None]), before)

    def test_finetune_updates_both_networks(self, rng):
        stacked = self.make_stack()
        img = rng.uniform(size=(32, 32)).astype(np.float32)
        tgt = rng.uniform(size=(32, 32)).astype(np.float32)
        w1_before = stacked.first.params["enc.0.conv1.w"].data.copy()
        w2_before = stacked.second.params["enc.0.conv1.w"].data.copy()
        log = finetune_stacked(stacked, [(img, tgt)],
                               TrainHyper(epochs=5, batch_size=1, lr=1e-3, seed=0))
        assert np.all(np.isfinite(log))
        assert not np.array_equal(stacked.first.params["enc.0.conv1.w"].data, w1_before)
        assert not np.array_equal(stacked.second.params["enc.0.conv1.w"].data, w2_before)

    def test_stacked_apply_graph_reaches_both(self, rng):
        stacked = self.make_stack()
        x = Tensor(rng.uniform(size=(1, 1, 32, 32)).astype(np.float32))
        backward(stacked_apply(stacked, x).sum())
        assert stacked.first.params["enc.0.conv1.w"].grad is not None
        assert stacked.second.params["enc.0.conv1.w"].grad is not None


class TestExtractFeatures:
    def test_channel_stack(self, rng):
        cfg = small_cfg()
        stacked = stack_ceds(build_ced(cfg, seed=1), build_ced(cfg, seed=2))
        img = rng.uniform(size=(1, 32, 32)).astype(np.float32)
        feats = extract_features_batch(stacked, img)
        assert feats.shape == (1, 3, 32, 32)
        learned_tcm = ced_forward(stacked.first, img)
        np.testing.assert_array_equal(feats[:, 0], img)
        np.testing.assert_array_equal(feats[:, 1], learned_tcm)
        np.testing.assert_array_equal(feats[:, 2], ced_forward(stacked.second, learned_tcm))

    def test_batch_variant_matches(self, rng):
        cfg = small_cfg()
        stacked = stack_ceds(build_ced(cfg, seed=1), build_ced(cfg, seed=2))
        imgs = rng.uniform(size=(3, 32, 32)).astype(np.float32)
        batch = extract_features_batch(stacked, imgs)
        assert batch.shape == (3, 3, 32, 32)
        for i in range(3):
            one = extract_features_batch(stacked, imgs[i:i + 1])[0]
            np.testing.assert_allclose(batch[i], one, atol=1e-6)

    def test_dim_mismatch(self, rng):
        cfg = small_cfg()
        stacked = stack_ceds(build_ced(cfg, seed=1), build_ced(cfg, seed=2))
        with pytest.raises(DimensionError):
            extract_features_batch(stacked, rng.uniform(size=(32, 32)))
        with pytest.raises(DimensionError):
            extract_features_batch(stacked, rng.uniform(size=(2, 3, 32, 32)))


def keep_graph_backward(loss):
    """Reference traversal: every closure once, in reverse topological order,
    with nothing dropped, as backward ran before it consumed the graph."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if p.requires_grad and id(p) not in seen)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


class TestGraphMemory:
    """Desk-size CED (depth 3, 16 base channels, 64 px)."""

    @pytest.fixture
    def desk(self, rng):
        model = build_ced(CEDConfig(), seed=0)
        x = rng.uniform(size=(10, 1, 64, 64)).astype(np.float32)
        t = rng.uniform(size=(10, 1, 64, 64)).astype(np.float32)
        return model, x, t

    def test_leaf_grads_bit_equal_to_keep_graph_traversal(self, desk):
        model, x, t = desk
        model.params.zero_grad()
        keep_graph_backward(mse_loss(ced_apply(model, Tensor(x[:4])), Tensor(t[:4])))
        want = {name: p.grad.copy() for name, p in model.params.items()}
        model.params.zero_grad()
        out = ced_apply(model, Tensor(x[:4]))
        backward(mse_loss(out, Tensor(t[:4])))
        assert out.grad is None and out._parents == ()
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.grad, want[name], err_msg=name)

    def test_training_step_peak_within_forward_footprint(self, desk):
        # a step that kept every interior grad until the graph dropped
        # peaked near 2x what its forward left live
        model, x, t = desk
        state = AdamState()
        tracemalloc.start()
        try:
            model.params.zero_grad()
            loss = mse_loss(ced_apply(model, Tensor(x)), Tensor(t))
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            adam_step(model.params, state, lr=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * live, (peak, live)

    def test_stack_step_peak_bound(self, desk, rng):
        # one desk stack fine-tune step at batch 10 (forward, backward, Adam)
        # peaks near 78 MB traced; the bound fails a graph that keeps each
        # pre-activation and upsampled merge input beside its successor and
        # copies fresh gradients, which peaks near 135 MB
        _, x, t = desk
        stacked = stack_ceds(build_ced(CEDConfig(), seed=1), build_ced(CEDConfig(), seed=2))
        state = AdamState()
        tracemalloc.start()
        try:
            stacked.params.zero_grad()
            backward(mse_loss(stacked_apply(stacked, Tensor(x)), Tensor(t)))
            adam_step(stacked.params, state, lr=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < STACK_STEP_PEAK_BOUND_MB * 1e6, peak

    def test_inference_forward_peak_half_of_graph_forward(self, desk, rng):
        model = desk[0]
        imgs = rng.uniform(size=(32, 64, 64)).astype(np.float32)
        peaks = []
        for forward in (lambda: ced_forward(model, imgs),
                        lambda: ced_apply(model, Tensor(imgs[:, None])).data[:, 0]):
            tracemalloc.start()
            try:
                out = forward()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert out.shape == (32, 64, 64)
        assert peaks[0] <= 0.5 * peaks[1], peaks
