"""Transform tests: vectorized TCM against a scalar pixel-loop oracle, the
batched ray march against a scalar per-ray oracle, and behavioral checks of
the ray-accumulation transform."""

import math
import os
import sys

import numpy as np
import pytest

from palmvein import ContractError, DimensionError
from palmvein.transforms import irt, tcm

OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1)]


def tcm_scalar(img):
    """Independent per-pixel reference: nested loops, no vectorization."""
    h, w = img.shape
    inner = np.zeros((h - 2, w - 2))
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            code = 0
            for k, (dy, dx) in enumerate(OFFSETS):
                if img[y + dy, x + dx] >= img[y, x]:
                    code |= 1 << k
            inner[y - 1, x - 1] = code
    full = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            full[y, x] = inner[min(max(y - 1, 0), h - 3), min(max(x - 1, 0), w - 3)]
    return (full / 255.0).astype(np.float32)


class TestTcm:
    def test_matches_scalar_oracle(self):
        for seed in range(5):
            img = np.random.default_rng(seed).uniform(size=(16, 16))
            np.testing.assert_array_equal(tcm(img), tcm_scalar(img))

    def test_matches_oracle_rectangular(self):
        img = np.random.default_rng(42).uniform(size=(9, 14))
        np.testing.assert_array_equal(tcm(img), tcm_scalar(img))

    def test_constant_image_all_ones(self):
        out = tcm(np.full((8, 8), 0.3))
        np.testing.assert_array_equal(out, 1.0)

    def test_bright_center_code_zero(self):
        img = np.zeros((7, 7))
        img[3, 3] = 1.0
        assert tcm(img)[3, 3] == 0.0

    def test_border_replicates_interior(self):
        img = np.random.default_rng(1).uniform(size=(5, 5))
        out = tcm(img)
        np.testing.assert_array_equal(out[0, 1:-1], out[1, 1:-1])
        np.testing.assert_array_equal(out[:, 0], out[:, 1])
        assert out[0, 0] == out[1, 1]

    def test_minimum_size_3x3(self):
        out = tcm(np.random.default_rng(2).uniform(size=(3, 3)))
        assert out.shape == (3, 3)
        assert np.unique(out).size == 1  # single interior code everywhere

    def test_too_small_raises(self):
        with pytest.raises(DimensionError):
            tcm(np.zeros((2, 5)))
        with pytest.raises(DimensionError):
            tcm(np.zeros(9))

    def test_monotone_remap_invariance(self):
        img = np.random.default_rng(5).uniform(size=(16, 16))
        base = tcm(img)
        for remap in (lambda v: np.sqrt(v), lambda v: 0.2 + 0.5 * v, lambda v: v ** 3):
            np.testing.assert_array_equal(base, tcm(remap(img)))

    def test_range_and_dtype(self):
        out = tcm(np.random.default_rng(3).uniform(size=(10, 10)))
        assert out.dtype == np.float32
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestIrt:
    def test_deterministic_given_seed(self):
        img = np.random.default_rng(0).uniform(size=(32, 32))
        a = irt(img, ray_count=2000, seed=11)
        b = irt(img, ray_count=2000, seed=11)
        np.testing.assert_array_equal(a, b)
        c = irt(img, ray_count=2000, seed=12)
        assert not np.array_equal(a, c)

    def test_constant_image_uniform_sums(self):
        out = irt(np.ones((64, 64)), ray_count=20000, seed=0)
        for axis in (0, 1):
            sums = out.sum(axis=axis)[8:-8]
            dev = np.abs(sums - sums.mean()).max() / sums.mean()
            assert dev < 0.10, f"axis {axis}: deviation {dev:.3f}"

    def test_dark_line_captures_rays(self):
        img = np.ones((64, 64))
        img[32, :] = 0.0
        out = irt(img, ray_count=20000, n_max=2.0, seed=7)
        line_mean = out[32, :].mean()
        bg_mean = np.delete(out, 32, axis=0).mean()
        assert line_mean > bg_mean

    def test_max_is_exactly_one(self):
        out = irt(np.random.default_rng(4).uniform(size=(24, 24)),
                  ray_count=500, seed=3)
        assert out.max() == 1.0

    def test_range_shape_dtype(self):
        img = np.random.default_rng(9).uniform(size=(20, 28))
        out = irt(img, ray_count=1000, seed=1)
        assert out.shape == (20, 28) and out.dtype == np.float32
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_degenerate_parameters_raise(self):
        img = np.ones((8, 8))
        with pytest.raises(ContractError):
            irt(img, ray_count=0)
        with pytest.raises(ContractError):
            irt(img, n_max=1.0)
        with pytest.raises(ContractError):
            irt(img, max_steps=0)
        with pytest.raises(DimensionError):
            irt(np.ones(8))
        with pytest.raises(DimensionError):
            irt(np.ones((2, 1, 8, 8)), seed=[0, 1])

    def test_tiny_image(self):
        out = irt(np.ones((4, 4)), ray_count=200, seed=2)
        assert out.shape == (4, 4) and out.max() == 1.0


def irt_scalar(img, ray_count, n_max, seed):
    """Independent reference: the launch written out again, then one ray at a
    time through the cells in plain Python floats."""
    h, w = img.shape
    n_map = 1.0 + (1.0 - np.clip(np.asarray(img, dtype=np.float64), 0.0, 1.0)) * (n_max - 1.0)
    rng = np.random.default_rng(seed)
    perim = rng.uniform(0.0, 2.0 * (w + h), size=ray_count)
    theta = np.arcsin(2.0 * rng.uniform(size=ray_count) - 1.0)
    ct, st = np.cos(theta), np.sin(theta)
    counts = np.zeros((h, w), dtype=np.int64)
    for r in range(ray_count):
        p = float(perim[r])
        if p < w:
            x, y, nx, ny = p, 0.0, 0.0, 1.0
        elif p < w + h:
            x, y, nx, ny = float(w), p - w, -1.0, 0.0
        elif p < 2 * w + h:
            x, y, nx, ny = p - (w + h), float(h), 0.0, -1.0
        else:
            x, y, nx, ny = 0.0, p - (2 * w + h), 1.0, 0.0
        dx = float(nx * ct[r] - ny * st[r])
        dy = float(nx * st[r] + ny * ct[r])
        cx = w - 1 if nx < 0 else min(max(math.floor(x), 0), w - 1)
        cy = h - 1 if ny < 0 else min(max(math.floor(y), 0), h - 1)
        counts[cy, cx] += 1
        for _ in range(4 * (h + w)):
            tx = (cx + 1 - x) / dx if dx > 0 else (cx - x) / dx if dx < 0 else math.inf
            ty = (cy + 1 - y) / dy if dy > 0 else (cy - y) / dy if dy < 0 else math.inf
            sx, sy = float(np.sign(dx)), float(np.sign(dy))
            if tx <= ty:  # crosses a vertical cell edge
                x, y = float(cx + (dx > 0)), y + dy * tx
                ncx, ncy, sin1 = cx + int(sx), cy, abs(dy)
            else:
                x, y = x + dx * ty, float(cy + (dy > 0))
                ncx, ncy, sin1 = cx, cy + int(sy), abs(dx)
            inside = 0 <= ncx < w and 0 <= ncy < h
            sin2 = n_map[cy, cx] * sin1 / (n_map[ncy, ncx] if inside else 1.0)
            if sin2 >= 1.0:  # total internal reflection: mirror, stay put
                dx, dy = (-dx, dy) if tx <= ty else (dx, -dy)
                continue
            cos2 = math.sqrt(1.0 - sin2 * sin2)
            dx, dy = (sx * cos2, sy * sin2) if tx <= ty else (sx * sin2, sy * cos2)
            cx, cy = ncx, ncy
            if not inside:
                break
            counts[cy, cx] += 1
    return (counts / counts.max()).astype(np.float32)


def _bits(a):
    return np.asarray(a, dtype=np.float32).view(np.uint32)


class TestIrtBatch:
    @staticmethod
    def mixed_batch(h=14, w=12):
        """11 random, constant, dark-line and all-dark images with their seeds."""
        n = 11
        rng = np.random.default_rng(21)
        imgs = rng.uniform(size=(n, h, w))
        imgs[1] = 1.0
        imgs[2, h // 2, :] = 0.0
        imgs[3] = 0.0
        imgs[4, :, w // 3] = 0.05
        return imgs, [1000 + 37 * k for k in range(n)]

    def test_matches_scalar_oracle(self):
        imgs, seeds = self.mixed_batch(h=9, w=7)
        imgs, seeds = imgs[:5], seeds[:5]
        out = irt(imgs, ray_count=150, n_max=2.5, seed=seeds)
        for img, s, got in zip(imgs, seeds, out):
            np.testing.assert_array_equal(_bits(got), _bits(irt_scalar(img, 150, 2.5, s)))

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    def test_batch_equals_images_alone(self, monkeypatch, cpus):
        # 44 images: several chunks, the last one short; with 5 CPUs more
        # threads than cores share the output array, switching often
        imgs, seeds = self.mixed_batch()
        alone = np.stack([irt(img, ray_count=200, seed=s) for img, s in zip(imgs, seeds)])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = irt(np.concatenate([imgs] * 4), ray_count=200, seed=seeds * 4)
        finally:
            sys.setswitchinterval(interval)
        assert out.shape == (44,) + imgs.shape[1:] and out.dtype == np.float32
        np.testing.assert_array_equal(_bits(out), _bits(np.concatenate([alone] * 4)))

    def test_seed_count_must_match(self):
        imgs, seeds = self.mixed_batch()
        imgs, seeds = imgs[:3], seeds[:3]
        with pytest.raises(ContractError):
            irt(imgs, ray_count=50, seed=seeds[:2])
        with pytest.raises(ContractError):
            irt(imgs, ray_count=50, seed=7)
