"""Transform tests: vectorized TCM against a scalar pixel-loop oracle, and
behavioral checks of the ray-accumulation transform."""

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

    def test_tiny_image(self):
        out = irt(np.ones((4, 4)), ray_count=200, seed=2)
        assert out.shape == (4, 4) and out.max() == 1.0
