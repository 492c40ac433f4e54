"""Weights-file tests: bit-exact round trips and corruption rejection."""

import struct

import numpy as np
import pytest

from palmvein import CorruptWeightsError, ParamSet, Tensor, WeightsVersionError
from palmvein.weights import load_arrays, load_weights, save_weights


def sample_params(rng):
    ps = ParamSet()
    ps.add("enc.w", Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True))
    ps.add("enc.b", Tensor(np.zeros(4, dtype=np.float32), requires_grad=True))
    ps.add("fc.w", Tensor(rng.normal(size=(2, 16)).astype(np.float32), requires_grad=True))
    return ps


class TestRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        ps = sample_params(rng)
        p = tmp_path / "w.vfw"
        save_weights(ps, p)
        arrays = load_arrays(p)
        assert list(arrays) == ps.names()  # order preserved
        for name, t in ps.items():
            assert arrays[name].dtype == np.float32
            np.testing.assert_array_equal(arrays[name], t.data)
            assert arrays[name].tobytes() == t.data.tobytes()

    def test_load_into_paramset(self, tmp_path, rng):
        ps = sample_params(rng)
        p = tmp_path / "w.vfw"
        save_weights(ps, p)
        fresh = sample_params(np.random.default_rng(999))
        load_weights(p, fresh)
        for name, t in ps.items():
            np.testing.assert_array_equal(fresh[name].data, t.data)

    def test_save_load_save_identical_bytes(self, tmp_path, rng):
        ps = sample_params(rng)
        p1, p2 = tmp_path / "a.vfw", tmp_path / "b.vfw"
        save_weights(ps, p1)
        save_weights(load_arrays(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        ps = ParamSet()
        ps.add("x", Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)))
        p = tmp_path / "h.vfw"
        save_weights(ps, p)
        raw = p.read_bytes()
        assert raw[:4] == b"VFW1"
        version, count = struct.unpack_from("<II", raw, 4)
        assert (version, count) == (1, 1)
        name_len = struct.unpack_from("<I", raw, 12)[0]
        assert raw[16:16 + name_len] == b"x"
        rank = struct.unpack_from("<I", raw, 17)[0]
        assert rank == 2
        assert struct.unpack_from("<II", raw, 21) == (2, 3)

    def test_scalar_rank_zero(self, tmp_path):
        save_weights({"s": np.float32(2.5)}, tmp_path / "s.vfw")
        back = load_arrays(tmp_path / "s.vfw")
        assert back["s"].shape == () and back["s"] == np.float32(2.5)


class TestRejection:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.vfw"
        p.write_bytes(b"XXXX" + bytes(8))
        with pytest.raises(CorruptWeightsError):
            load_arrays(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "v9.vfw"
        p.write_bytes(b"VFW1" + struct.pack("<II", 9, 0))
        with pytest.raises(WeightsVersionError):
            load_arrays(p)

    def test_truncated_tensor(self, tmp_path, rng):
        ps = sample_params(rng)
        p = tmp_path / "t.vfw"
        save_weights(ps, p)
        (tmp_path / "cut.vfw").write_bytes(p.read_bytes()[:-10])
        with pytest.raises(CorruptWeightsError):
            load_arrays(tmp_path / "cut.vfw")

    def test_non_utf8_name(self, tmp_path):
        p = tmp_path / "n.vfw"
        save_weights({"ab": np.zeros(2, np.float32)}, p)
        raw = bytearray(p.read_bytes())
        raw[16:18] = b"\xff\xfe"  # the record name's two bytes
        p.write_bytes(bytes(raw))
        with pytest.raises(CorruptWeightsError, match="UTF-8"):
            load_arrays(p)

    def test_trailing_garbage(self, tmp_path, rng):
        p = tmp_path / "g.vfw"
        save_weights(sample_params(rng), p)
        (tmp_path / "extra.vfw").write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(CorruptWeightsError):
            load_arrays(tmp_path / "extra.vfw")

    def test_name_mismatch_strict(self, tmp_path, rng):
        p = tmp_path / "w.vfw"
        save_weights(sample_params(rng), p)
        other = ParamSet()
        other.add("different", Tensor(np.zeros(3, dtype=np.float32)))
        with pytest.raises(CorruptWeightsError):
            load_weights(p, other)

    def test_shape_mismatch(self, tmp_path, rng):
        p = tmp_path / "w.vfw"
        save_weights({"enc.w": np.zeros((2, 2), np.float32)}, p)
        ps = ParamSet()
        ps.add("enc.w", Tensor(np.zeros((3, 3), np.float32)))
        with pytest.raises(CorruptWeightsError):
            load_weights(p, ps, strict=False)

    def test_no_partial_load_on_corruption(self, tmp_path, rng):
        ps = sample_params(rng)
        p = tmp_path / "w.vfw"
        save_weights(ps, p)
        (tmp_path / "cut.vfw").write_bytes(p.read_bytes()[:-10])
        fresh = sample_params(np.random.default_rng(1))
        before = {name: t.data.copy() for name, t in fresh.items()}
        with pytest.raises(CorruptWeightsError):
            load_weights(tmp_path / "cut.vfw", fresh)
        for name, arr in before.items():
            np.testing.assert_array_equal(fresh[name].data, arr)
