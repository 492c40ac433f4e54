"""PGM and manifest round-trip tests."""

import numpy as np
import pytest

from palmvein import ContractError, DimensionError
from palmvein.dataio import (
    ManifestRecord,
    read_manifest,
    read_pgm,
    write_manifest,
    write_pgm,
)


class TestPgm:
    def test_round_trip_quantized(self, tmp_path, rng):
        img = rng.uniform(size=(17, 23)).astype(np.float32)
        p = tmp_path / "x.pgm"
        write_pgm(p, img)
        back = read_pgm(p)
        assert back.shape == img.shape and back.dtype == np.float32
        # one write/read quantizes to the 1/255 grid...
        assert np.abs(back - img).max() <= 0.5 / 255 + 1e-7
        # ...after which the file format is lossless
        write_pgm(tmp_path / "y.pgm", back)
        np.testing.assert_array_equal(read_pgm(tmp_path / "y.pgm"), back)

    def test_header_and_extremes(self, tmp_path):
        img = np.array([[0.0, 1.0], [0.5, 0.25]])
        p = tmp_path / "e.pgm"
        write_pgm(p, img)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        back = read_pgm(p)
        assert back[0, 0] == 0.0 and back[0, 1] == 1.0

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n255\n\x00\xff")
        back = read_pgm(p)
        np.testing.assert_array_equal(back, [[0.0, 1.0]])

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ContractError):
            read_pgm(p)

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ContractError):
            read_pgm(p)

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(DimensionError):
            write_pgm(tmp_path / "z.pgm", np.zeros((2, 2, 2)))


class TestManifest:
    def test_round_trip(self, tmp_path):
        records = [
            ManifestRecord(0, 0, "gallery", "A", "s0000_i00.pgm"),
            ManifestRecord(0, 1, "probe", "A", "s0000_i01.pgm"),
            ManifestRecord(7, 3, "probe", "B", "s0007_i03.pgm"),
        ]
        p = tmp_path / "manifest.tsv"
        write_manifest(records, p)
        assert read_manifest(p) == records
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "0\t0\tgallery\tA\ts0000_i00.pgm"

    def test_bad_role_rejected(self):
        with pytest.raises(ContractError):
            ManifestRecord(0, 0, "test", "A", "x.pgm")

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("0\t0\tgallery\tA\n")
        with pytest.raises(ContractError):
            read_manifest(p)
