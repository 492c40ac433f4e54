"""Image and manifest I/O.

Images are stored as binary 8-bit PGM (P5). The manifest is a tab-separated
file with one record per line and no header; columns, in order:
subject_id, sample_index, role (gallery|probe), distribution (A|B),
relative_path. Loaders re-normalize pixels to [0,1] floats by /255.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DimensionError

ROLES = ("gallery", "probe")

MANIFEST_NAME = "manifest.tsv"


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a [0,1] float image as binary PGM, quantizing to 8 bits."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise DimensionError(f"PGM image must be 2-D, got {img.ndim} dims")
    pixels = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = pixels.shape
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary PGM into a [0,1] float32 image."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ContractError(f"{path}: not a binary PGM (missing P5 magic)")
    # header = magic, width, height, maxval as whitespace-separated tokens,
    # with optional '#' comment lines
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise ContractError(f"{path}: malformed PGM header") from exc
    if maxval != 255:
        raise ContractError(f"{path}: unsupported maxval {maxval}")
    if len(data) - pos < h * w:
        raise ContractError(f"{path}: truncated pixel data")
    raw = np.frombuffer(data, dtype=np.uint8, count=h * w, offset=pos)
    return (raw.reshape(h, w) / 255.0).astype(np.float32)


@dataclass(frozen=True)
class ManifestRecord:
    subject_id: int
    sample_index: int
    role: str
    distribution: str
    relative_path: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ContractError(f"role must be one of {ROLES}, got {self.role!r}")


def write_manifest(records: list[ManifestRecord], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(f"{r.subject_id}\t{r.sample_index}\t{r.role}\t"
                     f"{r.distribution}\t{r.relative_path}\n")


def read_manifest(path: str | Path) -> list[ManifestRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise ContractError(
                    f"{path}:{lineno}: expected 5 tab-separated fields, got {len(fields)}")
            records.append(ManifestRecord(int(fields[0]), int(fields[1]),
                                          fields[2], fields[3], fields[4]))
    return records


def load_image(root: str | Path, record: ManifestRecord) -> np.ndarray:
    return read_pgm(Path(root) / record.relative_path)
