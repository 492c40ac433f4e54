"""Float64 reference for the verifier's outputs, written apart from palmvein.

It reads the package's files with its own parsers (VFW1 weights, binary PGM,
the manifest) and recomputes the census code and the forward passes of the
encoder-decoders and the feature extractor.  The convolution shifts the
padded input once per kernel offset and contracts channels with a matrix
product, a different algorithm from the package's sliding-window einsum.
Nothing here imports palmvein.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

# The desk trunk pools after each of its first four stages.
FE_POOLED_STAGES = 4

# Census neighbours clockwise from the top-left; bit k weighs 2**k.
CENSUS_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))


# ---------------------------------------------------------------------------
# File readers
# ---------------------------------------------------------------------------


def read_vfw(path) -> dict[str, np.ndarray]:
    """Parse a VFW1 file: magic, u32 version and count, then named f32 tensors."""
    data = Path(path).read_bytes()
    if data[:4] != b"VFW1":
        raise ValueError(f"{path}: not a VFW1 file")
    version, count = struct.unpack("<II", data[4:12])
    if version != 1:
        raise ValueError(f"{path}: VFW version {version}")
    pos, out = 12, {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", data[pos:pos + 4])
        name = data[pos + 4:pos + 4 + name_len].decode("utf-8")
        pos += 4 + name_len
        (rank,) = struct.unpack("<I", data[pos:pos + 4])
        dims = struct.unpack(f"<{rank}I", data[pos + 4:pos + 4 + 4 * rank])
        pos += 4 + 4 * rank
        n = int(np.prod(dims)) if rank else 1
        out[name] = np.frombuffer(data[pos:pos + 4 * n], dtype="<f4").reshape(dims)
        pos += 4 * n
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes")
    return out


def read_pgm_u8(path) -> np.ndarray:
    """Pixels of a comment-free binary PGM (P5, maxval 255) as uint8 [H,W]."""
    data = Path(path).read_bytes()
    magic, w, h, maxval = data.split(maxsplit=4)[:4]
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = int(w), int(h)
    return np.frombuffer(data[len(data) - w * h:], dtype=np.uint8).reshape(h, w)


def read_pgm(path) -> np.ndarray:
    return read_pgm_u8(path) / 255.0


def read_manifest(path) -> list[tuple[int, int, str, str]]:
    """(subject, sample, role, relative path) per manifest line."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line:
            sid, idx, role, _dist, rel = line.split("\t")
            rows.append((int(sid), int(idx), role, rel))
    return rows


# ---------------------------------------------------------------------------
# Analytic target
# ---------------------------------------------------------------------------


def census(pixels: np.ndarray) -> np.ndarray:
    """8-neighbour census code / 255; border pixels repeat the nearest interior code."""
    p = np.asarray(pixels, dtype=np.int64)
    h, w = p.shape
    code = np.zeros((h - 2, w - 2), dtype=np.int64)
    for k, (dy, dx) in enumerate(CENSUS_OFFSETS):
        code += (p[1 + dy:h - 1 + dy, 1 + dx:w - 1 + dx] >= p[1:-1, 1:-1]) * (1 << k)
    rows = np.clip(np.arange(h) - 1, 0, h - 3)
    cols = np.clip(np.arange(w) - 1, 0, w - 3)
    return code[rows][:, cols] / 255.0


# ---------------------------------------------------------------------------
# Layers, float64, on [N,C,H,W]
# ---------------------------------------------------------------------------


def conv_same(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stride-1 'same' cross-correlation: one channel contraction per kernel offset."""
    n, c, h, wd = x.shape
    co, _, kh, kw = w.shape
    top, left = (kh - 1) // 2, (kw - 1) // 2
    xp = np.zeros((c, n, h + kh - 1, wd + kw - 1))
    xp[:, :, top:top + h, left:left + wd] = x.transpose(1, 0, 2, 3)
    out = np.zeros((co, n * h * wd))
    for i in range(kh):
        for j in range(kw):
            out += w[:, :, i, j] @ xp[:, :, i:i + h, j:j + wd].reshape(c, -1)
    out += b[:, None]
    return out.reshape(co, n, h, wd).transpose(1, 0, 2, 3)


def relu(x):
    return np.maximum(x, 0.0)


def maxpool2(x):
    return np.maximum(np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]),
                      np.maximum(x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]))


def upsample2(x):
    return x.repeat(2, axis=2).repeat(2, axis=3)


def adaptive_avg_pool(x, grid: int):
    """Cell (i, j) averages rows [floor(iH/g), ceil((i+1)H/g)) and likewise columns."""
    h, w = x.shape[2:]
    out = np.empty(x.shape[:2] + (grid, grid))
    for i in range(grid):
        r0, r1 = (i * h) // grid, -((-(i + 1) * h) // grid)
        for j in range(grid):
            c0, c1 = (j * w) // grid, -((-(j + 1) * w) // grid)
            out[:, :, i, j] = x[:, :, r0:r1, c0:c1].mean(axis=(2, 3))
    return out


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------


def _block(p, name, x):
    return relu(conv_same(x, p[f"{name}.w"].astype(np.float64), p[f"{name}.b"].astype(np.float64)))


def ced(p: dict, x: np.ndarray) -> np.ndarray:
    """Encoder-decoder with merge connections; ``p`` holds one CED's tensors."""
    depth = sum(1 for k in p if k.startswith("enc.") and k.endswith(".conv1.w"))
    skips = []
    for level in range(depth):
        x = _block(p, f"enc.{level}.conv2", _block(p, f"enc.{level}.conv1", x))
        skips.append(x)
        x = maxpool2(x)
    x = _block(p, "bottleneck.conv2", _block(p, "bottleneck.conv1", x))
    for level in reversed(range(depth)):
        x = np.concatenate([upsample2(x), skips[level]], axis=1)
        x = _block(p, f"dec.{level}.conv2", _block(p, f"dec.{level}.conv1", x))
    head = conv_same(x, p["head.conv.w"].astype(np.float64), p["head.conv.b"].astype(np.float64))
    return np.clip(head, 0.0, 1.0)


def subset(weights: dict, prefix: str) -> dict:
    return {k[len(prefix):]: v for k, v in weights.items() if k.startswith(prefix)}


def features(stack: dict, images: np.ndarray) -> np.ndarray:
    """[N,H,W] images -> [N,3,H,W] stacks of image, CED-1 map and CED-2 map.

    ``stack`` holds ``ced1.*`` and ``ced2.*`` tensors.
    """
    x = np.asarray(images, dtype=np.float64)[:, None]
    mid = ced(subset(stack, "ced1."), x)
    return np.concatenate([x, mid, ced(subset(stack, "ced2."), mid)], axis=1)


def embed(fe: dict, mcis: np.ndarray) -> np.ndarray:
    """[N,3,H,W] feature images -> [N,d] unit embeddings; ``fe`` holds ``trunk.*``/``head.*``."""
    x = np.asarray(mcis, dtype=np.float64)
    stage = 0
    while f"trunk.stage{stage}.branch0.w" in fe:
        branches = []
        b = 0
        while f"trunk.stage{stage}.branch{b}.w" in fe:
            branches.append(_block(fe, f"trunk.stage{stage}.branch{b}", x))
            b += 1
        x = np.concatenate(branches, axis=1)
        if stage < FE_POOLED_STAGES:
            x = maxpool2(x)
        stage += 1
    w, bias = fe["head.fc.w"].astype(np.float64), fe["head.fc.b"].astype(np.float64)
    grid = int(round(np.sqrt(w.shape[1] / x.shape[1])))
    flat = adaptive_avg_pool(x, grid).reshape(len(x), -1)
    e = flat @ w.T + bias
    return e / np.linalg.norm(e, axis=1, keepdims=True)


def verifier_embeddings(final: dict, images: np.ndarray, chunk: int = 16) -> np.ndarray:
    """Embeddings from a stage-9 checkpoint (``stack.*`` and ``fe.*`` tensors)."""
    stack, fe = subset(final, "stack."), subset(final, "fe.")
    return np.concatenate([embed(fe, features(stack, images[i:i + chunk]))
                           for i in range(0, len(images), chunk)])
