"""Binary weights persistence (VFW1 format).

Layout, all integers little-endian u32:

    magic   4 bytes  b"VFW1"
    version u32      currently 1
    count   u32      number of records
    record: name_len u32, name utf-8 bytes, rank u32, dims u32 * rank,
            raw float32 little-endian values (prod(dims) of them)

Tensors round-trip bit-exactly. Unknown magic or version is rejected before
anything is loaded; a file is written atomically via a temp-file rename so a
crash never leaves a half-written checkpoint behind.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import CorruptWeightsError, WeightsVersionError
from .tensor import ParamSet

MAGIC = b"VFW1"
VERSION = 1


def save_weights(params: ParamSet | dict[str, np.ndarray], path: str | Path) -> None:
    """Serialize named tensors; values are stored as little-endian float32."""
    if isinstance(params, ParamSet):
        items = [(name, t.data) for name, t in params.items()]
    else:
        items = list(params.items())
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<II", VERSION, len(items))
    for name, data in items:
        arr = np.asarray(data, dtype="<f4", order="C")
        name_b = name.encode("utf-8")
        blob += struct.pack("<I", len(name_b))
        blob += name_b
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes()
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def load_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """Read a weights file into an ordered {name: float32 array} dict."""
    path = Path(path)
    with open(path, "rb") as fh:
        return parse_arrays(fh.read(), path)


def parse_arrays(data: bytes, path: str | Path) -> dict[str, np.ndarray]:
    """Parse the bytes of a weights file; ``path`` names the file in errors."""
    if len(data) < 12 or data[:4] != MAGIC:
        raise CorruptWeightsError(f"{path}: bad magic (not a VFW1 weights file)")
    version, count = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise WeightsVersionError(
            f"{path}: unsupported weights version {version} (expected {VERSION})")
    pos = 12
    out: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", data, pos)
            pos += 4
            name_b = data[pos:pos + name_len]
            if len(name_b) != name_len:
                raise CorruptWeightsError(f"{path}: truncated record name")
            try:
                name = name_b.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptWeightsError(f"{path}: record name is not UTF-8") from exc
            pos += name_len
            (rank,) = struct.unpack_from("<I", data, pos)
            pos += 4
            dims = struct.unpack_from(f"<{rank}I", data, pos)
            pos += 4 * rank
            n = int(np.prod(dims, dtype=np.int64)) if rank else 1
            raw = data[pos:pos + 4 * n]
            if len(raw) != 4 * n:
                raise CorruptWeightsError(f"{path}: truncated tensor data for {name!r}")
            pos += 4 * n
            if name in out:
                raise CorruptWeightsError(f"{path}: duplicate tensor name {name!r}")
            out[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    except struct.error as exc:
        raise CorruptWeightsError(f"{path}: truncated weights file") from exc
    if pos != len(data):
        raise CorruptWeightsError(f"{path}: {len(data) - pos} trailing bytes")
    return out


def load_weights(path: str | Path, params: ParamSet, strict: bool = True,
                 data: bytes | None = None) -> None:
    """Load saved values into an existing ParamSet in place.

    strict=True requires the file's names to exactly match the ParamSet's
    and every shape to agree. ``data``, if given, is the file's bytes as
    already read, and the file is not read again.
    """
    arrays = load_arrays(path) if data is None else parse_arrays(data, path)
    if strict:
        missing = [n for n in params.names() if n not in arrays]
        extra = [n for n in arrays if n not in params]
        if missing or extra:
            raise CorruptWeightsError(
                f"{path}: name mismatch (missing {missing[:3]}, extra {extra[:3]})")
    for name, arr in arrays.items():
        if name not in params:
            continue
        t = params[name]
        if tuple(arr.shape) != tuple(t.data.shape):
            raise CorruptWeightsError(
                f"{path}: shape mismatch for {name!r}: "
                f"file {arr.shape} vs model {t.data.shape}")
        t.data = arr.astype(t.data.dtype, copy=False)
