"""Reference (non-learned) image transforms.

Two hand-written transforms produce the ground-truth targets that the
encoder-decoder networks later learn to imitate:

* tcm -- an 8-neighbor census code per pixel (texture code matrix),
* irt -- Snell's-law ray accumulation over a refractive-index field derived
  from the image (image ray transform); dark curvilinear structures act as a
  dense medium that captures rays via total internal reflection and therefore
  accumulate more traversals.

Both map [0,1] grayscale images to [0,1] images of the same size.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ContractError, DimensionError

# Neighbor offsets (dy, dx), clockwise from the top-left neighbor. Bit k of
# the census code (weight 2**k) corresponds to offset k in this order.
_CENSUS_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1),
)

_IRT_CHUNK = 8  # images per ray march; irt runs its chunks on a thread pool


def tcm(image: np.ndarray) -> np.ndarray:
    """8-neighbor census code map, scaled to [0,1].

    For each interior pixel, bit k (weight 2**k) is set iff neighbor k --
    clockwise from the top-left -- is >= the center value. The resulting
    8-bit code is divided by 255. Border pixels copy the nearest interior
    code. Codes depend only on >= comparisons, so any strictly increasing
    intensity remap leaves the output unchanged.
    """
    img = np.asarray(image)
    if img.ndim != 2:
        raise DimensionError(f"tcm expects a 2-D image, got {img.ndim} dims")
    h, w = img.shape
    if h < 3 or w < 3:
        raise DimensionError(f"tcm needs at least 3x3, got {h}x{w}")

    center = img[1:-1, 1:-1]
    codes = np.zeros((h - 2, w - 2), dtype=np.uint16)
    for k, (dy, dx) in enumerate(_CENSUS_OFFSETS):
        nb = img[1 + dy:h - 1 + dy, 1 + dx:w - 1 + dx]
        codes |= (nb >= center).astype(np.uint16) << k
    codes = np.pad(codes, 1, mode="edge")
    return (codes / 255.0).astype(np.float32)


def irt(images: np.ndarray, ray_count: int = 20000, n_max: float = 2.0,
        max_steps: int | None = None, seed=0) -> np.ndarray:
    """Ray-accumulation transform over a refractive-index field.

    Each image defines a per-pixel refractive index
    n(x,y) = 1 + (1 - I(x,y)) * (n_max - 1), so dark pixels (veins) form a
    dense medium. `ray_count` rays enter from uniformly random points on the
    border with cosine-weighted (Lambertian) inward directions -- the
    distribution whose interior flux is uniform on a featureless image. Each
    ray is marched cell to cell (Amanatides & Woo voxel traversal); Snell's
    law applies at every pixel boundary and total internal reflection occurs
    where it must, which is what traps rays inside dark curvilinear
    structures. The output counts traversals per pixel, normalized by the
    maximum count, and is bit-reproducible for a fixed seed.

    `images` is one [H,W] image with one seed, or an [N,H,W] batch with a
    sequence of N seeds; image k's rays come from ``default_rng(seed[k])``.
    The batch is marched in chunks of _IRT_CHUNK images spread over the
    process's CPUs; every ray's arithmetic is elementwise and the counts are
    integer sums, so each image's result is the same as marching it alone,
    whatever the chunking or thread count.

    max_steps bounds the number of boundary events per ray and defaults to
    4 * (H + W).
    """
    imgs = np.asarray(images)
    if imgs.ndim not in (2, 3):
        raise DimensionError(f"irt expects [H,W] or [N,H,W], got {imgs.ndim} dims")
    single = imgs.ndim == 2
    if single:
        imgs, seeds = imgs[None], [seed]
    else:
        seeds = [seed] if np.ndim(seed) == 0 else list(seed)
    if len(seeds) != imgs.shape[0]:
        raise ContractError(f"irt needs one seed per image: {imgs.shape[0]} images, "
                            f"{len(seeds)} seeds")
    if ray_count < 1:
        raise ContractError(f"ray_count must be >= 1, got {ray_count}")
    if not n_max > 1.0:
        raise ContractError(f"n_max must exceed 1, got {n_max}")
    n, h, w = imgs.shape
    if max_steps is None:
        max_steps = 4 * (h + w)
    if max_steps < 1:
        raise ContractError(f"max_steps must be >= 1, got {max_steps}")

    out = np.empty((n, h, w), dtype=np.float32)
    starts = range(0, n, _IRT_CHUNK)
    threads = max(1, min(len(starts), len(os.sched_getaffinity(0))))

    def march(first: int) -> None:
        # every threads-th chunk from `first`: a fixed share of the batch
        for k in starts[first::threads]:
            out[k:k + _IRT_CHUNK] = _march(imgs[k:k + _IRT_CHUNK], seeds[k:k + _IRT_CHUNK],
                                           ray_count, n_max, max_steps)

    if threads == 1:
        march(0)
    else:
        # the calling thread takes a share too, so one helper fewer starts:
        # glibc keeps a helper's freed memory in that thread's arena after
        # the call, which adds to the process's peak RSS
        with ThreadPoolExecutor(threads - 1) as pool:
            helpers = [pool.submit(march, first) for first in range(1, threads)]
            march(0)
            for helper in helpers:
                helper.result()
    return out[0] if single else out


def _launch(seed, ray_count: int, h: int, w: int):
    """One image's rays: uniform perimeter point, cosine-weighted inward angle.

    Returns position, direction and cell (x, y) of each ray.
    """
    rng = np.random.default_rng(seed)
    perim = rng.uniform(0.0, 2.0 * (w + h), size=ray_count)
    theta = np.arcsin(2.0 * rng.uniform(size=ray_count) - 1.0)
    px = np.empty(ray_count)
    py = np.empty(ray_count)
    nx = np.empty(ray_count)  # inward normal
    ny = np.empty(ray_count)

    top = perim < w
    right = ~top & (perim < w + h)
    bottom = ~top & ~right & (perim < 2 * w + h)
    left = ~top & ~right & ~bottom
    px[top], py[top], nx[top], ny[top] = perim[top], 0.0, 0.0, 1.0
    px[right], py[right], nx[right], ny[right] = float(w), perim[right] - w, -1.0, 0.0
    px[bottom], py[bottom] = perim[bottom] - (w + h), float(h)
    nx[bottom], ny[bottom] = 0.0, -1.0
    px[left], py[left], nx[left], ny[left] = 0.0, perim[left] - (2 * w + h), 1.0, 0.0

    ct, st = np.cos(theta), np.sin(theta)
    dx = nx * ct - ny * st
    dy = nx * st + ny * ct

    ix = np.clip(np.floor(px), 0, w - 1)
    iy = np.clip(np.floor(py), 0, h - 1)
    ix[right] = w - 1
    iy[bottom] = h - 1
    return px, py, dx, dy, ix, iy


def _march(images: np.ndarray, seeds, ray_count: int, n_max: float,
           max_steps: int) -> np.ndarray:
    """irt of a chunk of images [n,H,W]: all of its rays march together.

    The state holds live rays only: a ray that leaves its image is dropped.
    Cells index the chunk's flattened index maps, each padded with one ring
    of outside medium (n = 1), so rays of different images never meet and a
    ray that steps onto the ring has left its image.
    """
    n, h, w = images.shape
    h2, w2 = h + 2, w + 2
    img = np.clip(images.astype(np.float64), 0.0, 1.0)
    n_map = np.ones((n, h2, w2))
    n_map[:, 1:-1, 1:-1] = 1.0 + (1.0 - img) * (n_max - 1.0)
    n_flat = n_map.ravel()
    inside_flat = np.zeros((n, h2, w2), dtype=bool)
    inside_flat[:, 1:-1, 1:-1] = True
    inside_flat = inside_flat.ravel()

    px, py, dx, dy, ix, iy = (np.concatenate(part) for part in
                              zip(*(_launch(s, ray_count, h, w) for s in seeds)))
    origin = np.repeat(np.arange(n) * (h2 * w2) + w2 + 1, ray_count)  # image's cell (0, 0)
    cell = origin + (iy * w2 + ix).astype(np.int64)
    counts = np.bincount(cell, minlength=n * h2 * w2)

    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_steps):
            if not cell.size:
                break
            bx, by = ix + (dx > 0), iy + (dy > 0)
            tx = (bx - px) / dx
            ty = (by - py) / dy
            if not dx.all():
                tx[dx == 0] = np.inf
            if not dy.all():
                ty[dy == 0] = np.inf
            cross_x = tx <= ty
            on_x = _lanes(cross_x)
            t = np.minimum(tx, ty)

            # move to the boundary point; snap the crossed coordinate exactly
            px = _pick(on_x, bx, px + dx * t)
            py = _pick(on_x, py + dy * t, by)

            sx, sy = np.sign(dx), np.sign(dy)
            cell_n = cell + _pick(on_x, sx, sy * w2).astype(np.int64)
            sin1 = _pick(on_x, np.abs(dy), np.abs(dx))
            sin2 = n_flat[cell] * sin1 / n_flat[cell_n]
            tir = sin2 >= 1.0
            moved = ~tir

            cos2 = np.sqrt(np.clip(1.0 - sin2 * sin2, 0.0, None))
            rdx = sx * _pick(on_x, cos2, sin2)
            rdy = sy * _pick(on_x, sin2, cos2)
            # TIR: flip the normal component, keep the cell
            reflect = _lanes(tir)
            dx = _pick(reflect, _pick(on_x, -dx, dx), rdx)
            dy = _pick(reflect, _pick(on_x, dy, -dy), rdy)
            ix = ix + sx * (moved & cross_x)
            iy = iy + sy * (moved & ~cross_x)
            cell = cell + (cell_n - cell) * moved

            inside = inside_flat[cell]
            counts += np.bincount(cell[moved & inside], minlength=counts.size)
            if not inside.all():
                px, py, dx, dy = px[inside], py[inside], dx[inside], dy[inside]
                ix, iy, cell = ix[inside], iy[inside], cell[inside]
    counts = counts.reshape(n, h2, w2)[:, 1:-1, 1:-1]
    # every ray counts its entry cell, so each image's peak is >= 1
    return counts / counts.max(axis=(1, 2), keepdims=True)


def _lanes(cond: np.ndarray) -> np.ndarray:
    """All-ones uint64 lanes where cond holds, zero lanes elsewhere."""
    return -cond.astype(np.uint64)


def _pick(lanes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.where(cond, a, b) for float64 arrays as a bit blend, given _lanes(cond).

    Bit for bit the same as np.where, but branch-free: np.where mispredicts
    on the march's coin-flip masks and costs ~6x more per element there.
    """
    out = a.view(np.uint64) ^ b.view(np.uint64)
    out &= lanes
    out ^= b.view(np.uint64)
    return out.view(np.float64)
