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

import numpy as np

from .errors import ContractError, DimensionError

# Neighbor offsets (dy, dx), clockwise from the top-left neighbor. Bit k of
# the census code (weight 2**k) corresponds to offset k in this order.
_CENSUS_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1),
)


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


def irt(image: np.ndarray, ray_count: int = 20000, n_max: float = 2.0,
        max_steps: int | None = None, seed: int = 0) -> np.ndarray:
    """Ray-accumulation transform over a refractive-index field.

    The image defines a per-pixel refractive index
    n(x,y) = 1 + (1 - I(x,y)) * (n_max - 1), so dark pixels (veins) form a
    dense medium. `ray_count` rays enter from uniformly random points on the
    border with cosine-weighted (Lambertian) inward directions -- the
    distribution whose interior flux is uniform on a featureless image. Each
    ray is marched cell to cell; Snell's law applies at every pixel boundary
    and total internal reflection occurs where it must, which is what traps
    rays inside dark curvilinear structures. The output counts traversals per
    pixel, normalized by the maximum count, and is bit-reproducible for a
    fixed seed.

    max_steps bounds the number of boundary events per ray and defaults to
    4 * (H + W).
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise DimensionError(f"irt expects a 2-D image, got {img.ndim} dims")
    if ray_count < 1:
        raise ContractError(f"ray_count must be >= 1, got {ray_count}")
    if not n_max > 1.0:
        raise ContractError(f"n_max must exceed 1, got {n_max}")
    h, w = img.shape
    if max_steps is None:
        max_steps = 4 * (h + w)
    if max_steps < 1:
        raise ContractError(f"max_steps must be >= 1, got {max_steps}")

    n_map = 1.0 + (1.0 - np.clip(img, 0.0, 1.0)) * (n_max - 1.0)
    rng = np.random.default_rng(seed)

    # --- launch: uniform perimeter point, cosine-weighted inward angle -----
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

    ix = np.clip(np.floor(px).astype(np.int64), 0, w - 1)
    iy = np.clip(np.floor(py).astype(np.int64), 0, h - 1)
    ix[right] = w - 1
    iy[bottom] = h - 1

    counts = np.bincount(iy * w + ix, minlength=h * w).astype(np.float64)
    alive = np.ones(ray_count, dtype=bool)

    for _ in range(max_steps):
        if not alive.any():
            break
        a = np.flatnonzero(alive)
        axv, ayv = px[a], py[a]
        dxa, dya = dx[a], dy[a]
        ixa, iya = ix[a], iy[a]

        with np.errstate(divide="ignore", invalid="ignore"):
            tx = np.where(dxa > 0, (ixa + 1 - axv) / dxa,
                          np.where(dxa < 0, (ixa - axv) / dxa, np.inf))
            ty = np.where(dya > 0, (iya + 1 - ayv) / dya,
                          np.where(dya < 0, (iya - ayv) / dya, np.inf))
        cross_x = tx <= ty
        t = np.where(cross_x, tx, ty)

        # move to the boundary point; snap the crossed coordinate exactly
        bx = np.where(dxa > 0, ixa + 1, ixa).astype(np.float64)
        by = np.where(dya > 0, iya + 1, iya).astype(np.float64)
        npx = np.where(cross_x, bx, axv + dxa * t)
        npy = np.where(cross_x, ayv + dya * t, by)

        sx = np.sign(dxa).astype(np.int64)
        sy = np.sign(dya).astype(np.int64)
        ixn = ixa + np.where(cross_x, sx, 0)
        iyn = iya + np.where(cross_x, 0, sy)
        inside = (ixn >= 0) & (ixn < w) & (iyn >= 0) & (iyn < h)

        n1 = n_map[iya, ixa]
        n2 = np.where(inside, n_map[iyn % h, ixn % w], 1.0)
        sin1 = np.where(cross_x, np.abs(dya), np.abs(dxa))
        sin2 = n1 * sin1 / n2
        tir = sin2 >= 1.0

        cos2 = np.sqrt(np.clip(1.0 - sin2 * sin2, 0.0, None))
        rdx = np.where(cross_x, np.sign(dxa) * cos2, np.sign(dxa) * sin2)
        rdy = np.where(cross_x, np.sign(dya) * sin2, np.sign(dya) * cos2)
        # TIR: flip the normal component, keep the cell
        tdx = np.where(cross_x, -dxa, dxa)
        tdy = np.where(cross_x, dya, -dya)

        dx[a] = np.where(tir, tdx, rdx)
        dy[a] = np.where(tir, tdy, rdy)
        px[a] = npx
        py[a] = npy
        moved = ~tir
        ix[a] = np.where(moved, ixn, ixa)
        iy[a] = np.where(moved, iyn, iya)

        escaped = moved & ~inside
        alive[a[escaped]] = False
        entered = moved & inside
        if entered.any():
            counts += np.bincount(iyn[entered] * w + ixn[entered], minlength=h * w)

    counts = counts.reshape(h, w)
    peak = counts.max()
    if peak > 0:
        counts /= peak
    return counts.astype(np.float32)
