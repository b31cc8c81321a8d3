"""Deterministic, seedable view augmentation, batch-first.

Every operation acts on an (N, H, W, C) batch of float values in [0, 1],
with one set of parameters per row, and is pure given them. The only
randomness lives in `compose_views`, which draws each row's parameters
from its own stream keyed on (seed, sample_id, view_index) and then runs
each operation once over the whole batch, so a row's views do not depend
on the other rows. There is one pipeline, always run in full:
crop -> color -> flip -> cutout -> patch shuffle,
so the tile shuffle runs last and earlier draws do not depend on it.
`AugmentConfig` sets the crop scale range, the cutout side and the tile
grid; the colour ranges and the flip probability are constants.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# color factor 1 + U(-COLOR_MULT, COLOR_MULT), offset U(-COLOR_ADD, COLOR_ADD)
COLOR_MULT = 0.2
COLOR_ADD = 0.1
FLIP_P = 0.5


@dataclass
class AugmentConfig:
    crop_scale: tuple[float, float] = (0.8, 1.0)
    cutout_frac: float = 0.25
    psa_grid: int = 3

    def validate(self, side: int) -> None:
        if self.psa_grid < 1:
            raise ValueError(f"psa_grid must be >= 1, got {self.psa_grid}")
        if side % self.psa_grid:
            raise ValueError(f"image side {side} not divisible by patch grid {self.psa_grid}")
        if not (0.0 < self.crop_scale[0] <= self.crop_scale[1] <= 1.0):
            raise ValueError(f"bad crop scale range {self.crop_scale}")
        if not 0.0 <= self.cutout_frac <= 1.0:
            raise ValueError(f"cutout_frac must be in [0, 1], got {self.cutout_frac}")


def _per_row(values, n: int, width: int) -> np.ndarray:
    """`width` parameters for each of the `n` rows."""
    return np.asarray(values).reshape(n, width)


def patch_shuffle(batch: np.ndarray, g: int, perm) -> np.ndarray:
    """Rearrange the g x g tile grid of square images by `perm` (one per row).

    Output tile at grid position k holds the input tile perm[k]; the pixel
    multiset is preserved exactly.
    """
    n, side, w, c = batch.shape
    if side != w:
        raise ValueError(f"patch_shuffle needs square images, got {side}x{w}")
    if side % g:
        raise ValueError(f"image side {side} not divisible by grid {g}")
    perms = _per_row(perm, n, -1)
    if perms.shape[1] != g * g or not (np.sort(perms, axis=1) == np.arange(g * g)).all():
        raise ValueError(f"not a permutation of {g * g} tiles: {perms.tolist()}")
    t = side // g
    tiles = batch.reshape(n, g, t, g, t, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, g * g, t, t, c)
    out = tiles[np.arange(n)[:, None], perms].reshape(n, g, g, t, t, c).transpose(0, 1, 3, 2, 4, 5)
    return out.reshape(n, side, side, c)


def cutout(batch: np.ndarray, center, side_px: int) -> np.ndarray:
    """Zero a square of side `side_px` centered at (row, col), one center per
    row, clipped to bounds."""
    if side_px < 0:
        raise ValueError(f"negative cutout side {side_px}")
    n, h, w, _ = batch.shape
    start = _per_row(center, n, 2) - side_px // 2
    rows = (np.arange(h) >= start[:, :1]) & (np.arange(h) < start[:, :1] + side_px)
    cols = (np.arange(w) >= start[:, 1:]) & (np.arange(w) < start[:, 1:] + side_px)
    out = batch.copy()
    out[rows[:, :, None] & cols[:, None, :]] = 0.0
    return out


def color_jitter(batch: np.ndarray, mult, add) -> np.ndarray:
    """Scale and shift all channels (one factor and offset per row), then
    clamp back into [0, 1]. The factors take the batch's dtype."""
    if np.any(np.asarray(mult) <= 0):
        raise ValueError(f"multiplicative jitter must be positive, got {mult}")
    shape = np.shape(mult) + (1,) * 3
    mult, add = (np.asarray(v, dtype=batch.dtype).reshape(shape) for v in (mult, add))
    return np.clip(batch * mult + add, 0.0, 1.0)


def crop_resize(batch: np.ndarray, crop_box) -> np.ndarray:
    """Crop (top, left, side), one box per row, and resize back to the input
    size by bilinear sampling at pixel centers.

    Each image row is blended across the two sampled columns, then the two
    sampled rows of that are blended, in float64 over rows of W * C values,
    and cast back to the batch dtype; a full-size box gives the image back.
    """
    n, h, w, c = batch.shape
    if h != w:
        raise ValueError(f"crop expects square images, got {h}x{w}")
    top, left, side = _per_row(crop_box, n, 3).T[:, :, None]
    if (side < 1).any() or (top < 0).any() or (left < 0).any() or (top + side > h).any() or (left + side > w).any():
        raise ValueError(f"crop box {crop_box} outside {h}x{w} image")
    # crop and image are square, so rows and columns sample alike
    s = (np.arange(h) + 0.5) * (side / h) - 0.5
    i0 = np.clip(np.floor(s).astype(int), 0, side - 1)
    i1 = np.minimum(i0 + 1, side - 1)
    wt = np.clip(s - i0, 0.0, 1.0)
    # every image row of the batch, numbered in the flattened batch
    rows = np.arange(n * h).reshape(n, h)
    pixels = batch.reshape(n * h * w, c)
    x0, x1 = (pixels.take((rows[:, :, None] * w + (left + i)[:, None, :]).ravel(), axis=0) for i in (i0, i1))
    wx = np.repeat(wt, c, axis=1)[:, None, :]
    across = (x0.reshape(n, h, w * c) * (1 - wx) + x1.reshape(n, h, w * c) * wx).reshape(n * h, w * c)
    y0, y1 = (across.take((rows[:, :1] + top + i).ravel(), axis=0).reshape(n, h, w * c) for i in (i0, i1))
    wy = wt[:, :, None]
    return (y0 * (1 - wy) + y1 * wy).astype(batch.dtype).reshape(n, h, w, c)


def _crop_box(rng: np.random.Generator, scale: tuple[float, float], h: int) -> tuple[int, int, int]:
    """(top, left, side) of a square crop; the side is drawn first."""
    side = max(1, min(h, int(round(h * rng.uniform(*scale)))))
    return int(rng.integers(0, h - side + 1)), int(rng.integers(0, h - side + 1)), side


def compose_views(images: np.ndarray, config: AugmentConfig, seed: int, sample_ids) -> tuple[np.ndarray, np.ndarray]:
    """Produce the two augmented views of every row of an (N, H, W, C) batch.

    Each view of row k is an independent draw of the full pipeline from its
    own stream, keyed on (seed, sample_ids[k], view_index) alone; each
    stream is read in pipeline order, and each operation then runs once
    over the batch.
    """
    n, side, w, _ = images.shape
    if side != w or len(sample_ids) != n:
        raise ValueError(f"compose_views expects N square images and N ids, got {images.shape}, {len(sample_ids)}")
    config.validate(side)
    views = []
    for view_index in (1, 2):
        rngs = [np.random.default_rng(np.random.SeedSequence((seed, k, view_index))) for k in sample_ids]
        out = crop_resize(images, [_crop_box(rng, config.crop_scale, side) for rng in rngs])
        jitter = [(1.0 + rng.uniform(-COLOR_MULT, COLOR_MULT), rng.uniform(-COLOR_ADD, COLOR_ADD)) for rng in rngs]
        out = color_jitter(out, *zip(*jitter))
        flip = np.array([rng.random() < FLIP_P for rng in rngs])
        out[flip] = out[flip, :, ::-1]
        centers = [(rng.integers(0, side), rng.integers(0, side)) for rng in rngs]
        out = cutout(out, centers, int(round(config.cutout_frac * side)))
        out = patch_shuffle(out, config.psa_grid, [rng.permutation(config.psa_grid**2) for rng in rngs])
        views.append(np.ascontiguousarray(out, dtype=images.dtype))
    return views[0], views[1]
