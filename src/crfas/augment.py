"""Deterministic, seedable view augmentation, batch-first.

Every operation acts on an (N, H, W, C) batch of float values in [0, 1],
with one set of parameters per row, and is pure given them. The only
randomness lives in `compose_views`, which draws each row's parameters
from its own stream keyed on (seed, sample_id, view_index) and then runs
each operation once over the whole batch, so a row's views do not depend
on the other rows. Pipeline order is fixed:
crop -> color -> flip -> cutout -> (blur, off by default) -> patch shuffle,
so the tile shuffle runs last and earlier draws do not depend on it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


PIPELINE_ORDER = ("crop", "color", "flip", "cutout", "blur", "psa")


@dataclass
class AugmentConfig:
    crop: bool = True
    crop_scale: tuple[float, float] = (0.8, 1.0)
    color: bool = True
    color_mult: float = 0.2
    color_add: float = 0.1
    flip: bool = True
    flip_p: float = 0.5
    cutout: bool = True
    cutout_frac: float = 0.25
    cutout_fill: float = 0.0
    psa: bool = True
    psa_grid: int = 3
    blur: bool = False
    blur_sigma: float = 1.0

    # echoed into every config so a reader can check which pipeline it
    # describes; not settable, and a read order must equal this one
    order: tuple[str, ...] = field(default=PIPELINE_ORDER, init=False)

    def validate(self, side: int) -> None:
        if self.psa_grid < 1:
            raise ValueError(f"psa_grid must be >= 1, got {self.psa_grid}")
        if self.psa and side % self.psa_grid:
            raise ValueError(f"image side {side} not divisible by patch grid {self.psa_grid}")
        if not (0.0 < self.crop_scale[0] <= self.crop_scale[1] <= 1.0):
            raise ValueError(f"bad crop scale range {self.crop_scale}")
        # keeps the color multiplier 1 + U(-m, m) positive
        if not 0.0 <= self.color_mult < 1.0:
            raise ValueError(f"color_mult must be in [0, 1), got {self.color_mult}")
        if not self.color_add >= 0.0:
            raise ValueError(f"color_add must be >= 0, got {self.color_add}")
        for name in ("flip_p", "cutout_frac", "cutout_fill"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")


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


def cutout(batch: np.ndarray, center, side_px: int, fill: float = 0.0) -> np.ndarray:
    """Fill a square of side `side_px` centered at (row, col), one center per
    row, clipped to bounds."""
    if side_px < 0:
        raise ValueError(f"negative cutout side {side_px}")
    n, h, w, _ = batch.shape
    start = _per_row(center, n, 2) - side_px // 2
    rows = (np.arange(h) >= start[:, :1]) & (np.arange(h) < start[:, :1] + side_px)
    cols = (np.arange(w) >= start[:, 1:]) & (np.arange(w) < start[:, 1:] + side_px)
    out = batch.copy()
    out[rows[:, :, None] & cols[:, None, :]] = fill
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


def gaussian_blur(batch: np.ndarray, sigma: float) -> np.ndarray:
    """Separable gaussian blur with edge clamping. Off by default in the pipeline."""
    if sigma <= 0:
        return batch.copy()
    _, h, w, _ = batch.shape
    radius = max(1, int(round(3 * sigma)))
    xs = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(batch, ((0, 0), (radius, radius), (0, 0), (0, 0)), mode="edge")
    rows = sum(kernel[i] * padded[:, i : i + h] for i in range(kernel.size))
    padded = np.pad(rows, ((0, 0), (0, 0), (radius, radius), (0, 0)), mode="edge")
    out = sum(kernel[i] * padded[:, :, i : i + w] for i in range(kernel.size))
    return out.astype(batch.dtype)


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
        out = images
        if config.crop:
            out = crop_resize(out, [_crop_box(rng, config.crop_scale, side) for rng in rngs])
        if config.color:
            m, a = config.color_mult, config.color_add
            out = color_jitter(out, *zip(*[(1.0 + rng.uniform(-m, m), rng.uniform(-a, a)) for rng in rngs]))
        if config.flip:
            flip = np.array([rng.random() < config.flip_p for rng in rngs])
            out = out.copy()
            out[flip] = out[flip, :, ::-1]
        if config.cutout:
            centers = [(rng.integers(0, side), rng.integers(0, side)) for rng in rngs]
            out = cutout(out, centers, int(round(config.cutout_frac * side)), config.cutout_fill)
        if config.blur:
            out = gaussian_blur(out, config.blur_sigma)
        if config.psa:
            out = patch_shuffle(out, config.psa_grid, [rng.permutation(config.psa_grid**2) for rng in rngs])
        views.append(np.ascontiguousarray(out, dtype=images.dtype))
    return views[0], views[1]
