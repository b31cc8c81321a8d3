"""Deterministic, seedable view augmentation.

All operations act on (H, W, C) float arrays with values in [0, 1] and
are pure given their parameters; the only randomness lives in
`compose_views`, which draws every parameter from a stream keyed on
(seed, sample_id, view_index). Pipeline order is fixed:
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


def patch_shuffle(image: np.ndarray, g: int, perm: np.ndarray) -> np.ndarray:
    """Rearrange the g x g tile grid of a square image by `perm`.

    Output tile at grid position k holds the input tile perm[k]; the pixel
    multiset is preserved exactly.
    """
    h, w, _ = image.shape
    if h != w:
        raise ValueError(f"patch_shuffle needs a square image, got {h}x{w}")
    if h % g:
        raise ValueError(f"image side {h} not divisible by grid {g}")
    order = np.asarray(perm).tolist()
    if sorted(order) != list(range(g * g)):
        raise ValueError(f"not a permutation of {g * g} tiles: {order}")
    t = h // g
    out = np.empty_like(image)
    for k, source in enumerate(order):
        (oy, ox), (iy, ix) = divmod(k, g), divmod(source, g)
        out[oy * t : (oy + 1) * t, ox * t : (ox + 1) * t] = image[iy * t : (iy + 1) * t, ix * t : (ix + 1) * t]
    return out


def cutout(image: np.ndarray, center: tuple[int, int], side_px: int, fill: float = 0.0) -> np.ndarray:
    """Fill a square of side `side_px` centered at (row, col), clipped to bounds."""
    if side_px < 0:
        raise ValueError(f"negative cutout side {side_px}")
    if side_px == 0:
        return image.copy()
    h, w, _ = image.shape
    cy, cx = center
    half = side_px // 2
    top, bottom = max(0, cy - half), min(h, cy - half + side_px)
    left, right = max(0, cx - half), min(w, cx - half + side_px)
    out = image.copy()
    out[top:bottom, left:right] = fill
    return out


def color_jitter(image: np.ndarray, mult: float, add: float) -> np.ndarray:
    """Scale and shift all channels, then clamp back into [0, 1]."""
    if mult <= 0:
        raise ValueError(f"multiplicative jitter must be positive, got {mult}")
    return np.clip(image * mult + add, 0.0, 1.0)


def _bilinear_resize(image: np.ndarray, out_side: int) -> np.ndarray:
    h, w, _ = image.shape
    if h == out_side and w == out_side:
        return image
    # pixel-center sampling; exact identity when sizes match is handled above
    sy = (np.arange(out_side) + 0.5) * (h / out_side) - 0.5
    sx = (np.arange(out_side) + 0.5) * (w / out_side) - 0.5
    y0 = np.clip(np.floor(sy).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(sx).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(sy - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(sx - x0, 0.0, 1.0)[None, :, None]
    # gather whole rows first, then columns of those rows
    rows0, rows1 = image.take(y0, axis=0), image.take(y1, axis=0)
    top = rows0.take(x0, axis=1) * (1 - wx) + rows0.take(x1, axis=1) * wx
    bot = rows1.take(x0, axis=1) * (1 - wx) + rows1.take(x1, axis=1) * wx
    return (top * (1 - wy) + bot * wy).astype(image.dtype)


def crop_resize(image: np.ndarray, crop_box: tuple[int, int, int]) -> np.ndarray:
    """Crop (top, left, side) and resize back to the input size."""
    h, w, _ = image.shape
    if h != w:
        raise ValueError(f"crop expects a square image, got {h}x{w}")
    top, left, side = crop_box
    if side < 1 or top < 0 or left < 0 or top + side > h or left + side > w:
        raise ValueError(f"crop box {crop_box} outside {h}x{w} image")
    return np.ascontiguousarray(_bilinear_resize(image[top : top + side, left : left + side], h))


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable gaussian blur with edge clamping. Off by default in the pipeline."""
    if sigma <= 0:
        return image.copy()
    radius = max(1, int(round(3 * sigma)))
    xs = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(image, ((radius, radius), (0, 0), (0, 0)), mode="edge")
    rows = sum(kernel[i] * padded[i : i + image.shape[0]] for i in range(kernel.size))
    padded = np.pad(rows, ((0, 0), (radius, radius), (0, 0)), mode="edge")
    out = sum(kernel[i] * padded[:, i : i + image.shape[1]] for i in range(kernel.size))
    return out.astype(image.dtype)


def compose_views(
    image: np.ndarray,
    config: AugmentConfig,
    seed: int,
    sample_id: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Produce the two augmented views of one image.

    Each view is an independent draw of the full pipeline; draws are
    reproducible from (seed, sample_id, view_index) alone.
    """
    h, w, _ = image.shape
    if h != w:
        raise ValueError(f"compose_views expects square images, got {h}x{w}")
    config.validate(h)
    views = []
    for view_index in (1, 2):
        rng = np.random.default_rng(np.random.SeedSequence((seed, sample_id, view_index)))
        out = image
        if config.crop:
            lo, hi = config.crop_scale
            side = int(round(h * rng.uniform(lo, hi)))
            side = max(1, min(h, side))
            top = int(rng.integers(0, h - side + 1))
            left = int(rng.integers(0, w - side + 1))
            out = crop_resize(out, (top, left, side))
        if config.color:
            mult = 1.0 + rng.uniform(-config.color_mult, config.color_mult)
            offset = rng.uniform(-config.color_add, config.color_add)
            out = color_jitter(out, mult, offset)
        if config.flip and rng.random() < config.flip_p:
            out = np.ascontiguousarray(out[:, ::-1])
        if config.cutout:
            side_px = int(round(config.cutout_frac * h))
            cy = int(rng.integers(0, h))
            cx = int(rng.integers(0, w))
            out = cutout(out, (cy, cx), side_px, config.cutout_fill)
        if config.blur:
            out = gaussian_blur(out, config.blur_sigma)
        if config.psa:
            perm = rng.permutation(config.psa_grid ** 2)
            out = patch_shuffle(out, config.psa_grid, perm)
        views.append(np.ascontiguousarray(out, dtype=image.dtype))
    return views[0], views[1]
