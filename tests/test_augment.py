"""Augmentation tests: tile shuffle properties, determinism, value ranges."""
import numpy as np
import pytest

from crfas.augment import (
    AugmentConfig,
    color_jitter,
    compose_views,
    crop_resize,
    cutout,
    patch_shuffle,
)


def rand_image(rng, side=24):
    return rng.random((side, side, 3))


class TestPatchShuffle:
    # the primitives are batch-only; each test shuffles a one-row batch
    def test_identity_permutation_is_noop(self):
        rng = np.random.default_rng(0)
        img = rand_image(rng)[None]
        out = patch_shuffle(img, 3, np.arange(9))
        np.testing.assert_array_equal(out, img)

    def test_pixel_multiset_preserved(self):
        rng = np.random.default_rng(1)
        img = rand_image(rng)[None]
        perm = rng.permutation(9)
        out = patch_shuffle(img, 3, perm)
        for c in range(3):
            np.testing.assert_array_equal(np.sort(out[..., c].ravel()), np.sort(img[..., c].ravel()))

    def test_per_channel_histogram_exact(self):
        rng = np.random.default_rng(2)
        img = (rng.integers(0, 256, (1, 24, 24, 3)) / 255.0).astype(np.float32)
        out = patch_shuffle(img, 3, rng.permutation(9))
        bins = np.linspace(0, 1, 257)
        for c in range(3):
            np.testing.assert_array_equal(np.histogram(out[..., c], bins)[0], np.histogram(img[..., c], bins)[0])

    def test_inverse_restores_bitwise(self):
        rng = np.random.default_rng(3)
        img = rand_image(rng)[None]
        perm = rng.permutation(9)
        inverse = np.argsort(perm)
        out = patch_shuffle(patch_shuffle(img, 3, perm), 3, inverse)
        np.testing.assert_array_equal(out, img)

    def test_moves_the_right_tile(self):
        img = np.zeros((1, 6, 6, 1))
        img[0, 0:3, 0:3] = 1.0  # tile 0 in scan order
        perm = np.array([3, 1, 2, 0])  # output tile k takes input tile perm[k]
        out = patch_shuffle(img, 2, perm)
        assert out[0, 0:3, 0:3].sum() == 0.0  # received empty tile 3
        assert out[0, 3:6, 3:6].sum() == 9.0  # tile 3 received input tile 0

    def test_indivisible_side_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            patch_shuffle(np.zeros((1, 25, 25, 3)), 3, np.arange(9))

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            patch_shuffle(np.zeros((1, 24, 24, 3)), 3, np.array([0] * 9))


class TestBasicOps:
    # one-row batches with one parameter set
    def test_cutout_side_zero_is_noop(self):
        rng = np.random.default_rng(4)
        img = rand_image(rng)[None]
        np.testing.assert_array_equal(cutout(img, (5, 5), 0), img)

    def test_cutout_clips_at_border(self):
        img = np.ones((1, 8, 8, 1))
        out = cutout(img, (0, 0), 4)
        assert out[0, :2, :2].sum() == 0.0
        assert out.sum() == 64 - 4

    def test_color_identity(self):
        rng = np.random.default_rng(5)
        img = rand_image(rng)[None]
        np.testing.assert_array_equal(color_jitter(img, 1.0, 0.0), img)

    def test_color_clamps(self):
        img = np.full((1, 4, 4, 3), 0.9)
        out = color_jitter(img, 1.5, 0.2)
        assert out.max() <= 1.0

    def test_full_crop_is_noop(self):
        rng = np.random.default_rng(6)
        img = rand_image(rng)[None]
        np.testing.assert_array_equal(crop_resize(img, (0, 0, 24)), img)

    def test_crop_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="crop box"):
            crop_resize(np.zeros((1, 24, 24, 3)), (10, 10, 20))


class TestComposeViews:
    def test_deterministic_given_key(self):
        rng = np.random.default_rng(9)
        imgs = np.stack([rand_image(rng) for _ in range(2)])
        cfg = AugmentConfig()
        a1, a2 = compose_views(imgs, cfg, seed=11, sample_ids=[42, 43])
        b1, b2 = compose_views(imgs, cfg, seed=11, sample_ids=[42, 43])
        np.testing.assert_array_equal(a1, b1)
        np.testing.assert_array_equal(a2, b2)

    def test_views_differ_between_keys(self):
        rng = np.random.default_rng(10)
        img = rand_image(rng)[None]
        cfg = AugmentConfig()
        a1, _ = compose_views(img, cfg, seed=11, sample_ids=[0])
        b1, _ = compose_views(img, cfg, seed=11, sample_ids=[1])
        assert np.abs(a1 - b1).sum() > 0

    def test_outputs_stay_in_range(self):
        rng = np.random.default_rng(11)
        imgs = np.stack([rand_image(rng) for _ in range(10)])
        for v in compose_views(imgs, AugmentConfig(), seed=3, sample_ids=range(10)):
            assert v.min() >= 0.0 and v.max() <= 1.0

    def test_psa_needs_divisible_side(self):
        with pytest.raises(ValueError, match="divisible"):
            compose_views(np.zeros((1, 25, 25, 3)), AugmentConfig(), seed=0, sample_ids=[0])

    def test_one_sample_id_per_row(self):
        with pytest.raises(ValueError, match="ids"):
            compose_views(np.zeros((2, 24, 24, 3)), AugmentConfig(), seed=0, sample_ids=[0])


BOXES = [(0, 0, 24), (3, 5, 13), (20, 0, 4), (1, 1, 23)]
JITTERS = [(0.8, 0.1), (1.2, -0.05), (1.0, 0.0), (0.95, 0.02)]
CENTERS = [(0, 0), (23, 11), (12, 12), (5, 23)]
PERMS = list(np.random.default_rng(14).permuted(np.tile(np.arange(9), (4, 1)), axis=1))


class TestBatchAxis:
    """Each primitive on a batch with per-row parameters equals it on one-row batches."""

    @pytest.mark.parametrize(
        "op, row_args, batch_args",
        [
            (crop_resize, [(b,) for b in BOXES], (BOXES,)),
            (color_jitter, JITTERS, tuple(zip(*JITTERS))),
            (cutout, [(c, 6) for c in CENTERS], (CENTERS, 6)),
            (patch_shuffle, [(3, p) for p in PERMS], (3, PERMS)),
        ],
        ids=["crop_resize", "color_jitter", "cutout", "patch_shuffle"],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_equals_rows(self, op, row_args, batch_args, dtype):
        rng = np.random.default_rng(15)
        imgs = np.stack([rand_image(rng) for _ in range(4)]).astype(dtype)
        batched = op(imgs, *batch_args)
        assert batched.dtype == imgs.dtype
        rows = [op(imgs[k : k + 1], *args) for k, args in enumerate(row_args)]
        np.testing.assert_array_equal(batched, np.concatenate(rows))


class TestValidate:
    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"cutout_frac": 1.25}, "cutout_frac"),
            ({"cutout_frac": -0.25}, "cutout_frac"),
            ({"psa_grid": 0}, "psa_grid"),
        ],
    )
    def test_out_of_range_rejected(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            AugmentConfig(**overrides).validate(24)

    def test_range_edges_accepted(self):
        AugmentConfig(cutout_frac=1.0, psa_grid=1).validate(24)


# ---------------------------------------------------------------------------
# oracle: the per-image pipeline that `compose_views` batches, one image and
# one view at a time. It keeps its own copies of every operation and of the
# pipeline's constants, so it does not share code with what it checks.


def oracle_patch_shuffle(image, g, perm):
    t = image.shape[0] // g
    out = np.empty_like(image)
    for k, source in enumerate(np.asarray(perm).tolist()):
        (oy, ox), (iy, ix) = divmod(k, g), divmod(source, g)
        out[oy * t : (oy + 1) * t, ox * t : (ox + 1) * t] = image[iy * t : (iy + 1) * t, ix * t : (ix + 1) * t]
    return out


def oracle_cutout(image, center, side_px):
    if side_px == 0:
        return image.copy()
    h, w, _ = image.shape
    cy, cx = center
    half = side_px // 2
    top, bottom = max(0, cy - half), min(h, cy - half + side_px)
    left, right = max(0, cx - half), min(w, cx - half + side_px)
    out = image.copy()
    out[top:bottom, left:right] = 0.0
    return out


def oracle_bilinear_resize(image, out_side):
    h, w, _ = image.shape
    if h == out_side and w == out_side:
        return image
    sy = (np.arange(out_side) + 0.5) * (h / out_side) - 0.5
    sx = (np.arange(out_side) + 0.5) * (w / out_side) - 0.5
    y0 = np.clip(np.floor(sy).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(sx).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(sy - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(sx - x0, 0.0, 1.0)[None, :, None]
    rows0, rows1 = image.take(y0, axis=0), image.take(y1, axis=0)
    top = rows0.take(x0, axis=1) * (1 - wx) + rows0.take(x1, axis=1) * wx
    bot = rows1.take(x0, axis=1) * (1 - wx) + rows1.take(x1, axis=1) * wx
    return (top * (1 - wy) + bot * wy).astype(image.dtype)


def oracle_compose_views(image, config, seed, sample_id, record):
    """Both views of one image; appends each view's (crop side, cutout center) to `record`."""
    h, w, _ = image.shape
    views = []
    for view_index in (1, 2):
        rng = np.random.default_rng(np.random.SeedSequence((seed, sample_id, view_index)))
        lo, hi = config.crop_scale
        side = max(1, min(h, int(round(h * rng.uniform(lo, hi)))))
        top = int(rng.integers(0, h - side + 1))
        left = int(rng.integers(0, w - side + 1))
        out = np.ascontiguousarray(oracle_bilinear_resize(image[top : top + side, left : left + side], h))
        mult = 1.0 + rng.uniform(-0.2, 0.2)
        offset = rng.uniform(-0.1, 0.1)
        out = np.clip(out * mult + offset, 0.0, 1.0)
        if rng.random() < 0.5:
            out = np.ascontiguousarray(out[:, ::-1])
        center = (int(rng.integers(0, h)), int(rng.integers(0, w)))
        out = oracle_cutout(out, center, int(round(config.cutout_frac * h)))
        out = oracle_patch_shuffle(out, config.psa_grid, rng.permutation(config.psa_grid**2))
        views.append(np.ascontiguousarray(out, dtype=image.dtype))
        record.append((side, center))
    return views


# (name, overrides, sides): every config runs at each side its tile grid divides
ORACLE_CONFIGS = [
    ("trend", dict(crop_scale=(0.9, 1.0), cutout_frac=0.125), (24,)),
    ("tiny", dict(psa_grid=2), (16, 24)),
    ("grid1", dict(psa_grid=1), (16, 24)),
    ("grid3", dict(psa_grid=3), (24,)),
    ("grid4", dict(psa_grid=4), (16, 24)),
    ("wide_crop_full_cutout", dict(crop_scale=(0.1, 1.0), cutout_frac=1.0, psa_grid=4), (16, 24)),
]
ORACLE_SEEDS = range(6)
ORACLE_ROWS = 8


def compare_with_oracle(overrides, side, dtype):
    """Batched views against stacked oracle views over ORACLE_SEEDS; returns the oracle's draws."""
    config = AugmentConfig(**overrides)
    record = []
    for seed in ORACLE_SEEDS:
        rng = np.random.default_rng(100 + seed)
        imgs = rng.random((ORACLE_ROWS, side, side, 3)).astype(dtype)
        ids = [int(i) for i in rng.choice(10**6, ORACLE_ROWS, replace=False)]
        x1, x2 = compose_views(imgs, config, seed, ids)
        views = [oracle_compose_views(img, config, seed, i, record) for img, i in zip(imgs, ids)]
        for got, want in ((x1, [v[0] for v in views]), (x2, [v[1] for v in views])):
            assert got.dtype == dtype and got.flags.c_contiguous
            assert got.tobytes() == np.stack(want).tobytes()
    return record


class TestMatchesPerImageOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize(
        "overrides, side",
        [(o, s) for _, o, sides in ORACLE_CONFIGS for s in sides],
        ids=[f"{name}-{s}px" for name, _, sides in ORACLE_CONFIGS for s in sides],
    )
    def test_views_bitwise_equal(self, overrides, side, dtype):
        compare_with_oracle(overrides, side, dtype)

    def test_trend_keys_cover_full_size_crops_and_clipped_cutouts(self):
        # the comparison above must have met the identity resize and a
        # cutout cut off by the border, next to their ordinary cases
        overrides, sides = ORACLE_CONFIGS[0][1:]
        side = sides[0]
        record = compare_with_oracle(overrides, side, np.float32)
        cut = int(round(AugmentConfig(**overrides).cutout_frac * side))
        clipped = [min(c) - cut // 2 < 0 or max(c) - cut // 2 + cut > side for _, c in record]
        assert any(s == side for s, _ in record) and any(s < side for s, _ in record)
        assert any(clipped) and not all(clipped)
