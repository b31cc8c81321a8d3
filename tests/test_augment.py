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
    def test_identity_permutation_is_noop(self):
        rng = np.random.default_rng(0)
        img = rand_image(rng)
        out = patch_shuffle(img, 3, np.arange(9))
        np.testing.assert_array_equal(out, img)

    def test_pixel_multiset_preserved(self):
        rng = np.random.default_rng(1)
        img = rand_image(rng)
        perm = rng.permutation(9)
        out = patch_shuffle(img, 3, perm)
        for c in range(3):
            np.testing.assert_array_equal(np.sort(out[..., c].ravel()), np.sort(img[..., c].ravel()))

    def test_per_channel_histogram_exact(self):
        rng = np.random.default_rng(2)
        img = (rng.integers(0, 256, (24, 24, 3)) / 255.0).astype(np.float32)
        out = patch_shuffle(img, 3, rng.permutation(9))
        bins = np.linspace(0, 1, 257)
        for c in range(3):
            np.testing.assert_array_equal(np.histogram(out[..., c], bins)[0], np.histogram(img[..., c], bins)[0])

    def test_inverse_restores_bitwise(self):
        rng = np.random.default_rng(3)
        img = rand_image(rng)
        perm = rng.permutation(9)
        inverse = np.argsort(perm)
        out = patch_shuffle(patch_shuffle(img, 3, perm), 3, inverse)
        np.testing.assert_array_equal(out, img)

    def test_moves_the_right_tile(self):
        img = np.zeros((6, 6, 1))
        img[0:3, 0:3] = 1.0  # tile 0 in scan order
        perm = np.array([3, 1, 2, 0])  # output tile k takes input tile perm[k]
        out = patch_shuffle(img, 2, perm)
        assert out[0:3, 0:3].sum() == 0.0  # received empty tile 3
        assert out[3:6, 3:6].sum() == 9.0  # tile 3 received input tile 0

    def test_indivisible_side_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            patch_shuffle(np.zeros((25, 25, 3)), 3, np.arange(9))

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            patch_shuffle(np.zeros((24, 24, 3)), 3, np.array([0] * 9))


class TestBasicOps:
    def test_cutout_side_zero_is_noop(self):
        rng = np.random.default_rng(4)
        img = rand_image(rng)
        np.testing.assert_array_equal(cutout(img, (5, 5), 0), img)

    def test_cutout_clips_at_border(self):
        img = np.ones((8, 8, 1))
        out = cutout(img, (0, 0), 4, fill=0.0)
        assert out[:2, :2].sum() == 0.0
        assert out.sum() == 64 - 4

    def test_color_identity(self):
        rng = np.random.default_rng(5)
        img = rand_image(rng)
        np.testing.assert_array_equal(color_jitter(img, 1.0, 0.0), img)

    def test_color_clamps(self):
        img = np.full((4, 4, 3), 0.9)
        out = color_jitter(img, 1.5, 0.2)
        assert out.max() <= 1.0

    def test_full_crop_is_noop(self):
        rng = np.random.default_rng(6)
        img = rand_image(rng)
        np.testing.assert_array_equal(crop_resize(img, (0, 0, 24)), img)

    def test_crop_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="crop box"):
            crop_resize(np.zeros((24, 24, 3)), (10, 10, 20))


class TestComposeViews:
    def test_disabled_pipeline_passes_through(self):
        rng = np.random.default_rng(8)
        img = rand_image(rng)
        cfg = AugmentConfig(crop=False, color=False, flip=False, cutout=False, psa=False)
        x1, x2 = compose_views(img, cfg, seed=0, sample_id=0)
        np.testing.assert_array_equal(x1, img)
        np.testing.assert_array_equal(x2, img)

    def test_deterministic_given_key(self):
        rng = np.random.default_rng(9)
        img = rand_image(rng)
        cfg = AugmentConfig()
        a1, a2 = compose_views(img, cfg, seed=11, sample_id=42)
        b1, b2 = compose_views(img, cfg, seed=11, sample_id=42)
        np.testing.assert_array_equal(a1, b1)
        np.testing.assert_array_equal(a2, b2)

    def test_views_differ_between_keys(self):
        rng = np.random.default_rng(10)
        img = rand_image(rng)
        cfg = AugmentConfig()
        a1, _ = compose_views(img, cfg, seed=11, sample_id=0)
        b1, _ = compose_views(img, cfg, seed=11, sample_id=1)
        assert np.abs(a1 - b1).sum() > 0

    def test_outputs_stay_in_range(self):
        rng = np.random.default_rng(11)
        cfg = AugmentConfig()
        for sample_id in range(10):
            x1, x2 = compose_views(rand_image(rng), cfg, seed=3, sample_id=sample_id)
            for v in (x1, x2):
                assert v.min() >= 0.0 and v.max() <= 1.0

    def test_psa_preserves_pre_shuffle_pixels(self):
        # the shuffle runs last, so disabling it with the same key reveals
        # the pre-shuffle intermediate
        rng = np.random.default_rng(12)
        img = rand_image(rng)
        with_psa, _ = compose_views(img, AugmentConfig(), seed=5, sample_id=7)
        without, _ = compose_views(img, AugmentConfig(psa=False), seed=5, sample_id=7)
        for c in range(3):
            np.testing.assert_array_equal(np.sort(with_psa[..., c].ravel()), np.sort(without[..., c].ravel()))

    def test_psa_needs_divisible_side(self):
        with pytest.raises(ValueError, match="divisible"):
            compose_views(np.zeros((25, 25, 3)), AugmentConfig(), seed=0, sample_id=0)


class TestValidate:
    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"color_mult": 1.5}, "color_mult"),
            ({"color_mult": 1.0}, "color_mult"),
            ({"color_mult": -0.1}, "color_mult"),
            ({"color_add": -0.1}, "color_add"),
            ({"flip_p": 1.5}, "flip_p"),
            ({"flip_p": -0.5}, "flip_p"),
            ({"cutout_frac": 1.25}, "cutout_frac"),
            ({"cutout_frac": -0.25}, "cutout_frac"),
            ({"psa_grid": 0}, "psa_grid"),
            ({"psa_grid": 0, "psa": False}, "psa_grid"),
            ({"color_add": float("nan")}, "color_add"),
            ({"cutout_fill": 1.5}, "cutout_fill"),
            ({"cutout_fill": -0.5}, "cutout_fill"),
            ({"cutout_fill": float("nan")}, "cutout_fill"),
        ],
    )
    def test_out_of_range_rejected(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            AugmentConfig(**overrides).validate(24)

    def test_range_edges_accepted(self):
        AugmentConfig(color_mult=0.0, color_add=0.0, flip_p=1.0, cutout_frac=1.0, psa_grid=1).validate(24)
        AugmentConfig(cutout_fill=1.0).validate(24)
