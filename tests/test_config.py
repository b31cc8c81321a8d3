"""Config codec tests: round trips, the pinned default echo, strict reads."""
import json

import pytest

from crfas.augment import AugmentConfig
from crfas.config import ConfigError, from_dict, to_dict
from crfas.data import SynthConfig
from crfas.model import ModelConfig
from crfas.trainer import TrainConfig

NON_DEFAULT_MODEL = ModelConfig(
    input_size=24, in_channels=1, backbone_channels=(16, 32, 48), feature_side=3, embed_dim=32,
)
NON_DEFAULT_AUGMENT = AugmentConfig(
    crop=False, crop_scale=(0.9, 1.0), color_mult=0.3, color_add=0.05, flip=False, flip_p=0.25,
    cutout_frac=0.125, cutout_fill=0.5, psa=False, psa_grid=2, blur=True, blur_sigma=0.5,
)

# the echo of TrainConfig() that config.json, train.log and checkpoints were
# written with before the codec replaced the per-class serializers, less the
# since-removed decay_bn_params key
DEFAULT_TRAIN_JSON = (
    '{"alpha": 0.1, "augment": {"blur": false, "blur_sigma": 1.0, "color": true, "color_add": 0.1, '
    '"color_mult": 0.2, "crop": true, "crop_scale": [0.8, 1.0], "cutout": true, "cutout_fill": 0.0, '
    '"cutout_frac": 0.25, "flip": true, "flip_p": 0.5, "order": ["crop", "color", "flip", "cutout", "blur", "psa"], '
    '"psa": true, "psa_grid": 3}, "base_lr_end": 0.01, "base_lr_start": 0.03, "batch_size": 64, '
    '"dtype": "f32", "epochs": 30, "labeled_fraction_per_batch": 0.5, '
    '"model": {"backbone_channels": [32, 64, 64], "embed_dim": 64, "feature_side": 8, "in_channels": 3, '
    '"input_size": 64}, "momentum": 0.9, "seed": 0, "weight_decay": 0.0001}'
)


@pytest.mark.parametrize(
    "config",
    [
        TrainConfig(
            base_lr_start=0.05, base_lr_end=0.02, batch_size=16, momentum=0.8, weight_decay=0.0, alpha=0.3,
            epochs=7, seed=11, labeled_fraction_per_batch=0.375, dtype="f64",
            model=NON_DEFAULT_MODEL, augment=NON_DEFAULT_AUGMENT,
        ),
        NON_DEFAULT_MODEL,
        NON_DEFAULT_AUGMENT,
        SynthConfig(subjects=4, sessions=2, attacks=("replay", "glasses"), per_cell=3, side=16,
                    datasets=("dA", "dB"), seed=9, noise_std=0.015, overlay_amp=0.12),
    ],
    ids=["train", "model", "augment", "synth"],
)
def test_round_trip_through_json(config):
    assert config != type(config)()
    data = json.loads(json.dumps(to_dict(config)))
    assert from_dict(type(config), data) == config


def test_default_train_config_echo_is_pinned():
    assert json.dumps(to_dict(TrainConfig()), sort_keys=True) == DEFAULT_TRAIN_JSON


def test_omitted_fields_keep_defaults_and_lists_become_typed_tuples():
    config = from_dict(TrainConfig, {"epochs": 3, "augment": {"crop_scale": [1, 1]}})
    assert config == TrainConfig(epochs=3, augment=AugmentConfig(crop_scale=(1.0, 1.0)))
    assert all(type(v) is float for v in config.augment.crop_scale)
    assert type(from_dict(TrainConfig, {"alpha": 1}).alpha) is float


@pytest.mark.parametrize(
    "data, match",
    [
        ({"epoch": 3}, "unknown TrainConfig fields"),
        ({"augment": {"bogus": 1}}, "unknown AugmentConfig fields"),
        ({"augment": {"flip": "false"}}, "AugmentConfig.flip must be bool"),
        ({"augment": {"psa": "no"}}, "AugmentConfig.psa must be bool"),
        ({"augment": {"crop": 1}}, "AugmentConfig.crop must be bool"),
        ({"batch_size": 4.5}, "batch_size must be int"),
        ({"epochs": True}, "epochs must be int"),
        ({"alpha": "0.1"}, "alpha must be float"),
        ({"model": {"backbone_channels": [16.7, 32, 32]}}, r"backbone_channels\[0\] must be int"),
        ({"model": {"backbone_channels": [16, 32]}}, "needs 3 items"),
        ({"model": [24]}, "ModelConfig must be an object"),
        ({"augment": {"order": ["crop", "flip", "color", "cutout", "blur", "psa"]}}, "order is fixed"),
        ({"alpha": float("nan")}, "alpha must be finite"),
        ({"base_lr_start": float("inf")}, "base_lr_start must be finite"),
        ({"augment": {"cutout_fill": float("-inf")}}, "cutout_fill must be finite"),
        ({"augment": {"crop_scale": [0.8, float("nan")]}}, r"crop_scale\[1\] must be finite"),
    ],
)
def test_bad_values_rejected(data, match):
    with pytest.raises(ConfigError, match=match):
        from_dict(TrainConfig, data)
