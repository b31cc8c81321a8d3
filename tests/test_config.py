"""Config codec tests: round trips, the pinned default echo, strict reads."""
import dataclasses
import json
import re
from pathlib import Path

import pytest

from crfas.augment import AugmentConfig
from crfas.config import ConfigError, from_dict, to_dict
from crfas.data import SynthConfig
from crfas.model import ModelConfig
from crfas.trainer import TrainConfig

NON_DEFAULT_MODEL = ModelConfig(
    input_size=24, in_channels=1, backbone_channels=(16, 32, 48), feature_side=3, embed_dim=32,
)
NON_DEFAULT_AUGMENT = AugmentConfig(crop_scale=(0.9, 1.0), cutout_frac=0.125, psa_grid=2)

# the echo of TrainConfig() that config.json, train.log and checkpoints were
# written with before the codec replaced the per-class serializers, less the
# since-removed decay_bn_params key, augment switches, constants and order,
# and the SGD fields and dtype that became trainer constants and the model's
DEFAULT_TRAIN_JSON = (
    '{"alpha": 0.1, "augment": {"crop_scale": [0.8, 1.0], "cutout_frac": 0.25, "psa_grid": 3}, '
    '"batch_size": 64, "epochs": 30, "labeled_fraction_per_batch": 0.5, '
    '"model": {"backbone_channels": [32, 64, 64], "embed_dim": 64, "feature_side": 8, "in_channels": 3, '
    '"input_size": 64}, "seed": 0}'
)
REMOVED_TRAIN_KEYS = ("base_lr_start", "base_lr_end", "momentum", "weight_decay", "dtype")


@pytest.mark.parametrize(
    "config",
    [
        TrainConfig(
            batch_size=16, alpha=0.3, epochs=7, seed=11, labeled_fraction_per_batch=0.375,
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


@pytest.mark.parametrize("key", REMOVED_TRAIN_KEYS)
def test_removed_train_keys_rejected_by_name(key):
    value = "f32" if key == "dtype" else 0.01
    with pytest.raises(ConfigError, match=rf"unknown TrainConfig fields \['{key}'\]"):
        from_dict(TrainConfig, {key: value})


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
        ({"augment": {"flip": False}}, r"unknown AugmentConfig fields \['flip'\]"),
        ({"augment": {"psa": True}}, r"unknown AugmentConfig fields \['psa'\]"),
        ({"augment": {"crop": True, "blur": False}}, r"unknown AugmentConfig fields \['blur', 'crop'\]"),
        ({"batch_size": 4.5}, "batch_size must be int"),
        ({"epochs": True}, "epochs must be int"),
        ({"alpha": "0.1"}, "alpha must be float"),
        ({"model": {"backbone_channels": [16.7, 32, 32]}}, r"backbone_channels\[0\] must be int"),
        ({"model": {"backbone_channels": [16, 32]}}, "needs 3 items"),
        ({"model": [24]}, "ModelConfig must be an object"),
        (
            {"augment": {"order": ["crop", "color", "flip", "cutout", "blur", "psa"]}},
            r"unknown AugmentConfig fields \['order'\]",
        ),
        ({"alpha": float("nan")}, "alpha must be finite"),
        ({"labeled_fraction_per_batch": float("inf")}, "labeled_fraction_per_batch must be finite"),
        ({"augment": {"cutout_frac": float("-inf")}}, "cutout_frac must be finite"),
        ({"augment": {"crop_scale": [0.8, float("nan")]}}, r"crop_scale\[1\] must be finite"),
    ],
)
def test_bad_values_rejected(data, match):
    with pytest.raises(ConfigError, match=match):
        from_dict(TrainConfig, data)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_config_loads_and_validates():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    config = from_dict(TrainConfig, json.loads(blocks[0]))
    config.validate()
    assert config != TrainConfig()


def test_readme_validation_sentence_names_existing_fields():
    text = " ".join(README.read_text().split())
    sentence = re.search(r"The whole config is validated[^:.]*", text).group(0)
    named = re.findall(r"`(\w+)`", sentence)
    assert named, sentence
    fields = {f.name for cls in (TrainConfig, ModelConfig, AugmentConfig) for f in dataclasses.fields(cls)}
    assert set(named) <= fields, sorted(set(named) - fields)


@dataclasses.dataclass
class Flags:
    verbose: bool = False


def test_bool_field_takes_only_bools():
    # no config class has a bool field; the codec's rule is checked on this one
    assert from_dict(Flags, {"verbose": True}) == Flags(True)
    for raw in (1, "false", "no"):
        with pytest.raises(ConfigError, match="Flags.verbose must be bool"):
            from_dict(Flags, {"verbose": raw})
