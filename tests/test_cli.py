"""End-to-end command-line tests."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crfas
from crfas import trainer
from crfas.cli import run
from crfas.config import to_dict
from crfas.data import SynthConfig, read_image, read_manifest
from crfas.model import ModelConfig, build_model


def test_no_arguments_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["lemmacheck", "--bogus", "1"])
    assert exc.value.code == 2


def test_lemmacheck_passes(capsys):
    assert run(["lemmacheck", "--trials", "200", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "max relative deviation" in out


def test_python_dash_m_runs_the_cli():
    src = Path(crfas.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "crfas", "lemmacheck", "--trials", "4"], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


def test_gradcheck_passes(capsys):
    assert run(["gradcheck", "--coords", "4", "--seed", "1"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("PASS: ") and ", h=1e-05, max rel err " in last and last.endswith("(tol 0.0001)")


@pytest.mark.parametrize("flag", [["--h", "0.1"], ["--tol", "10"]])
def test_gradcheck_bound_is_not_a_flag(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gradcheck", "--coords", "4", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_runtime_failure_exits_one(capsys, tmp_path):
    code = run(["split", "--manifest", str(tmp_path / "missing.txt"), "--protocol", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_synth_split_train_eval_pipeline(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert run([
        "synth", "--out", str(data_dir), "--subjects", "6", "--side", "16",
        "--per-cell", "1", "--seed", "4",
    ]) == 0

    split_dir = tmp_path / "split"
    assert run([
        "split", "--manifest", str(data_dir / "manifest.txt"), "--protocol", "1",
        "--labeled-pct", "100", "--out", str(split_dir),
    ]) == 0
    for name in ("labeled.train.txt", "unlabeled.train.txt", "dev.txt", "test.txt"):
        assert (split_dir / name).exists()

    config = {
        "epochs": 1,
        "batch_size": 4,
        "seed": 0,
        "model": {
            "input_size": 16, "in_channels": 3, "backbone_channels": [4, 6, 6],
            "feature_side": 2, "embed_dim": 6,
        },
        "augment": {"psa_grid": 2},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    train_dir = tmp_path / "train"
    assert run([
        "train", "--split-dir", str(split_dir), "--data-root", str(data_dir),
        "--out", str(train_dir), "--config", str(config_path), "--dump-views",
    ]) == 0
    assert (train_dir / "checkpoint.ckpt").exists()
    assert (train_dir / "config.json").exists()
    assert (train_dir / "debug_view1_000.fimg").exists()

    eval_dir = tmp_path / "eval"
    assert run([
        "eval", "--checkpoint", str(train_dir / "checkpoint.ckpt"),
        "--test", str(split_dir / "test.txt"), "--dev", str(split_dir / "dev.txt"),
        "--data-root", str(data_dir), "--out", str(eval_dir),
    ]) == 0
    assert (eval_dir / "scores.txt").exists()
    summary = (eval_dir / "metrics.txt").read_text()
    assert "acer=" in summary and "auc=" in summary


@pytest.mark.parametrize(
    "flags, want",
    [([], SynthConfig()),
     (["--attacks", "print", "--noise", "0.05", "--side", "16"], SynthConfig(attacks=("print",), noise_std=0.05, side=16))],
    ids=["defaults", "overrides"],
)
def test_synth_flags_override_only_the_fields_given(flags, want, tmp_path, capsys):
    assert run(["synth", "--out", str(tmp_path / "d"), *flags]) == 0
    assert json.loads((tmp_path / "d" / "synth_config.json").read_text()) == to_dict(want)


def test_split_counts_satisfy_partition(tmp_path, capsys):
    data_dir = tmp_path / "data"
    run(["synth", "--out", str(data_dir), "--subjects", "10", "--side", "16", "--seed", "2"])
    split_dir = tmp_path / "split20"
    assert run([
        "split", "--manifest", str(data_dir / "manifest.txt"), "--protocol", "1",
        "--labeled-pct", "20", "--out", str(split_dir),
    ]) == 0
    lists = {name: read_manifest(split_dir / f"{name}.txt") for name in ("labeled.train", "unlabeled.train", "dev", "test")}
    total = sum(len(v) for v in lists.values())
    assert total == 90  # 10 subjects x 3 sessions x 3 kinds
    keys = set()
    for v in lists.values():
        keys |= {(r.dataset_id, r.path) for r in v}
    assert len(keys) == total


@pytest.fixture(scope="module")
def split_manifests(tmp_path_factory):
    """One single-dataset manifest with all seven attack types, one with three datasets."""
    root = tmp_path_factory.mktemp("manifests")
    assert run(["synth", "--out", str(root / "one"), "--subjects", "5", "--side", "8",
                "--attacks", "print,replay,flexiblemask,papermask,rigidmask,fakehead,glasses"]) == 0
    assert run(["synth", "--out", str(root / "many"), "--subjects", "5", "--side", "8", "--datasets", "dA,dB,dC"]) == 0
    return {"one": root / "one" / "manifest.txt", "many": root / "many" / "manifest.txt"}


@pytest.mark.parametrize(
    "protocol, manifest, flags, params",
    [
        (1, "one", ["--labeled-pct", "40"], {"label_fraction": 0.4}),
        (2, "one", ["--extra-mode", "live_only_p", "--extra-pct", "40"],
         {"extra_mode": "live_only_p", "extra_fraction": 0.4}),
        (3, "many", ["--unlabeled-dataset", "dA", "--test-dataset", "dB"],
         {"unlabeled_dataset": "dA", "test_dataset": "dB"}),
        (4, "many", ["--labeled-pct", "60", "--test-dataset", "dA"], {"label_fraction": 0.6, "test_dataset": "dA"}),
        (5, "one", ["--unlabeled-attack", "papermask", "--test-attack", "glasses"],
         {"unlabeled_attack": "papermask", "test_attack": "glasses"}),
    ],
    ids=["p1", "p2", "p3", "p4", "p5"],
)
def test_split_flags_set_protocol_params(split_manifests, protocol, manifest, flags, params, tmp_path, capsys):
    out = tmp_path / "split"
    assert run(["split", "--manifest", str(split_manifests[manifest]), "--protocol", str(protocol),
                "--out", str(out), *flags]) == 0
    assert json.loads((out / "split_config.json").read_text()) == {"protocol": protocol, "params": params}
    lists = [read_manifest(out / f"{name}.txt") for name in ("labeled.train", "unlabeled.train", "dev", "test")]
    drawn = [(r.dataset_id, r.path) for records in lists for r in records]
    records = read_manifest(split_manifests[manifest])
    if protocol == 5:
        # the test subject (the last of 5) keeps only its live and test-attack records
        records = [r for r in records if r.subject_id != 5 or r.attack_type in ("none", "papermask", "glasses")]
    assert sorted(drawn) == sorted((r.dataset_id, r.path) for r in records)


def test_dump_views_writes_the_first_training_batch(tmp_path, monkeypatch, capsys):
    data_dir, split_dir, train_dir = tmp_path / "data", tmp_path / "split", tmp_path / "train"
    assert run(["synth", "--out", str(data_dir), "--subjects", "6", "--side", "16", "--seed", "4"]) == 0
    assert run([
        "split", "--manifest", str(data_dir / "manifest.txt"), "--protocol", "1",
        "--labeled-pct", "50", "--out", str(split_dir),
    ]) == 0
    config = {
        "epochs": 1, "batch_size": 4, "seed": 3,
        "model": {
            "input_size": 16, "in_channels": 3, "backbone_channels": [4, 6, 6],
            "feature_side": 2, "embed_dim": 6,
        },
        "augment": {"psa_grid": 2},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))

    batches = []
    real_train_step = trainer.train_step

    def capturing_train_step(model, batch, *args):
        batches.append(batch)
        return real_train_step(model, batch, *args)

    loads = []
    real_load_image = trainer.load_image

    def counting_load_image(record, *args):
        loads.append(record.path)
        return real_load_image(record, *args)

    monkeypatch.setattr(trainer, "train_step", capturing_train_step)
    monkeypatch.setattr(trainer, "load_image", counting_load_image)
    assert run([
        "train", "--split-dir", str(split_dir), "--data-root", str(data_dir),
        "--out", str(train_dir), "--config", str(tmp_path / "config.json"), "--dump-views",
    ]) == 0

    # the dump and training share one pass over the images
    n_train = sum(len(read_manifest(split_dir / f"{name}.train.txt")) for name in ("labeled", "unlabeled"))
    assert n_train == 36
    assert sorted(loads) == sorted(set(loads)) and len(loads) == n_train

    x1, x2, labels = batches[0]
    assert len(labels) == 2
    for tag, views in (("view1", x1), ("view2", x2)):
        assert len(list(train_dir.glob(f"debug_{tag}_*.fimg"))) == 4
        for index, view in enumerate(views.data):
            want = np.clip(np.round(view * 255), 0, 255).astype(np.uint8)
            np.testing.assert_array_equal(read_image(train_dir / f"debug_{tag}_{index:03d}.fimg"), want)


@pytest.mark.parametrize("how", ["config", "flag"])
def test_nan_alpha_rejected_before_any_output(tmp_path, capsys, how):
    data_dir, split_dir, train_dir = tmp_path / "data", tmp_path / "split", tmp_path / "train"
    assert run(["synth", "--out", str(data_dir), "--subjects", "6", "--side", "16", "--seed", "4"]) == 0
    assert run([
        "split", "--manifest", str(data_dir / "manifest.txt"), "--protocol", "1",
        "--labeled-pct", "50", "--out", str(split_dir),
    ]) == 0
    config = {
        "epochs": 1, "batch_size": 4,
        "model": {"input_size": 16, "backbone_channels": [4, 6, 6], "feature_side": 2, "embed_dim": 6},
        "augment": {"psa_grid": 2},
    }
    if how == "config":
        config["alpha"] = float("nan")
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = [
        "train", "--split-dir", str(split_dir), "--data-root", str(data_dir),
        "--out", str(train_dir), "--config", str(tmp_path / "config.json"),
    ]
    assert run(argv + (["--alpha", "nan"] if how == "flag" else [])) == 1
    assert "alpha" in capsys.readouterr().err
    assert not (train_dir / "config.json").exists() and not (train_dir / "train.log").exists()


def test_nan_threshold_rejected_before_any_output(tmp_path, capsys):
    data_dir, split_dir, train_dir = tmp_path / "data", tmp_path / "split", tmp_path / "train"
    assert run(["synth", "--out", str(data_dir), "--subjects", "6", "--side", "16", "--seed", "4"]) == 0
    assert run([
        "split", "--manifest", str(data_dir / "manifest.txt"), "--protocol", "1",
        "--labeled-pct", "100", "--out", str(split_dir),
    ]) == 0
    config = {
        "epochs": 1, "batch_size": 4,
        "model": {"input_size": 16, "backbone_channels": [4, 6, 6], "feature_side": 2, "embed_dim": 6},
        "augment": {"psa_grid": 2},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert run([
        "train", "--split-dir", str(split_dir), "--data-root", str(data_dir),
        "--out", str(train_dir), "--config", str(tmp_path / "config.json"),
    ]) == 0
    capsys.readouterr()
    eval_dir = tmp_path / "eval"
    assert run([
        "eval", "--checkpoint", str(train_dir / "checkpoint.ckpt"), "--test", str(split_dir / "test.txt"),
        "--data-root", str(data_dir), "--threshold", "nan", "--out", str(eval_dir),
    ]) == 1
    assert "NaN" in capsys.readouterr().err
    assert not eval_dir.exists()  # so no metrics.txt either


def test_dev_with_threshold_rejected_before_any_output(tmp_path, capsys):
    # the dev equal-error point would replace the threshold that
    # eval_config.json echoes, so the pair is refused outright
    data_dir, split_dir, eval_dir = tmp_path / "data", tmp_path / "split", tmp_path / "eval"
    assert run(["synth", "--out", str(data_dir), "--subjects", "6", "--side", "16", "--seed", "4"]) == 0
    assert run([
        "split", "--manifest", str(data_dir / "manifest.txt"), "--protocol", "1",
        "--labeled-pct", "100", "--out", str(split_dir),
    ]) == 0
    model = build_model(ModelConfig(input_size=16, backbone_channels=(4, 6, 6), feature_side=2, embed_dim=6), seed=0)
    trainer.save_checkpoint(model, tmp_path / "m.ckpt")
    capsys.readouterr()
    assert run([
        "eval", "--checkpoint", str(tmp_path / "m.ckpt"), "--test", str(split_dir / "test.txt"),
        "--dev", str(split_dir / "dev.txt"), "--threshold", "0.5", "--data-root", str(data_dir),
        "--out", str(eval_dir),
    ]) == 1
    assert "not both" in capsys.readouterr().err
    assert not (eval_dir / "metrics.txt").exists() and not (eval_dir / "eval_config.json").exists()


@pytest.mark.parametrize("argv", [["gradcheck", "--coords", "0"], ["lemmacheck", "--trials", "0"]])
def test_check_tools_refuse_to_check_nothing(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
