"""End-to-end deterministic training: SGD with momentum, cosine learning
rate decay, semi-supervised batching, checkpointing and evaluation.

Every batch draws a fixed fraction of labeled samples (all of them when no
unlabeled data exists); the three loss terms are accumulated in a single
backward pass. The whole trajectory is a function of (seed, config, split):
two runs with the same inputs write byte-identical checkpoints and logs.
The SGD settings are module constants, not config fields, and precision
is the model's: `fit` loads images at the dtype the model was built with.
"""
from __future__ import annotations

import ctypes
import json
import math
import os
import zlib
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Iterator

import numpy as np

from . import losses
from .augment import AugmentConfig, compose_views
from .config import ConfigError, from_dict, to_dict
from .data import ManifestError, ManifestRecord, SplitResult, load_image
from .diffcore import DTYPES, Tape, Tensor
from .metrics import ScoredSample, auc, eer_threshold, error_rates, write_scores, write_summary
from .model import ModelConfig, SiameseDenseNet, build_model


class CheckpointError(RuntimeError):
    """Checkpoint file missing, corrupt, or mismatched against the model."""


# cosine schedule end points, both scaled by batch_size / 256
LR_START = 0.03
LR_END = 0.01
MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4


@dataclass
class TrainConfig:
    batch_size: int = 64
    alpha: float = 0.1
    epochs: int = 30
    seed: int = 0
    labeled_fraction_per_batch: float = 0.5
    model: ModelConfig = field(default_factory=ModelConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def validate(self) -> None:
        if not 0 < self.labeled_fraction_per_batch <= 1:
            raise ValueError(f"labeled_fraction_per_batch must be in (0, 1], got {self.labeled_fraction_per_batch}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # written so that NaN fails it
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        self.model.validate()
        self.augment.validate(self.model.input_size)


def lr_at(step: int, total_steps: int, config: TrainConfig) -> float:
    """Cosine decay from LR_START to LR_END, scaled by batch_size / 256."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    base = LR_END + 0.5 * (LR_START - LR_END) * (1 + math.cos(math.pi * step / total_steps))
    return base * config.batch_size / 256.0


class MomentumSGD:
    """SGD with momentum MOMENTUM and L2 weight decay WEIGHT_DECAY folded into the gradient."""

    def __init__(self, named_params):
        self.named_params = list(named_params)
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def step(self, lr: float) -> None:
        for name, p in self.named_params:
            if p.grad is None:
                continue
            v = self.velocity[name]
            v *= p.data.dtype.type(MOMENTUM)
            v += p.grad + p.data.dtype.type(WEIGHT_DECAY) * p.data
            p.data -= p.data.dtype.type(lr) * v


# glibc `mallopt` parameters and the values `fit` and `evaluate` set: a
# block under MMAP_THRESHOLD comes from the heap rather than its own
# mapping, and free memory at the heap's top goes back to the kernel only
# past TRIM_THRESHOLD. A step's activations (about 1.2 MB each at the trend
# shape) then reuse the previous step's pages instead of faulting in fresh ones.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20


def _retain_heap() -> None:
    """Keep freed buffers in the process heap; a no-op where the C library has no `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def train_step(
    model: SiameseDenseNet,
    batch: tuple[Tensor, Tensor, np.ndarray],
    config: TrainConfig,
    step: int,
    lr: float,
    optimizer: MomentumSGD,
) -> losses.LossBundle:
    """One SGD step at `lr` on a `training_batches` batch: forward both views, one backward, update."""
    x1, x2, labels = batch
    if x1.shape[0] == 0:
        raise ValueError("empty batch")
    model.zero_grads()
    with Tape() as tape:
        views = model.forward_views(x1, x2)
        bundle, total = losses.loss_overall(views, labels, config.alpha)
        if not math.isfinite(bundle.l_overall):
            raise FloatingPointError(f"non-finite loss at step {step}: {bundle}")
        tape.backward(total)
    optimizer.step(lr)
    return bundle


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence((seed, epoch, 0x5EED)).generate_state(1)[0])


def _row_order(n: int, count: int, key) -> list[int]:
    """The first `count` indices of back-to-back shuffles of range(n), each
    pass a new permutation from the one generator seeded with `key`."""
    rng = np.random.default_rng(np.random.SeedSequence(key))
    order: list[int] = []
    while len(order) < count:
        order.extend(rng.permutation(n).tolist())
    return order[:count]


def _format_loss_line(step: int, bundle: losses.LossBundle, lr: float) -> str:
    return (
        f"step={step} l_supervised={bundle.l_supervised:.9g} l_embedd={bundle.l_embedd:.9g} "
        f"l_pred={bundle.l_pred:.9g} l_overall={bundle.l_overall:.9g} lr={lr:.9g}"
    )


def _batch_layout(split: SplitResult, config: TrainConfig) -> tuple[int, int, int]:
    """Labeled rows, unlabeled rows and steps per epoch of every training batch."""
    if not split.labeled_train:
        raise ValueError("labeled_train is empty")
    n_lab = config.batch_size
    if split.unlabeled_train:
        n_lab = min(max(1, round(config.labeled_fraction_per_batch * config.batch_size)), config.batch_size)
    return n_lab, config.batch_size - n_lab, max(1, math.ceil(len(split.labeled_train) / n_lab))


def _model_image(record: ManifestRecord, data_root: Path, dtype, config: ModelConfig) -> np.ndarray:
    """Load one record's image; it must have the model's input shape."""
    image = load_image(record, data_root, dtype)
    want = (config.input_size, config.input_size, config.in_channels)
    if image.shape != want:
        raise ManifestError(f"{Path(data_root) / record.path}: image is {image.shape}, the model takes {want}")
    return image


def training_batches(split: SplitResult, config: TrainConfig, data_root: Path, dtype) -> Iterator:
    """The `(x1, x2, labels)` batch of every training step, in order.

    The call loads each image once, at the model's precision `dtype`, and
    draws each list's row order for the run by `_row_order`; batches then
    come lazily. A batch holds its labeled rows, then its unlabeled rows, and
    `labels` one 0 (live) or 1 (spoof) per labeled row. With `k` rows of a
    list per batch, step `s` takes `order[s * k : (s + 1) * k]`. The two views
    of the row at `position` in step `step` are keyed on the epoch's seed and
    `step * batch_size + position`. `fit` trains on exactly these batches,
    and `crfas train --dump-views` writes the first one.
    """
    n_lab, n_unl, steps_per_epoch = _batch_layout(split, config)
    labeled, unlabeled = split.labeled_train, split.unlabeled_train
    images = {
        (r.dataset_id, r.path): _model_image(r, data_root, dtype, config.model) for r in (*labeled, *unlabeled)
    }
    total_steps = config.epochs * steps_per_epoch
    lab_order = _row_order(len(labeled), total_steps * n_lab, (config.seed, 1))
    unl_order = _row_order(len(unlabeled), total_steps * n_unl, (config.seed, 2))

    def batch(step: int):
        view_seed = _epoch_seed(config.seed, step // steps_per_epoch)
        first_id = step * config.batch_size
        rows = [labeled[i] for i in lab_order[step * n_lab : (step + 1) * n_lab]]
        rows += [unlabeled[i] for i in unl_order[step * n_unl : (step + 1) * n_unl]]
        stacked = np.stack([images[(r.dataset_id, r.path)] for r in rows])
        x1, x2 = compose_views(stacked, config.augment, view_seed, range(first_id, first_id + len(rows)))
        labels = np.array([1 if r.label == "spoof" else 0 for r in rows[:n_lab]])
        return Tensor(x1), Tensor(x2), labels

    return map(batch, range(total_steps))


def fit(
    model: SiameseDenseNet,
    split: SplitResult,
    config: TrainConfig,
    out_dir: Path,
    data_root: Path,
    batches: Iterator | None = None,
) -> Path:
    """Train over the split at the model's precision; returns the checkpoint path.

    Loads every image, then writes `config.json`, an append-only `train.log`
    with one loss line per step, and `checkpoint.ckpt`, rewritten at the end
    of every epoch. On glibc it first sets `mallopt` so freed step buffers
    stay in the heap (see `_retain_heap`); the setting outlives the call.
    `batches` is the `training_batches` stream when the caller has already
    started it (`crfas train --dump-views` reads its first batch), so its
    images are not loaded a second time.
    """
    config.validate()
    _retain_heap()
    if batches is None:
        batches = training_batches(split, config, data_root, model.dtype)
    _, _, steps_per_epoch = _batch_layout(split, config)
    total_steps = config.epochs * steps_per_epoch
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(to_dict(config), indent=2, sort_keys=True) + "\n")

    optimizer = MomentumSGD(model.named_params())
    checkpoint = out_dir / "checkpoint.ckpt"
    with open(out_dir / "train.log", "w") as log:
        log.write(f"# config {json.dumps(to_dict(config), sort_keys=True)}\n")
        for step, batch in enumerate(batches):
            lr = lr_at(step, total_steps, config)
            bundle = train_step(model, batch, config, step, lr, optimizer)
            log.write(_format_loss_line(step, bundle, lr) + "\n")
            log.flush()
            if (step + 1) % steps_per_epoch == 0:
                save_checkpoint(model, checkpoint)
    return checkpoint


# ---------------------------------------------------------------------------
# checkpoints: text header with a tensor table and a CRC-32 of the data
# section, then raw little-endian data


_CKPT_MAGIC = "CRFAS-CKPT v2"
_DTYPE_TAGS = {np.dtype(t): tag for tag, t in DTYPES.items()}


def _checkpoint_entries(model: SiameseDenseNet):
    entries = list(model.named_params())
    for name, state in model.named_bn_states():
        entries.append((f"{name}.running_mean", state.running_mean))
        entries.append((f"{name}.running_var", state.running_var))
    # normalize to (name, ndarray)
    return [(name, t.data if isinstance(t, Tensor) else t) for name, t in entries]


def _arch_json(config: ModelConfig) -> str:
    return json.dumps(to_dict(config), sort_keys=True)


def _read_arch(path: Path, text: str) -> ModelConfig:
    """Rebuild the model config echoed in an `arch` line; it must echo back as the same text."""
    try:
        config = from_dict(ModelConfig, json.loads(text))
        config.validate()
    except (json.JSONDecodeError, ConfigError) as e:
        raise CheckpointError(f"{path}: bad arch line: {e}") from e
    if _arch_json(config) != text:
        raise CheckpointError(f"{path}: arch line {text} does not echo back as itself: {_arch_json(config)}")
    return config


def _tensor_table(model: SiameseDenseNet) -> tuple[list[str], list[tuple[np.ndarray, int]]]:
    """The model's `tensor <name> <tag> <dims> <offset>` header lines, and
    each entry's array with its byte offset into the data section."""
    lines, slots, offset = [], [], 0
    for name, arr in _checkpoint_entries(model):
        dims = ",".join(str(d) for d in arr.shape) or "-"
        lines.append(f"tensor {name} {_DTYPE_TAGS[arr.dtype]} {dims} {offset}")
        slots.append((arr, offset))
        offset += arr.nbytes
    return lines, slots


def _header(model: SiameseDenseNet, table: list[str], data: bytes) -> list[str]:
    """The header lines `save_checkpoint` writes for `model` over the data section `data`."""
    arch = f"arch {_arch_json(model.config)}"
    return [_CKPT_MAGIC, arch, *table, f"crc32 {zlib.crc32(data):08x}", f"data {len(data)}"]


def save_checkpoint(model: SiameseDenseNet, path: Path) -> None:
    """Write through `<path>.tmp` and rename, so `path` always holds a complete checkpoint."""
    table, slots = _tensor_table(model)
    data = b"".join(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes() for arr, _ in slots)
    tmp = Path(f"{path}.tmp")
    tmp.write_bytes(("\n".join(_header(model, table, data)) + "\n").encode("ascii") + data)
    os.replace(tmp, path)


def load_checkpoint(path: Path) -> SiameseDenseNet:
    """Rebuild the model a checkpoint describes and restore its tensors.

    The one `arch` line and the first tensor's dtype tag say which model to
    build. The header must then be exactly what `save_checkpoint` writes
    for that model and the file's data section, `crc32` line included;
    anything else raises `CheckpointError` before any value is read.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    magic = raw.partition(b"\n")[0]
    sep = raw.find(b"\ndata ")
    newline = raw.find(b"\n", sep + 1)
    if magic != _CKPT_MAGIC.encode() or sep < 0 or newline < 0:
        raise CheckpointError(f"{path}: not a {_CKPT_MAGIC} file (first line {magic[:40]!r})")
    try:
        header = raw[:newline].decode("ascii").split("\n")
    except UnicodeDecodeError as e:
        raise CheckpointError(f"{path}: header is not ASCII: {e}") from e
    data = raw[newline + 1 :]
    arch = [line[len("arch ") :] for line in header if line.startswith("arch ")]
    if len(arch) != 1:
        raise CheckpointError(f"{path}: {'repeated' if arch else 'missing'} arch line")
    tensors = [line.split(" ") for line in header if line.startswith("tensor ")]
    # an unknown tag builds f32, whose table then names the line
    tag = tensors[0][2] if tensors and len(tensors[0]) > 2 and tensors[0][2] in DTYPES else "f32"
    model = build_model(_read_arch(path, arch[0]), seed=0, dtype=tag)
    table, slots = _tensor_table(model)
    want = _header(model, table, data)
    if header != want:
        names, expected = {t[1] for t in tensors}, {line.split(" ")[1] for line in table}
        if names != expected:
            problems = [("missing", sorted(expected - names)), ("unexpected", sorted(names - expected))]
            raise CheckpointError(f"{path}: " + "; ".join(f"{k} tensors {v}" for k, v in problems if v))
        got, line = next((g, w) for g, w in zip_longest(header, want) if g != w)
        raise CheckpointError(f"{path}: corrupt checkpoint: header line {got!r}, expected {line!r}")
    for arr, offset in slots:
        arr[...] = np.frombuffer(data, arr.dtype.newbyteorder("<"), count=arr.size, offset=offset).reshape(arr.shape)
    for _, state in model.named_bn_states():
        state.initialized = True
    return model


# ---------------------------------------------------------------------------
# evaluation


# records per forward pass when scoring
SCORE_BATCH = 32


def score_records(model: SiameseDenseNet, records: list[ManifestRecord], data_root: Path) -> list[ScoredSample]:
    """Score records through the encoder -> classifier path, no augmentation."""
    samples = []
    for start in range(0, len(records), SCORE_BATCH):
        chunk = records[start : start + SCORE_BATCH]
        x = Tensor(np.stack([_model_image(r, data_root, model.dtype, model.config) for r in chunk]))
        maps = model.classifier(model.encode(x))
        for r, m in zip(chunk, maps.data):
            samples.append(ScoredSample(score=float(m.mean()), label=r.label, attack_type=r.attack_type, path=r.path))
    return samples


def evaluate(
    checkpoint_path: Path,
    test_records: list[ManifestRecord],
    data_root: Path,
    dev_records: list[ManifestRecord] | None = None,
    threshold: float | None = None,
    out_dir: Path | None = None,
) -> dict:
    """Score a test manifest and report APCER/BPCER/ACER, HTER, and AUC.

    The decision threshold comes from the dev set's equal-error point when
    dev records are given, and the summary then also holds `dev_eer`, the
    dev set's (FAR + FRR) / 2 at that threshold; otherwise an explicit
    threshold is required. One `apcer_<type>` entry per attack type of the
    test set follows the aggregate rates. Dev records together with a
    threshold, neither of them, and a NaN threshold, against which every
    comparison is false, are rejected before anything is read.
    """
    if dev_records is not None and threshold is not None:
        raise ValueError("pass dev records or a threshold, not both: the dev equal-error point would replace it")
    if not dev_records and threshold is None:
        raise ValueError("no dev samples and no explicit threshold: pass one of them to fix the operating point")
    if threshold is not None and math.isnan(threshold):
        raise ValueError("threshold is NaN; no score can be compared against it")
    _retain_heap()
    model = load_checkpoint(checkpoint_path)
    if dev_records:
        dev_scored = score_records(model, dev_records, data_root)
        threshold = eer_threshold(dev_scored)
    scored = score_records(model, test_records, data_root)
    rates = error_rates(scored, threshold)
    summary = {"threshold": float(threshold)}
    if dev_records:
        summary["dev_eer"] = error_rates(dev_scored, threshold).hter
    summary.update({
        "apcer": rates.apcer,
        "bpcer": rates.bpcer,
        "acer": rates.acer,
        "hter": rates.hter,
        "auc": auc(scored),
    })
    summary.update({f"apcer_{t}": rate for t, rate in rates.apcer_by_type.items()})
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_scores(scored, out_dir / "scores.txt")
        write_summary(out_dir / "metrics.txt", summary)
    return summary
