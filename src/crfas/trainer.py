"""End-to-end deterministic training: SGD with momentum, cosine learning
rate decay, semi-supervised batching, checkpointing and evaluation.

Every batch draws a fixed fraction of labeled samples (all of them when no
unlabeled data exists); the three loss terms are accumulated in a single
backward pass. The whole trajectory is a function of (seed, config, split):
two runs with the same inputs write byte-identical checkpoints and logs.
"""
from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import losses
from .augment import AugmentConfig, compose_views
from .data import ManifestRecord, SplitResult, load_image
from .diffcore import DTYPES, Tape, Tensor
from .metrics import ScoredSample, auc, eer_threshold, error_rates, hter, write_scores, write_summary
from .model import ModelConfig, SiameseDenseNet, build_model


class CheckpointError(RuntimeError):
    """Checkpoint file missing, corrupt, or mismatched against the model."""


@dataclass
class TrainConfig:
    base_lr_start: float = 0.03
    base_lr_end: float = 0.01
    batch_size: int = 64
    momentum: float = 0.9
    weight_decay: float = 1e-4
    alpha: float = 0.1
    epochs: int = 30
    seed: int = 0
    labeled_fraction_per_batch: float = 0.5
    dtype: str = "f32"
    decay_bn_params: bool = True
    model: ModelConfig = field(default_factory=ModelConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def validate(self) -> None:
        if not 0 < self.labeled_fraction_per_batch <= 1:
            raise ValueError(f"labeled_fraction_per_batch must be in (0, 1], got {self.labeled_fraction_per_batch}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be positive")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {sorted(DTYPES)}")
        self.model.validate()

    def to_dict(self) -> dict:
        return {
            "base_lr_start": self.base_lr_start,
            "base_lr_end": self.base_lr_end,
            "batch_size": self.batch_size,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "alpha": self.alpha,
            "epochs": self.epochs,
            "seed": self.seed,
            "labeled_fraction_per_batch": self.labeled_fraction_per_batch,
            "dtype": self.dtype,
            "decay_bn_params": self.decay_bn_params,
            "model": self.model.to_dict(),
            "augment": self.augment.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        cfg = TrainConfig()
        for key, value in d.items():
            if key == "model":
                cfg.model = ModelConfig.from_dict(value)
            elif key == "augment":
                cfg.augment = AugmentConfig.from_dict(value)
            elif hasattr(cfg, key):
                setattr(cfg, key, value)
            else:
                raise ValueError(f"unknown train config field {key!r}")
        return cfg


def lr_at(step: int, total_steps: int, config: TrainConfig) -> float:
    """Cosine decay between the base rates, scaled by batch_size / 256."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    start, end = config.base_lr_start, config.base_lr_end
    base = end + 0.5 * (start - end) * (1 + math.cos(math.pi * step / total_steps))
    return base * config.batch_size / 256.0


class MomentumSGD:
    """SGD with momentum and L2 weight decay folded into the gradient."""

    def __init__(self, named_params, momentum: float, weight_decay: float, decay_bn_params: bool = True):
        self.named_params = list(named_params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.decay_bn_params = decay_bn_params
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def _decays(self, name: str) -> bool:
        if self.decay_bn_params:
            return True
        return not (name.endswith(".gamma") or name.endswith(".beta"))

    def step(self, lr: float) -> None:
        for name, p in self.named_params:
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay and self._decays(name):
                g = g + p.data.dtype.type(self.weight_decay) * p.data
            v = self.velocity[name]
            v *= p.data.dtype.type(self.momentum)
            v += g
            p.data -= p.data.dtype.type(lr) * v


def train_step(
    model: SiameseDenseNet,
    batch: tuple[Tensor, Tensor, np.ndarray | None, np.ndarray],
    config: TrainConfig,
    step: int,
    total_steps: int,
    optimizer: MomentumSGD,
) -> losses.LossBundle:
    """One optimization step: forward both views, one backward, SGD update."""
    x1, x2, labels, labeled_mask = batch
    if x1.shape[0] == 0:
        raise ValueError("empty batch")
    lr = lr_at(step, total_steps, config)
    model.zero_grads()
    with Tape() as tape:
        views = model.forward_views(x1, x2, "train")
        bundle, total = losses.loss_overall(views, labels, labeled_mask, config.alpha)
        if not math.isfinite(bundle.l_overall):
            raise FloatingPointError(f"non-finite loss at step {step}: {bundle}")
        tape.backward(total)
    optimizer.step(lr)
    return bundle


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence((seed, epoch, 0x5EED)).generate_state(1)[0])


class _IndexStream:
    """Endless shuffled index stream, reshuffled per pass with its own rng."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.order = np.empty(0, dtype=np.intp)
        self.cursor = 0

    def take(self, count: int) -> list[int]:
        out: list[int] = []
        while len(out) < count:
            if self.cursor == len(self.order):
                self.order = self.rng.permutation(self.n)
                self.cursor = 0
            chunk = self.order[self.cursor : self.cursor + count - len(out)]
            out.extend(chunk.tolist())
            self.cursor += len(chunk)
        return out


def _format_loss_line(step: int, bundle: losses.LossBundle, lr: float) -> str:
    return (
        f"step={step} l_supervised={bundle.l_supervised:.9g} l_embedd={bundle.l_embedd:.9g} "
        f"l_pred={bundle.l_pred:.9g} l_overall={bundle.l_overall:.9g} lr={lr:.9g}"
    )


def fit(model: SiameseDenseNet, split: SplitResult, config: TrainConfig, out_dir: Path, data_root: Path) -> Path:
    """Train over the split; returns the path of the final checkpoint.

    Writes `config.json`, an append-only `train.log` with one loss line per
    step, and a checkpoint per epoch plus `checkpoint.ckpt` for the last.
    """
    config.validate()
    if not split.labeled_train:
        raise ValueError("labeled_train is empty")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")

    labeled = split.labeled_train
    unlabeled = split.unlabeled_train
    images = {
        (r.dataset_id, r.path): load_image(r, data_root, config.dtype).data[0]
        for r in (*labeled, *unlabeled)
    }

    if unlabeled:
        n_lab = max(1, round(config.labeled_fraction_per_batch * config.batch_size))
        n_lab = min(n_lab, config.batch_size)
        n_unl = config.batch_size - n_lab
    else:
        n_lab, n_unl = config.batch_size, 0
    steps_per_epoch = max(1, math.ceil(len(labeled) / n_lab))
    total_steps = config.epochs * steps_per_epoch

    lab_stream = _IndexStream(len(labeled), np.random.default_rng(np.random.SeedSequence((config.seed, 1))))
    unl_stream = _IndexStream(len(unlabeled), np.random.default_rng(np.random.SeedSequence((config.seed, 2)))) if unlabeled else None

    optimizer = MomentumSGD(model.named_params(), config.momentum, config.weight_decay, config.decay_bn_params)
    step = 0
    final_path = out_dir / "checkpoint.ckpt"
    with open(out_dir / "train.log", "w") as log:
        log.write(f"# config {json.dumps(config.to_dict(), sort_keys=True)}\n")
        for epoch in range(config.epochs):
            view_seed = _epoch_seed(config.seed, epoch)
            for _ in range(steps_per_epoch):
                chosen = [(labeled[i], True) for i in lab_stream.take(n_lab)]
                if n_unl:
                    chosen += [(unlabeled[i], False) for i in unl_stream.take(n_unl)]
                v1, v2, labels, mask = [], [], [], []
                for position, (record, is_labeled) in enumerate(chosen):
                    sample_id = step * config.batch_size + position
                    a, b = compose_views(images[(record.dataset_id, record.path)], config.augment, view_seed, sample_id)
                    v1.append(a)
                    v2.append(b)
                    mask.append(is_labeled)
                    if is_labeled:
                        labels.append(1 if record.label == "spoof" else 0)
                x1 = Tensor(np.stack(v1))
                x2 = Tensor(np.stack(v2))
                bundle = train_step(model, (x1, x2, np.array(labels), np.array(mask)), config, step, total_steps, optimizer)
                log.write(_format_loss_line(step, bundle, lr_at(step, total_steps, config)) + "\n")
                log.flush()
                step += 1
            save_checkpoint(model, out_dir / f"checkpoint_ep{epoch:03d}.ckpt")
    shutil.copyfile(out_dir / f"checkpoint_ep{config.epochs - 1:03d}.ckpt", final_path)
    return final_path


# ---------------------------------------------------------------------------
# checkpoints: text header with a tensor table, then raw little-endian data


_CKPT_MAGIC = "CRFAS-CKPT v1"
_DTYPE_TAGS = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def _checkpoint_entries(model: SiameseDenseNet):
    entries = list(model.named_params())
    for name, state in model.named_bn_states():
        entries.append((f"{name}.running_mean", state.running_mean))
        entries.append((f"{name}.running_var", state.running_var))
    # normalize to (name, ndarray)
    return [(name, t.data if isinstance(t, Tensor) else t) for name, t in entries]


def save_checkpoint(model: SiameseDenseNet, path: Path) -> None:
    entries = _checkpoint_entries(model)
    header = [_CKPT_MAGIC, f"arch {json.dumps(model.config.to_dict(), sort_keys=True)}"]
    offset = 0
    blobs = []
    for name, arr in entries:
        tag = _DTYPE_TAGS[arr.dtype]
        dims = ",".join(str(d) for d in arr.shape) or "-"
        header.append(f"tensor {name} {tag} {dims} {offset}")
        blob = np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        blobs.append(blob)
        offset += len(blob)
    header.append(f"data {offset}")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        for blob in blobs:
            fh.write(blob)


def _parse_checkpoint(path: Path):
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    sep = raw.find(b"\ndata ")
    if not raw.startswith(_CKPT_MAGIC.encode()) or sep < 0:
        raise CheckpointError(f"{path}: not a {_CKPT_MAGIC} file")
    newline = raw.find(b"\n", sep + 1)
    header = raw[:newline].decode("ascii").splitlines()
    data = raw[newline + 1 :]
    declared = int(header[-1].split()[1])
    if len(data) != declared:
        raise CheckpointError(f"{path}: corrupt data section, expected {declared} bytes, found {len(data)}")
    arch = None
    table = []
    for line in header[1:-1]:
        if line.startswith("arch "):
            arch = json.loads(line[5:])
        elif line.startswith("tensor "):
            _, name, tag, dims, offset = line.split()
            shape = () if dims == "-" else tuple(int(d) for d in dims.split(","))
            table.append((name, tag, shape, int(offset)))
        else:
            raise CheckpointError(f"{path}: unexpected header line {line!r}")
    if arch is None:
        raise CheckpointError(f"{path}: missing arch line")
    return arch, table, data


def load_checkpoint(path: Path, model: SiameseDenseNet | None = None) -> SiameseDenseNet:
    """Restore a model from a checkpoint.

    Without `model`, the architecture echoed in the header is rebuilt.
    With `model`, every entry must match by name, dtype, and shape; all
    mismatches are reported together.
    """
    arch, table, data = _parse_checkpoint(path)
    if model is None:
        dtype = "f64" if (table and table[0][1] == "f64") else "f32"
        model = build_model(ModelConfig.from_dict(arch), seed=0, dtype=dtype)
    expected = dict(_checkpoint_entries(model))
    file_names = [name for name, *_ in table]
    problems = []
    if set(file_names) != set(expected):
        missing = sorted(set(expected) - set(file_names))
        extra = sorted(set(file_names) - set(expected))
        if missing:
            problems.append(f"missing tensors {missing}")
        if extra:
            problems.append(f"unexpected tensors {extra}")
    loaded = {}
    for name, tag, shape, offset in table:
        if name not in expected:
            continue
        target = expected[name]
        if shape != target.shape or _DTYPE_TAGS[target.dtype] != tag:
            problems.append(
                f"{name}: file has {tag} {shape}, model expects {_DTYPE_TAGS[target.dtype]} {target.shape}"
            )
            continue
        np_dtype = np.dtype(np.float32 if tag == "f32" else np.float64).newbyteorder("<")
        nbytes = int(np.prod(shape, dtype=np.int64)) * np_dtype.itemsize if shape else np_dtype.itemsize
        chunk = data[offset : offset + nbytes]
        if len(chunk) != nbytes:
            problems.append(f"{name}: data section truncated")
            continue
        loaded[name] = np.frombuffer(chunk, dtype=np_dtype).reshape(shape).astype(target.dtype)
    if problems:
        raise CheckpointError(f"{path}: " + "; ".join(problems))
    for name, p in model.named_params():
        p.data[...] = loaded[name]
    for name, state in model.named_bn_states():
        state.running_mean[...] = loaded[f"{name}.running_mean"]
        state.running_var[...] = loaded[f"{name}.running_var"]
        state.initialized = True
    return model


# ---------------------------------------------------------------------------
# evaluation


def score_records(model: SiameseDenseNet, records: list[ManifestRecord], data_root: Path, batch: int = 32) -> list[ScoredSample]:
    """Score records through the encoder -> classifier path, no augmentation."""
    samples = []
    dtype_tag = _DTYPE_TAGS[model.dtype if isinstance(model.dtype, np.dtype) else np.dtype(model.dtype)]
    for start in range(0, len(records), batch):
        chunk = records[start : start + batch]
        arrays = [load_image(r, data_root, dtype_tag).data[0] for r in chunk]
        x = Tensor(np.stack(arrays))
        maps = model.classify(model.encode(x, "eval"))
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
    dev records are given; otherwise an explicit threshold is required.
    """
    model = load_checkpoint(checkpoint_path)
    if dev_records:
        dev_scored = score_records(model, dev_records, data_root)
        threshold = eer_threshold(dev_scored)
    elif threshold is None:
        raise ValueError("no dev samples and no explicit threshold: pass one of them to fix the operating point")
    scored = score_records(model, test_records, data_root)
    rates = error_rates(scored, threshold)
    summary = {
        "threshold": float(threshold),
        "apcer": rates.apcer,
        "bpcer": rates.bpcer,
        "acer": rates.acer,
        "hter": hter(scored, threshold),
        "auc": auc(scored),
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_scores(scored, out_dir / "scores.txt")
        write_summary(out_dir / "metrics.txt", summary)
    return summary
