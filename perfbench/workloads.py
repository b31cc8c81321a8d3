"""Workload definitions and the closed-loop runner that drives them.

Every workload is closed-loop with one caller: the next library call starts
when the last one returns. One cycle is a `trainer.fit` followed by a
`trainer.evaluate` of the checkpoint that fit wrote, as `crfas train`
followed by `crfas eval` (and criterion 10) does. The workloads differ in
shape and sizes, so each stresses different layers. The workload seed feeds
`SynthConfig.seed`, `TrainConfig.seed` and the model's initialisation seed;
nothing else about the inputs depends on it.

A workload's *primary* operation is the call its throughput is about:
`trainer.fit` for the `train_*` workloads, `trainer.evaluate` for
`eval_dev_heavy`. The other call still runs every cycle, so that every
end-to-end metric is measured on every workload.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from crfas import data, trainer
from crfas.augment import AugmentConfig
from crfas.data import SplitResult, SplitSpec, SynthConfig
from crfas.model import ModelConfig, build_model
from crfas.trainer import TrainConfig

from tracing import Tracer

# Set-up is repeated this many times per run and its median reported, so
# that one slow file-system call does not decide `setup_s`.
SETUP_REPEATS = 3

# Criterion 10's trend shape and data (tests/test_acceptance.py); `seed` is
# replaced by the workload seed.
TREND_MODEL = ModelConfig(input_size=24, backbone_channels=(16, 32, 32), feature_side=3, embed_dim=32)
TREND_SYNTH = SynthConfig(
    subjects=50, sessions=3, attacks=("print", "replay"), per_cell=2, side=24,
    noise_std=0.015, overlay_amp=0.12,
)
TREND_AUGMENT = AugmentConfig(crop_scale=(0.9, 1.0), cutout_frac=0.125)

# The tier-1 / gradcheck shape.
TINY_MODEL = ModelConfig(input_size=16, backbone_channels=(4, 6, 6), feature_side=2, embed_dim=6)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    primary: str  # "fit" or "evaluate"
    synth: SynthConfig
    label_fraction: float
    drop_unlabeled: bool
    train: TrainConfig
    # how many labeled records each fit trains on; None means all of them
    fit_records: int | None = None


WORKLOADS = {}


def _register(w: Workload) -> None:
    WORKLOADS[w.name] = w


# train_semi: `fit` at criterion 10's trend shape in the paper's
# semi-supervised setting (protocol 1, 20% of subjects labeled, batches of
# 6 labeled + 10 unlabeled rows). This is what criterion 10's 900 s budget
# is spent on. diffcore's conv forward and backward dominate, and all three
# loss terms run. The full criterion-10 run (9 fits, ~790 s) is not a
# workload: semi20, sup20 and sup100 all run this graph at this shape and
# batch size, so this is its per-step proxy.
_register(Workload(
    name="train_semi",
    why="fit at the criterion-10 trend shape, semi-supervised 6+10 batch; conv fwd/bwd dominate and all three losses run",
    primary="fit",
    synth=TREND_SYNTH,
    label_fraction=0.2,
    drop_unlabeled=False,
    train=TrainConfig(
        batch_size=16, epochs=2, labeled_fraction_per_batch=0.375,
        model=TREND_MODEL, augment=TREND_AUGMENT,
    ),
))

# train_tiny_sup: `fit` at the tier-1 / gradcheck shape, every row labeled
# (criterion 10's sup20 arm, shrunk). FLOPs are tiny, so per-op Python
# dispatch, tape bookkeeping, `augment.compose_views` and batch assembly
# dominate instead of BLAS: a conv-layout change should barely move this
# workload, while cutting per-op overhead should. It also takes the
# `n_unl = 0` branch of `fit`.
_register(Workload(
    name="train_tiny_sup",
    why="fit at the tier-1 shape, all rows labeled; per-op dispatch, tape and augment dominate, not BLAS",
    primary="fit",
    synth=replace(TREND_SYNTH, side=16),
    label_fraction=0.2,
    drop_unlabeled=True,
    train=TrainConfig(batch_size=16, epochs=6, model=TINY_MODEL, augment=AugmentConfig(psa_grid=2)),
))

# eval_dev_heavy: `evaluate` at the trend shape with 960 dev + 2400 test
# records (protocol 1 at 100% labels over 200 subjects). Forward only, BN in
# eval mode, no tape, no augment, no backward; every record is re-read from
# disk, and the `metrics.eer_threshold` sweep grows with the square of the
# dev size. It is the bypass case for training-path changes and the
# exercise case for eval-path changes. The fit that starts each cycle is
# short (96 labeled records, one epoch), so evaluate dominates the cycle.
_register(Workload(
    name="eval_dev_heavy",
    why="evaluate at the trend shape on 960 dev + 2400 test records; forward only, disk reads and the EER sweep",
    primary="evaluate",
    synth=replace(TREND_SYNTH, subjects=200, per_cell=4),
    label_fraction=1.0,
    drop_unlabeled=True,
    train=TrainConfig(batch_size=16, epochs=1, model=TREND_MODEL, augment=TREND_AUGMENT),
    fit_records=96,
))


# ---------------------------------------------------------------------------
# correctness checks


@dataclass
class Checks:
    """Correctness of every fit and evaluate, plus the determinism contract.

    A (config, seed, split) triple must give byte-identical `train.log`,
    final checkpoint and evaluation files. The first operation of each kind
    in a run fixes the expected digests, unless an earlier run in the same
    checkout, with the same sources, workload and seed, already fixed them
    in `store`.
    """

    store: Path
    key: str
    expected: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    last_l_overall: float | None = None
    last_acer: float | None = None

    def load(self) -> None:
        try:
            self.expected = dict(json.loads(self.store.read_text()).get(self.key, {}))
        except FileNotFoundError:
            self.expected = {}

    def save(self) -> None:
        try:
            everything = json.loads(self.store.read_text())
        except FileNotFoundError:
            everything = {}
        everything[self.key] = self.expected
        tmp = self.store.with_suffix(".tmp")
        tmp.write_text(json.dumps(everything, indent=1, sort_keys=True))
        os.replace(tmp, self.store)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def digest(self, kind: str, paths: list[Path]) -> bool:
        h = hashlib.sha256()
        for p in paths:
            h.update(p.name.encode() + b"\0" + p.read_bytes())
        got = h.hexdigest()
        want = self.expected.setdefault(kind, got)
        if got != want:
            self.fail(f"{kind}: output bytes differ from an earlier run at the same seed")
            return False
        return True


def source_fingerprint(root: Path) -> str:
    """Hash of the library and benchmark sources and the numeric stack."""
    h = hashlib.sha256()
    for base in (root / "src" / "crfas", Path(__file__).resolve().parent):
        for p in sorted(base.glob("*.py")):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
    h.update(np.__version__.encode())
    h.update(os.environ.get("OPENBLAS_NUM_THREADS", "").encode())
    return h.hexdigest()[:16]


def _check_train_log(log: Path, checks: Checks) -> int:
    """Every logged loss is finite; returns the number of steps logged."""
    steps = 0
    for line in log.read_text().splitlines():
        if line.startswith("#"):
            continue
        steps += 1
        fields = dict(part.split("=", 1) for part in line.split())
        for name in ("l_supervised", "l_embedd", "l_pred", "l_overall"):
            if not math.isfinite(float(fields[name])):
                checks.fail(f"train.log: non-finite {name} at step {fields['step']}")
                return steps
        checks.last_l_overall = float(fields["l_overall"])
    return steps


def _check_reload(final: Path, model, checks: Checks) -> None:
    reloaded = trainer.load_checkpoint(final)
    trained = dict(model.named_params())
    for name, p in reloaded.named_params():
        if not np.array_equal(p.data, trained[name].data):
            checks.fail(f"reloaded checkpoint differs from the trained model at {name}")
            return


def _check_summary(summary: dict, checks: Checks) -> bool:
    for name in ("apcer", "bpcer", "acer", "hter", "auc"):
        if not 0.0 <= summary[name] <= 1.0:
            checks.fail(f"evaluate: {name}={summary[name]} outside [0, 1]")
            return False
    if not math.isfinite(summary["threshold"]):
        checks.fail(f"evaluate: non-finite threshold {summary['threshold']}")
        return False
    checks.last_acer = summary["acer"]
    return True


# ---------------------------------------------------------------------------
# the run


@dataclass
class _Timing:
    failures_before: int
    elapsed: float | None = None


@dataclass
class Prepared:
    data_root: Path
    # labeled and unlabeled train lists as the workload's fit sees them
    split: SplitResult


class Runner:
    """Runs one workload at one seed inside `work_dir`."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path, checks: Checks, tracer: Tracer):
        self.w = workload
        self.seed = seed
        self.work = work_dir
        self.checks = checks
        self.tracer = tracer
        self.train_config = replace(workload.train, seed=seed)
        self.setup_s: list[float] = []
        # (operation kind, phase) -> samples per second of each successful call
        self.rates: dict[tuple[str, str], list[float]] = {}
        self._ops = 0

    # set-up ---------------------------------------------------------------

    def set_up(self) -> Prepared:
        """Repeat set-up SETUP_REPEATS times; keep the last one's products."""
        prepared = None
        for i in range(SETUP_REPEATS):
            if prepared is not None:
                shutil.rmtree(prepared.data_root.parent)
            with self.tracer.op("setup", "setup"):
                start = time.perf_counter()
                prepared = self._set_up_once(self.work / f"setup{i}")
                self.setup_s.append(time.perf_counter() - start)
        return prepared

    def _set_up_once(self, target: Path) -> Prepared:
        root = target / "data"
        records = data.generate_synthetic(replace(self.w.synth, seed=self.seed), root)
        result = data.split(records, SplitSpec(1, {"label_fraction": self.w.label_fraction}))
        result.labeled_train = result.labeled_train[: self.w.fit_records]
        if self.w.drop_unlabeled:
            result.unlabeled_train = []
        # the build a user's run pays; each timed fit gets its own fresh model
        build_model(self.train_config.model, self.seed)
        return Prepared(root, result)

    # operations -----------------------------------------------------------

    def fit(self, prepared: Prepared, out: Path, phase: str) -> Path | None:
        """One checked `trainer.fit`; returns the final checkpoint, or None if it failed."""
        model = build_model(self.train_config.model, self.seed)
        with self._operation("fit", phase) as timing:
            final = trainer.fit(model, prepared.split, self.train_config, out, prepared.data_root)
        if timing.elapsed is None:
            return None
        steps = _check_train_log(out / "train.log", self.checks)
        _check_reload(final, model, self.checks)
        self.checks.digest("fit", [out / "train.log", final])
        if not self._passed(timing):
            return None
        self._rate("fit", phase, steps * self.train_config.batch_size / timing.elapsed)
        return final

    def evaluate(self, prepared: Prepared, checkpoint: Path, out: Path, phase: str) -> None:
        """One checked `trainer.evaluate` scoring the dev and test lists."""
        split = prepared.split
        with self._operation("evaluate", phase) as timing:
            summary = trainer.evaluate(checkpoint, split.test, prepared.data_root, dev_records=split.dev, out_dir=out)
        if timing.elapsed is None:
            return
        if _check_summary(summary, self.checks):
            self.checks.digest("evaluate", [out / "metrics.txt", out / "scores.txt"])
        if self._passed(timing):
            self._rate("evaluate", phase, (len(split.dev) + len(split.test)) / timing.elapsed)

    @contextmanager
    def _operation(self, kind: str, phase: str):
        """Time one library call; an exception from it is a failed operation, not a crash."""
        timing = _Timing(len(self.checks.failures))
        self.checks.attempted += 1
        # the previous call's garbage is collected here, not inside this call
        gc.collect()
        with self.tracer.op(kind, phase):
            start = time.perf_counter()
            try:
                yield timing
            except Exception as e:
                self.checks.fail(f"{kind} raised {type(e).__name__}: {e}")
                self.checks.failed += 1
                return
            timing.elapsed = time.perf_counter() - start

    def _passed(self, timing: _Timing) -> bool:
        if len(self.checks.failures) > timing.failures_before:
            self.checks.failed += 1
            return False
        return True

    def _rate(self, kind: str, phase: str, value: float) -> None:
        self.rates.setdefault((kind, phase), []).append(value)

    def cycle(self, prepared: Prepared, phase: str) -> None:
        """One closed-loop cycle: fit, then evaluate the checkpoint it wrote."""
        self._ops += 1
        out = self.work / f"op{self._ops}"
        final = self.fit(prepared, out / "train", phase)
        if final is not None:
            self.evaluate(prepared, final, out / "eval", phase)
        shutil.rmtree(out, ignore_errors=True)

    def loop(self, prepared: Prepared, seconds: float, phase: str) -> None:
        """Run cycles until `seconds` have passed, and at least one."""
        start = time.perf_counter()
        while True:
            self.cycle(prepared, phase)
            if time.perf_counter() - start >= seconds:
                return

    def rate(self, kind: str, phase: str) -> float:
        """Median samples per second of the successful `kind` calls in `phase`."""
        values = self.rates.get((kind, phase), [])
        return statistics.median(values) if values else 0.0
