"""Dataset manifests, the synthetic live/spoof generator, and protocol splits.

Records are one-per-image with six fields (path, subject, session, label,
attack type, dataset). Five semi-supervised split protocols partition a
manifest into labeled-train / unlabeled-train / dev / test lists:

  1  subject-prefix labeling inside the train sessions (1-2), session 3 tests
  2  all train sessions labeled, extra session-3 data joins unlabeled
  3  one training dataset unlabeled, the others labeled, a held-out one tests
  4  subject-prefix labeling inside every training dataset, held-out tests
  5  five attack types labeled, one attack type unlabeled, one tests

Each protocol is a function `_protocol_N(records, *, <params>)` that returns
(labeled, unlabeled, test); its keyword-only parameters and their defaults
are the params a `SplitSpec` may give it. `split` then carves the dev list
from labeled as the last 20% of its subjects (per dataset), rounding down.
Fractions are real numbers in (0, 1] that count whole subjects in ascending
id order, round down, and must select at least one subject.

Images are stored and loaded channels-last: `load_image` returns the
`.fimg` pixels as an (H, W, 3) array in the file's own order.
"""
from __future__ import annotations

import inspect
import numbers
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ATTACK_TYPES = ("none", "print", "replay", "flexiblemask", "papermask", "rigidmask", "fakehead", "glasses")

# distinct texture per attack type: stripe cycles across the image and
# orientation in radians; all well above the live content (<= 3 cycles)
# yet far enough below Nyquist to survive crop-and-resize at small sides
_ATTACK_TEXTURE = {
    "print": (6.0, 0.0),
    "replay": (6.0, np.pi / 2),
    "flexiblemask": (5.0, np.pi / 4),
    "papermask": (5.0, 3 * np.pi / 4),
    "rigidmask": (7.0, np.pi / 6),
    "fakehead": (7.0, 2 * np.pi / 3),
    "glasses": (8.0, np.pi / 3),
}

_IMAGE_MAGIC = b"FIMG"

TEST_SESSION = 3
TRAIN_SESSIONS = (1, 2)
DEV_SUBJECT_FRACTION = 0.2


class ManifestError(ValueError):
    """Malformed manifest content."""


class ProtocolError(ValueError):
    """A split protocol cannot be applied to the given manifest."""


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    subject_id: int
    session: int
    label: str
    attack_type: str
    dataset_id: str

    def __post_init__(self):
        if self.label not in ("live", "spoof"):
            raise ManifestError(f"bad label {self.label!r}")
        if self.attack_type not in ATTACK_TYPES:
            raise ManifestError(f"unknown attack type {self.attack_type!r}")
        if (self.label == "live") != (self.attack_type == "none"):
            raise ManifestError(f"label {self.label!r} inconsistent with attack type {self.attack_type!r}")
        if self.subject_id < 1 or self.session < 1:
            raise ManifestError(f"subject and session ids must be positive, got {self.subject_id}, {self.session}")


@dataclass
class SplitSpec:
    protocol: int
    params: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Reject an unknown protocol and any param its protocol function does not take."""
        if self.protocol not in _PROTOCOLS:
            raise ProtocolError(f"protocol must be 1..5, got {self.protocol}")
        extra = set(self.params) - set(inspect.getfullargspec(_PROTOCOLS[self.protocol]).kwonlyargs)
        if extra:
            raise ProtocolError(f"protocol {self.protocol} does not take params {sorted(extra)}")


@dataclass
class SplitResult:
    labeled_train: list[ManifestRecord]
    unlabeled_train: list[ManifestRecord]
    dev: list[ManifestRecord]
    test: list[ManifestRecord]

    def lists(self):
        return {
            "labeled_train": self.labeled_train,
            "unlabeled_train": self.unlabeled_train,
            "dev": self.dev,
            "test": self.test,
        }


# ---------------------------------------------------------------------------
# image files: magic + u32le width + u32le height, then 8-bit RGB rows
# top-to-bottom


def write_image(path: Path, pixels: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array to the raw RGB container."""
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ValueError(f"expected (H, W, 3) uint8 pixels, got {pixels.shape} {pixels.dtype}")
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(_IMAGE_MAGIC)
        fh.write(struct.pack("<II", w, h))
        fh.write(pixels.tobytes())


def read_image(path: Path) -> np.ndarray:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise ManifestError(f"cannot read image {path}: {e}") from e
    if len(raw) < 12 or raw[:4] != _IMAGE_MAGIC:
        raise ManifestError(f"{path}: not a {_IMAGE_MAGIC.decode()} image (bad magic)")
    w, h = struct.unpack("<II", raw[4:12])
    if not w or not h:
        raise ManifestError(f"{path}: empty {w}x{h} image")
    expected = 12 + w * h * 3
    if len(raw) != expected:
        raise ManifestError(f"{path}: expected {expected} bytes for {w}x{h}, got {len(raw)}")
    return np.frombuffer(raw[12:], dtype=np.uint8).reshape(h, w, 3)


def load_image(record: ManifestRecord, root: Path, dtype=np.float32) -> np.ndarray:
    """Load one record's pixels as an (H, W, 3) array of numpy float type `dtype`, scaled to [0, 1]."""
    pixels = read_image(Path(root) / record.path)
    return pixels.astype(dtype) / dtype(255.0)


# ---------------------------------------------------------------------------
# manifests: one record per line, tab-separated key=value fields


_FIELDS = ("path", "subject", "session", "label", "attack", "dataset")


def write_manifest(records: list[ManifestRecord], path: Path, header: dict | None = None) -> None:
    lines = [f"# {key} {value}" for key, value in (header or {}).items()]
    if any("\t" in line or "\n" in line for line in lines):
        raise ManifestError(f"header contains separators: {header!r}")
    for r in records:
        if any("\t" in text or "\n" in text for text in (r.path, r.dataset_id)):
            raise ManifestError(f"path or dataset contains separators: {r.path!r}, {r.dataset_id!r}")
        line = (
            f"path={r.path}\tsubject={r.subject_id}\tsession={r.session}"
            f"\tlabel={r.label}\tattack={r.attack_type}\tdataset={r.dataset_id}"
        )
        # the reader strips each line, so trailing whitespace would not read back
        if line != line.strip():
            raise ManifestError(f"record line ends in whitespace: {line!r}")
        lines.append(line)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path: Path) -> list[ManifestRecord]:
    """Read a manifest; any malformed content raises ManifestError.

    Every record line holds each field exactly once and no other, `subject`
    and `session` as ASCII decimal digits. A tab in a comment line means a record was
    joined onto it, so it is rejected too.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ManifestError(f"cannot read manifest {path}: {e}") from e
    records = []
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            if "\t" in line:
                raise ManifestError(f"{path}:{lineno}: comment holds a tab: {line!r}")
            continue
        fields = {}
        for part in line.split("\t"):
            key, eq, value = part.partition("=")
            if not eq or key in fields:
                raise ManifestError(f"{path}:{lineno}: malformed or repeated field {part!r}")
            fields[key] = value
        missing = [f for f in _FIELDS if f not in fields]
        unknown = [f for f in fields if f not in _FIELDS]
        if missing or unknown:
            raise ManifestError(f"{path}:{lineno}: missing fields {missing}, unknown fields {unknown}")
        for key in ("subject", "session"):
            if not (fields[key].isascii() and fields[key].isdigit()):
                raise ManifestError(f"{path}:{lineno}: {key} {fields[key]!r} is not a decimal count")
        try:
            records.append(
                ManifestRecord(
                    path=fields["path"],
                    subject_id=int(fields["subject"]),
                    session=int(fields["session"]),
                    label=fields["label"],
                    attack_type=fields["attack"],
                    dataset_id=fields["dataset"],
                )
            )
        except (ValueError, ManifestError) as e:
            raise ManifestError(f"{path}:{lineno}: {e}") from e
    seen = set()
    for r in records:
        key = (r.dataset_id, r.path)
        if key in seen:
            raise ManifestError(f"{path}: duplicate record {key}")
        seen.add(key)
    return records


# ---------------------------------------------------------------------------
# synthetic data


@dataclass
class SynthConfig:
    """Counts and texture knobs for the synthetic live/spoof generator.

    Live faces are smooth low-frequency patterns (per-subject base color
    and sinusoids); each attack type overlays a distinct high-frequency
    stripe texture. Sessions shift brightness/contrast, datasets shift
    the color cast. `noise_std` and `overlay_amp` set task difficulty:
    more noise and a weaker overlay make live/spoof harder to separate.
    """

    subjects: int = 10
    sessions: int = 3
    attacks: tuple[str, ...] = ("print", "replay")
    per_cell: int = 1
    side: int = 24
    datasets: tuple[str, ...] = ("synth0",)
    seed: int = 0
    noise_std: float = 0.02
    overlay_amp: float = 0.08

    def validate(self) -> None:
        for a in self.attacks:
            if a == "none" or a not in ATTACK_TYPES:
                raise ValueError(f"bad attack type {a!r}")
        for name, values in (("attacks", self.attacks), ("datasets", self.datasets)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat, got {list(values)}")
        if self.subjects < 1 or self.sessions < 1 or self.per_cell < 1 or self.side < 8:
            raise ValueError("counts must be positive and side >= 8")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name, value in (("noise_std", self.noise_std), ("overlay_amp", self.overlay_amp)):
            if not 0 <= value < np.inf:  # NaN fails it too
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _render_image(cfg: SynthConfig, d_index: int, subject: int, session: int, attack: str, rep: int) -> np.ndarray:
    side = cfg.side
    yy, xx = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")

    subj_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, d_index, subject, 11)))
    base = 0.30 + 0.40 * subj_rng.random(3)
    img = np.broadcast_to(base.reshape(3, 1, 1), (3, side, side)).astype(np.float64).copy()
    for _ in range(3):
        cycles = subj_rng.integers(1, 4)
        theta = subj_rng.uniform(0, np.pi)
        phase = subj_rng.uniform(0, 2 * np.pi)
        amp = 0.05 + 0.06 * subj_rng.random()
        wave = np.sin(2 * np.pi * cycles * (xx * np.cos(theta) + yy * np.sin(theta)) / side + phase)
        img += amp * wave[None]
    # soft center bump, vaguely face-like
    r2 = ((yy - side / 2) ** 2 + (xx - side / 2) ** 2) / (side / 2.5) ** 2
    img += 0.08 * np.exp(-r2)[None]

    ds_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, d_index, 13)))
    img += ds_rng.uniform(-0.04, 0.04, 3).reshape(3, 1, 1)

    # session 3 (the held-out test session) carries the strongest shift
    brightness = (0.0, 0.05, -0.06)[(session - 1) % 3]
    contrast = (1.0, 1.04, 0.95)[(session - 1) % 3]
    img = (img - 0.5) * contrast + 0.5 + brightness

    type_index = ATTACK_TYPES.index(attack)
    img_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, d_index, subject, session, type_index, rep)))
    if attack != "none":
        cycles, theta = _ATTACK_TEXTURE[attack]
        # each subject's spoofing medium shifts the texture frequency and
        # orientation a little, so a small labeled subject set undercovers
        # the variation that the full population carries
        jitter_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, d_index, subject, type_index, 17)))
        cycles = float(np.clip(cycles + jitter_rng.uniform(-1.5, 1.5), 4.5, 9.5))
        theta = theta + jitter_rng.uniform(-0.3, 0.3)
        phase = img_rng.uniform(0, 2 * np.pi)
        amp = cfg.overlay_amp * img_rng.uniform(0.8, 1.2)
        wave = np.sin(2 * np.pi * cycles * (xx * np.cos(theta) + yy * np.sin(theta)) / side + phase)
        img += amp * wave[None]
    img += img_rng.normal(0.0, cfg.noise_std, (3, side, side))
    return np.clip(img, 0.0, 1.0)


def generate_synthetic(cfg: SynthConfig, out_dir: Path) -> list[ManifestRecord]:
    """Render the synthetic dataset under `out_dir` and return its manifest.

    Fully reproducible: every image derives from per-file seeds, so the
    same config writes byte-identical files in any generation order.
    """
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for d_index, dataset in enumerate(cfg.datasets):
        ds_dir = out_dir / dataset
        ds_dir.mkdir(exist_ok=True)
        for subject in range(1, cfg.subjects + 1):
            for session in range(1, cfg.sessions + 1):
                for attack in ("none",) + tuple(cfg.attacks):
                    for rep in range(cfg.per_cell):
                        img = _render_image(cfg, d_index, subject, session, attack, rep)
                        pixels = np.clip(np.round(img * 255), 0, 255).astype(np.uint8).transpose(1, 2, 0)
                        kind = "live" if attack == "none" else attack
                        name = f"s{subject:03d}_e{session}_{kind}_{rep}.fimg"
                        try:
                            write_image(ds_dir / name, pixels)
                        except OSError as e:
                            raise OSError(f"failed writing {ds_dir / name}: {e}") from e
                        records.append(
                            ManifestRecord(
                                path=f"{dataset}/{name}",
                                subject_id=subject,
                                session=session,
                                label="live" if attack == "none" else "spoof",
                                attack_type=attack,
                                dataset_id=dataset,
                            )
                        )
    write_manifest(records, out_dir / "manifest.txt", header={"generator": "synthetic", "seed": cfg.seed})
    return records


# ---------------------------------------------------------------------------
# protocol splits


def _subjects_ascending(records: list[ManifestRecord]) -> list[int]:
    return sorted({r.subject_id for r in records})


def _subject_prefix(pool: list[ManifestRecord], name: str, fraction) -> tuple[list, list]:
    """The records of the first `fraction` of `pool`'s subjects, and the rest.

    `fraction` must be a real number in (0, 1], and a bool is not one. It
    must select at least one whole subject, counted in ascending id order
    and rounding down.
    """
    # NaN fails the range test too
    if isinstance(fraction, bool) or not isinstance(fraction, numbers.Real) or not 0 < fraction <= 1:
        raise ProtocolError(f"{name} must be a real number in (0, 1], got {fraction!r}")
    subjects = _subjects_ascending(pool)
    chosen = set(subjects[: int(len(subjects) * float(fraction) + 1e-9)])
    if not chosen:
        raise ProtocolError(f"{name} {fraction} selects zero subjects out of {len(subjects)} in {_dataset_ids(pool)}")
    return [r for r in pool if r.subject_id in chosen], [r for r in pool if r.subject_id not in chosen]


def _carve_dev(labeled: list[ManifestRecord]) -> tuple[list[ManifestRecord], list[ManifestRecord]]:
    """Move the last 20% of labeled subjects (per dataset) into the dev list."""
    dev_subjects: set[tuple[str, int]] = set()
    for dataset in _dataset_ids(labeled):
        subjects = _subjects_ascending([r for r in labeled if r.dataset_id == dataset])
        n_dev = int(len(subjects) * DEV_SUBJECT_FRACTION + 1e-9)
        dev_subjects.update((dataset, s) for s in (subjects[len(subjects) - n_dev :] if n_dev else []))
    train = [r for r in labeled if (r.dataset_id, r.subject_id) not in dev_subjects]
    dev = [r for r in labeled if (r.dataset_id, r.subject_id) in dev_subjects]
    return train, dev


def _dataset_ids(records: list[ManifestRecord]) -> list[str]:
    return sorted({r.dataset_id for r in records})


def _require_single_dataset(records: list[ManifestRecord], protocol: int) -> None:
    datasets = _dataset_ids(records)
    if len(datasets) != 1:
        raise ProtocolError(f"protocol {protocol} expects a single dataset_id, found {datasets}")


def _by_session(records: list[ManifestRecord], protocol: int) -> tuple[list, list]:
    """The train-session records and the test-session records of one dataset."""
    _require_single_dataset(records, protocol)
    sessions = {r.session for r in records}
    needed = set(TRAIN_SESSIONS) | {TEST_SESSION}
    if not needed <= sessions:
        raise ProtocolError(f"protocol {protocol} needs sessions {sorted(needed)}, manifest has {sorted(sessions)}")
    return [r for r in records if r.session in TRAIN_SESSIONS], [r for r in records if r.session == TEST_SESSION]


def _cross_dataset_ids(records: list[ManifestRecord], protocol: int) -> list[str]:
    datasets = _dataset_ids(records)
    if len(datasets) < 3:
        raise ProtocolError(f"protocol {protocol} needs at least 3 dataset_ids, found {datasets}")
    return datasets


def _pick_test_dataset(datasets: list[str], test_dataset, unlabeled_dataset=None) -> str:
    """`test_dataset` if given, else the last dataset id other than the unlabeled one."""
    if test_dataset is None:
        return [d for d in datasets if d != unlabeled_dataset][-1]
    if test_dataset not in datasets:
        raise ProtocolError(f"test_dataset {test_dataset!r} not in manifest datasets {datasets}")
    if test_dataset == unlabeled_dataset:
        raise ProtocolError(f"test_dataset {test_dataset!r} collides with the unlabeled dataset")
    return test_dataset


def _protocol_1(records, *, label_fraction=1.0):
    train_pool, test = _by_session(records, 1)
    return (*_subject_prefix(train_pool, "label_fraction", label_fraction), test)


def _protocol_2(records, *, extra_mode="none", extra_fraction=None):
    # extra_fraction defaults to 0.5 and only applies with a mode
    train_pool, extra_pool = _by_session(records, 2)
    if extra_mode not in ("none", "live_only_p", "live_spoof_p"):
        raise ProtocolError(f"extra_mode must be none|live_only_p|live_spoof_p, got {extra_mode!r}")
    if extra_mode == "none":
        if extra_fraction is not None:
            raise ProtocolError(f"extra_fraction {extra_fraction!r} needs extra_mode live_only_p or live_spoof_p")
        return train_pool, [], extra_pool
    # the same ascending-id subject prefix applies to both label classes
    source = extra_pool if extra_mode == "live_spoof_p" else [r for r in extra_pool if r.label == "live"]
    unlabeled, _ = _subject_prefix(source, "extra_fraction", 0.5 if extra_fraction is None else extra_fraction)
    drawn = set(unlabeled)
    return train_pool, unlabeled, [r for r in extra_pool if r not in drawn]


def _protocol_3(records, *, unlabeled_dataset=None, test_dataset=None):
    datasets = _cross_dataset_ids(records, 3)
    if unlabeled_dataset not in datasets:
        raise ProtocolError(f"unlabeled_dataset must name one of {datasets}, got {unlabeled_dataset!r}")
    test_dataset = _pick_test_dataset(datasets, test_dataset, unlabeled_dataset)
    return (
        [r for r in records if r.dataset_id not in (unlabeled_dataset, test_dataset)],
        [r for r in records if r.dataset_id == unlabeled_dataset],
        [r for r in records if r.dataset_id == test_dataset],
    )


def _protocol_4(records, *, label_fraction=1.0, test_dataset=None):
    datasets = _cross_dataset_ids(records, 4)
    test_dataset = _pick_test_dataset(datasets, test_dataset)
    labeled, unlabeled = [], []
    for dataset in datasets:
        if dataset != test_dataset:
            pool = [r for r in records if r.dataset_id == dataset]
            chosen, rest = _subject_prefix(pool, "label_fraction", label_fraction)
            labeled += chosen
            unlabeled += rest
    return labeled, unlabeled, [r for r in records if r.dataset_id == test_dataset]


def _protocol_5(records, *, unlabeled_attack=None, test_attack=None):
    _require_single_dataset(records, 5)
    attacks = sorted({r.attack_type for r in records if r.attack_type != "none"})
    if len(attacks) < 7:
        raise ProtocolError(f"protocol 5 needs at least 7 attack types, found {len(attacks)}: {attacks}")
    for name, value in (("unlabeled_attack", unlabeled_attack), ("test_attack", test_attack)):
        if value not in attacks:
            raise ProtocolError(f"{name} must be one of {attacks}, got {value!r}")
    if unlabeled_attack == test_attack:
        raise ProtocolError("unlabeled_attack and test_attack must differ")
    # live and the five labeled attack types are split by subject so the
    # test list gets bona fide samples; the held-out attack types keep all
    # their records regardless of subject
    subjects = _subjects_ascending(records)
    n_test = max(1, int(len(subjects) * DEV_SUBJECT_FRACTION + 1e-9))
    test_subjects = set(subjects[len(subjects) - n_test :])
    labeled, unlabeled, test = [], [], []
    for r in records:
        if r.attack_type == unlabeled_attack:
            unlabeled.append(r)
        elif r.attack_type == test_attack:
            test.append(r)
        elif r.subject_id in test_subjects:
            if r.label == "live":
                test.append(r)
            # labeled-type attacks of test subjects are not drawn
        else:
            labeled.append(r)
    return labeled, unlabeled, test


_PROTOCOLS = {1: _protocol_1, 2: _protocol_2, 3: _protocol_3, 4: _protocol_4, 5: _protocol_5}


def split(records: list[ManifestRecord], spec: SplitSpec) -> SplitResult:
    """Partition a manifest according to one of the five protocols; one that labels no record is rejected."""
    spec.validate()
    if not records:
        raise ProtocolError("empty manifest")
    labeled, unlabeled, test = _PROTOCOLS[spec.protocol](records, **spec.params)
    if not labeled:
        raise ProtocolError(f"protocol {spec.protocol} labels no record of this manifest")
    labeled_train, dev = _carve_dev(labeled)
    return SplitResult(labeled_train, unlabeled, dev, test)


# the manifest file of each list in a split directory
_SPLIT_FILES = {
    "labeled_train": "labeled.train.txt",
    "unlabeled_train": "unlabeled.train.txt",
    "dev": "dev.txt",
    "test": "test.txt",
}


def write_split(result: SplitResult, out_dir: Path, provenance: dict | None = None) -> dict[str, Path]:
    """Emit the four manifest files of a split, each with a provenance header."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {key: out_dir / name for key, name in _SPLIT_FILES.items()}
    for key, records in result.lists().items():
        write_manifest(records, paths[key], header={**(provenance or {}), "list": key})
    return paths


def read_split(split_dir: Path) -> SplitResult:
    """Read the four manifest files that `write_split` emits."""
    return SplitResult(**{key: read_manifest(Path(split_dir) / name) for key, name in _SPLIT_FILES.items()})
