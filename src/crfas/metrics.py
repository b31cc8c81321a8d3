"""Spoof scoring and biometric error metrics.

Scores are "higher means more spoof-like"; the decision rule classifies a
sample as spoof when score >= threshold. APCER is the worst per-attack-type
rate of attacks classified live, BPCER the rate of live samples classified
spoof, ACER their mean. HTER averages FAR (spoof accepted live) and FRR
(live rejected) at a threshold fixed on a development set; AUC is the
rank-based probability that a random spoof outscores a random live sample,
ties counted one half.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScoredSample:
    score: float
    label: str
    attack_type: str
    path: str = ""

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError(f"score must be finite, got {self.score}")
        if self.label not in ("live", "spoof"):
            raise ValueError(f"bad label {self.label!r}")
        if (self.label == "live") != (self.attack_type == "none"):
            raise ValueError(f"label {self.label!r} inconsistent with attack type {self.attack_type!r}")


@dataclass
class ErrorRates:
    apcer: float
    bpcer: float
    acer: float
    apcer_by_type: dict[str, float]


def _split_classes(samples: list[ScoredSample]):
    live = [s for s in samples if s.label == "live"]
    spoof = [s for s in samples if s.label == "spoof"]
    if not live or not spoof:
        raise ValueError(f"need both classes, got {len(live)} live and {len(spoof)} spoof")
    return live, spoof


def error_rates(samples: list[ScoredSample], threshold: float) -> ErrorRates:
    """APCER / BPCER / ACER at a threshold; ±inf is allowed, NaN raises ValueError.

    Per attack type, APCER_type is the fraction of that type scored below
    the threshold (classified live); APCER takes the maximum over types.
    """
    _, bpcer = far_frr(samples, threshold)
    by_type: dict[str, list[ScoredSample]] = {}
    for s in samples:
        if s.label == "spoof":
            by_type.setdefault(s.attack_type, []).append(s)
    apcer_by_type = {
        t: sum(1 for s in group if s.score < threshold) / len(group) for t, group in sorted(by_type.items())
    }
    apcer = max(apcer_by_type.values())
    return ErrorRates(apcer, bpcer, (apcer + bpcer) / 2, apcer_by_type)


def far_frr(samples: list[ScoredSample], threshold: float) -> tuple[float, float]:
    """FAR: spoof accepted as live (score < threshold). FRR: live rejected.

    A NaN threshold, against which every comparison is false, raises ValueError.
    """
    if math.isnan(threshold):
        raise ValueError("threshold is NaN; no score can be compared against it")
    live, spoof = _split_classes(samples)
    far = sum(1 for s in spoof if s.score < threshold) / len(spoof)
    frr = sum(1 for s in live if s.score >= threshold) / len(live)
    return far, frr


def eer_threshold(dev_samples: list[ScoredSample]) -> float:
    """Threshold minimizing |FAR - FRR| on the dev set.

    Candidates are the midpoints between adjacent distinct scores plus one
    point below and above all scores; ties break toward smaller ACER, then
    toward the smaller threshold.

    All candidates are scored at once: each class's (and each attack
    type's) sorted scores are searched for every candidate, giving the
    integer count of scores below it, so FAR, FRR and the per-type APCER
    cost O(n log n) in all. The rates are the same float divisions of the
    same counts that `far_frr` and `error_rates` make, and `np.lexsort`
    picks the smallest (|FAR - FRR|, ACER, threshold) key, so the result
    is exactly the threshold a sweep over those functions would return.
    """
    live, spoof = _split_classes(dev_samples)
    # sort and drop repeats rather than np.unique, whose first call grows
    # the process's peak RSS by about 1 MiB
    scores = np.sort([s.score for s in dev_samples])
    distinct = scores[np.concatenate(([True], scores[1:] != scores[:-1]))]
    candidates = np.concatenate(([distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2, [distinct[-1] + 1.0]))

    def count_below(scores: list[float]) -> np.ndarray:
        """Per candidate, how many of `scores` lie below it (are classified live)."""
        return np.searchsorted(np.sort(scores), candidates, side="left")

    by_type: dict[str, list[float]] = {}
    for s in spoof:
        by_type.setdefault(s.attack_type, []).append(s.score)
    far = count_below([s.score for s in spoof]) / len(spoof)
    frr = (len(live) - count_below([s.score for s in live])) / len(live)
    apcer = np.max([count_below(scores) / len(scores) for scores in by_type.values()], axis=0)
    best = np.lexsort((candidates, (apcer + frr) / 2, np.abs(far - frr)))[0]
    return float(candidates[best])


def hter(test_samples: list[ScoredSample], threshold: float) -> float:
    far, frr = far_frr(test_samples, threshold)
    return (far + frr) / 2


def auc(samples: list[ScoredSample]) -> float:
    """Probability a random spoof outscores a random live sample, ties as 1/2.

    Exact integer pair counting via sorted search; equals the trapezoidal
    ROC area.
    """
    live, spoof = _split_classes(samples)
    live_sorted = np.sort([s.score for s in live])
    spoof_scores = [s.score for s in spoof]
    # per spoof score, the live scores below it and those below or equal to it
    below = np.searchsorted(live_sorted, spoof_scores, side="left")
    at_most = np.searchsorted(live_sorted, spoof_scores, side="right")
    wins = int(below.sum())
    ties = int(at_most.sum()) - wins
    return (2 * wins + ties) / (2 * len(spoof) * len(live))


def write_scores(samples: list[ScoredSample], path) -> None:
    """One line per sample: path, score, label, attack type (tab separated)."""
    lines = [f"{s.path}\t{s.score!r}\t{s.label}\t{s.attack_type}" for s in samples]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(path, values: dict) -> None:
    """key=value lines; floats are written with full round-trip precision."""
    with open(path, "w") as fh:
        for key, value in values.items():
            fh.write(f"{key}={value!r}\n" if isinstance(value, float) else f"{key}={value}\n")
