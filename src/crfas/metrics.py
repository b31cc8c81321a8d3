"""Spoof scoring and biometric error metrics.

Scores are "higher means more spoof-like"; the decision rule classifies a
sample as spoof when score >= threshold. APCER is the worst per-attack-type
rate of attacks classified live, BPCER the rate of live samples classified
spoof, ACER their mean. HTER averages FAR (spoof accepted live) and FRR
(live rejected) at a threshold fixed on a development set; AUC is the
rank-based probability that a random spoof outscores a random live sample,
ties counted one half.

Every rate, at one threshold or at all EER candidates, and AUC's pair
counts come from one split of the samples into sorted live scores and
sorted spoof scores per attack type, and one count of the scores below
each threshold.
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
    hter: float
    apcer_by_type: dict[str, float]


def _classes(samples: list[ScoredSample]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Sorted live scores, and sorted spoof scores per attack type in name order."""
    live, by_type = [], {}
    for s in samples:
        if s.label == "live":
            live.append(s.score)
        else:
            by_type.setdefault(s.attack_type, []).append(s.score)
    if not live or not by_type:
        n_spoof = sum(map(len, by_type.values()))
        raise ValueError(f"need both classes, got {len(live)} live and {n_spoof} spoof")
    return np.sort(live), {t: np.sort(by_type[t]) for t in sorted(by_type)}


def _count_below(sorted_scores: np.ndarray, thresholds):
    """Per threshold, how many of `sorted_scores` lie below it (are classified live)."""
    return np.searchsorted(sorted_scores, thresholds, side="left")


def _rates(live: np.ndarray, by_type: dict[str, np.ndarray], thresholds):
    """FAR, FRR and APCER per attack type at each threshold, as integer counts over class sizes."""
    below = {t: _count_below(scores, thresholds) for t, scores in by_type.items()}
    far = sum(below.values()) / sum(scores.size for scores in by_type.values())
    frr = (live.size - _count_below(live, thresholds)) / live.size
    return far, frr, {t: below[t] / by_type[t].size for t in by_type}


def error_rates(samples: list[ScoredSample], threshold: float) -> ErrorRates:
    """APCER / BPCER / ACER / HTER at a threshold; ±inf is allowed, NaN raises ValueError.

    Per attack type, APCER_type is the fraction of that type scored below
    the threshold (classified live); APCER takes the maximum over types.
    FAR counts every spoof scored below the threshold, FRR (= BPCER) every
    live sample at or above it, and HTER is their mean.
    """
    if math.isnan(threshold):
        raise ValueError("threshold is NaN; no score can be compared against it")
    far, frr, by_type = _rates(*_classes(samples), threshold)
    apcer_by_type = {t: float(rate) for t, rate in by_type.items()}
    apcer, bpcer = max(apcer_by_type.values()), float(frr)
    return ErrorRates(apcer, bpcer, (apcer + bpcer) / 2, (float(far) + bpcer) / 2, apcer_by_type)


def eer_threshold(dev_samples: list[ScoredSample]) -> float:
    """Threshold minimizing |FAR - FRR| on the dev set.

    Candidates are the midpoints between adjacent distinct scores plus one
    point below and above all scores; ties break toward smaller ACER, then
    toward the smaller threshold.

    Every candidate is rated at once by the same count `error_rates` makes
    at one threshold, so the rates are the same float divisions of the same
    integer counts, and `np.lexsort` picks the smallest (|FAR - FRR|, ACER,
    threshold) key: exactly the threshold a sweep of `error_rates` over the
    candidates would return, in O(n log n).
    """
    live, by_type = _classes(dev_samples)
    scores = np.sort(np.concatenate([live, *by_type.values()]))
    # drop repeats rather than call np.unique, whose first call grows the
    # process's peak RSS by about 1 MiB
    distinct = scores[np.concatenate(([True], scores[1:] != scores[:-1]))]
    candidates = np.concatenate(([distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2, [distinct[-1] + 1.0]))
    far, frr, apcer_by_type = _rates(live, by_type, candidates)
    apcer = np.max(list(apcer_by_type.values()), axis=0)
    best = np.lexsort((candidates, (apcer + frr) / 2, np.abs(far - frr)))[0]
    return float(candidates[best])


def auc(samples: list[ScoredSample]) -> float:
    """Probability a random spoof outscores a random live sample, ties as 1/2.

    Exact integer pair counting: with W spoof-live pairs won by the spoof
    and L lost, the ties are P - W - L of the P pairs, so the area is
    (P + W - L) / 2P. Equals the trapezoidal ROC area.
    """
    live, by_type = _classes(samples)
    wins = sum(int(_count_below(live, spoof).sum()) for spoof in by_type.values())
    losses = sum(int(_count_below(spoof, live).sum()) for spoof in by_type.values())
    pairs = live.size * sum(spoof.size for spoof in by_type.values())
    return (pairs + wins - losses) / (2 * pairs)


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
