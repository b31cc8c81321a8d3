"""Metric tests with exhaustive-sweep and pair-counting oracles."""
import math

import numpy as np
import pytest

from crfas.metrics import ScoredSample, auc, eer_threshold, error_rates


def live(score):
    return ScoredSample(score=score, label="live", attack_type="none")


def spoof(score, attack="print"):
    return ScoredSample(score=score, label="spoof", attack_type=attack)


def auc_pair_counting(samples):
    """O(n^2) oracle: wins + half-ties over all (spoof, live) pairs."""
    lives = [s.score for s in samples if s.label == "live"]
    spoofs = [s.score for s in samples if s.label == "spoof"]
    wins = sum(1 for s in spoofs for l in lives if s > l)
    ties = sum(1 for s in spoofs for l in lives if s == l)
    return (wins + 0.5 * ties) / (len(spoofs) * len(lives))


def counted_rates(samples, thr):
    """(FAR, FRR, ACER) at `thr` by plain comparisons, one sample at a time."""
    lives = [s.score for s in samples if s.label == "live"]
    by_type = {}
    for s in samples:
        if s.label == "spoof":
            by_type.setdefault(s.attack_type, []).append(s.score)
    spoofs = [x for scores in by_type.values() for x in scores]
    far = sum(1 for x in spoofs if x < thr) / len(spoofs)
    frr = sum(1 for x in lives if x >= thr) / len(lives)
    apcer = max(sum(1 for x in scores if x < thr) / len(scores) for scores in by_type.values())
    return far, frr, (apcer + frr) / 2


def eer_threshold_sweep(samples):
    """Exhaustive oracle over the same candidate set, restated independently."""
    scores = sorted({s.score for s in samples})
    candidates = [scores[0] - 1.0] + [(a + b) / 2 for a, b in zip(scores, scores[1:])] + [scores[-1] + 1.0]
    rows = []
    for thr in candidates:
        far, frr, acer = counted_rates(samples, thr)
        rows.append((abs(far - frr), acer, thr))
    return min(rows)[2]


class TestErrorRates:
    def test_table_consistency_two_percent(self):
        # APCER 2%, BPCER 0% must give ACER exactly 1%
        samples = [spoof(1.0) for _ in range(98)] + [spoof(0.0) for _ in range(2)]
        samples += [live(0.2) for _ in range(50)]
        rates = error_rates(samples, threshold=0.5)
        assert rates.apcer == 0.02
        assert rates.bpcer == 0.0
        assert rates.acer == 0.01

    def test_perfect_separation(self):
        samples = [live(0.1), live(0.2), spoof(0.8), spoof(0.9)]
        rates = error_rates(samples, threshold=0.5)
        assert (rates.apcer, rates.bpcer, rates.acer) == (0.0, 0.0, 0.0)

    def test_max_over_attack_types(self):
        # print: 1 of 10 below threshold, replay: 3 of 10 below
        samples = [spoof(1.0, "print") for _ in range(9)] + [spoof(0.0, "print")]
        samples += [spoof(1.0, "replay") for _ in range(7)] + [spoof(0.0, "replay") for _ in range(3)]
        samples += [live(0.2) for _ in range(5)]
        rates = error_rates(samples, threshold=0.5)
        assert rates.apcer_by_type == {"print": 0.1, "replay": 0.3}
        assert rates.apcer == 0.3

    def test_acer_is_mean_by_construction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            samples = [live(rng.random()) for _ in range(8)] + [
                spoof(rng.random(), attack=("print", "replay")[i % 2]) for i in range(8)
            ]
            thr = rng.random()
            rates = error_rates(samples, thr)
            assert rates.acer == (rates.apcer + rates.bpcer) / 2

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        samples = [live(rng.random()) for _ in range(20)] + [spoof(rng.random()) for _ in range(20)]
        thresholds = np.linspace(-0.2, 1.2, 30)
        rates = [error_rates(samples, t) for t in thresholds]
        for a, b in zip(rates, rates[1:]):
            assert b.apcer >= a.apcer
            assert b.bpcer <= a.bpcer

    def test_infinite_threshold_boundary(self):
        samples = [live(0.1), live(0.9), spoof(0.5), spoof(0.6)]
        rates = error_rates(samples, math.inf)
        assert rates.apcer == 1.0 and rates.bpcer == 0.0 and rates.acer == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            error_rates([live(0.5)], 0.5)

    def test_nan_threshold_rejected(self):
        # every comparison with NaN is false, which would read as a perfect score
        samples = [live(0.1), live(0.9), spoof(0.5), spoof(0.6)]
        with pytest.raises(ValueError, match="NaN"):
            error_rates(samples, math.nan)

    def test_rates_match_counted_oracle(self):
        # FAR counts every spoof, so with several attack types HTER is not
        # (APCER + BPCER) / 2; ±inf and tied thresholds are included
        rng = np.random.default_rng(5)
        types = ("print", "replay", "mask")
        for trial in range(60):
            n_types = trial % 3 + 1
            scores = np.round(rng.random(int(rng.integers(n_types + 5, 40))), 1).tolist()
            samples = [live(x) for x in scores[:1 + trial % 5]]
            samples += [spoof(x, types[i % n_types]) for i, x in enumerate(scores[1 + trial % 5:])]
            for thr in (-math.inf, math.inf, scores[0], float(rng.random())):
                far, frr, acer = counted_rates(samples, thr)
                rates = error_rates(samples, thr)
                assert (rates.bpcer, rates.acer, rates.hter) == (frr, acer, (far + frr) / 2)


class TestEerHter:
    def test_disjoint_ranges_give_zero(self):
        samples = [live(0.1), live(0.2), spoof(0.8), spoof(0.9)]
        rates = error_rates(samples, eer_threshold(samples))
        assert rates.apcer == 0.0 and rates.bpcer == 0.0
        assert rates.hter == 0.0

    def test_interleaved_example(self):
        samples = [live(0.1), live(0.2), spoof(0.15), spoof(0.3)]
        thr = eer_threshold(samples)
        assert 0.15 < thr < 0.2
        rates = error_rates(samples, thr)
        assert rates.apcer == 0.5 and rates.bpcer == 0.5 and rates.hter == 0.5

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            n = int(rng.integers(3, 25))
            samples = [live(float(rng.random())) for _ in range(n)]
            samples += [spoof(float(rng.random())) for _ in range(n)]
            if trial % 3 == 0:  # inject ties
                samples.append(live(samples[0].score))
                samples.append(spoof(samples[0].score))
            assert eer_threshold(samples) == eer_threshold_sweep(samples)

    @pytest.mark.parametrize("n_types", [1, 2, 3])
    def test_matches_sweep_oracle_with_attack_types_and_ties(self, n_types):
        # the per-type APCER enters the tie-break through ACER, so several
        # attack types and many tied scores exercise every part of the key
        rng = np.random.default_rng(40 + n_types)
        types = ("print", "replay", "mask")[:n_types]
        for trial in range(30):
            n = int(rng.integers(n_types + 1, 301))
            n_live = int(rng.integers(1, n - n_types + 1))
            decimals = trial % 4 + 1  # 1 decimal: at most 11 distinct scores
            scores = np.round(rng.random(n), decimals).tolist()
            samples = [live(x) for x in scores[:n_live]]
            samples += [spoof(x, types[i % n_types]) for i, x in enumerate(scores[n_live:])]
            assert eer_threshold(samples) == eer_threshold_sweep(samples)

    def test_per_type_apcer_breaks_the_tie(self):
        # 2.5 and 4.0 tie on |FAR - FRR| and on (FAR + FRR) / 2; only the
        # max over attack types in ACER prefers the larger threshold
        samples = [spoof(0.5, "print"), live(1.0), live(2.0), live(3.0), spoof(3.0, "replay")]
        samples += [live(5.0), spoof(6.0, "replay"), spoof(7.0, "replay")]
        low, high = error_rates(samples, 2.5), error_rates(samples, 4.0)
        # FAR 0.25 and 0.5, FRR 0.5 and 0.25
        assert (low.bpcer, low.hter) == (0.5, 0.375) and (high.bpcer, high.hter) == (0.25, 0.375)
        assert high.acer < low.acer
        assert eer_threshold(samples) == eer_threshold_sweep(samples) == 4.0

    def test_threshold_below_all_scores(self):
        samples = [live(0.3), live(0.4), spoof(0.6), spoof(0.7)]
        # everything classified spoof: FRR 1, FAR 0
        assert error_rates(samples, -10.0).hter == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            eer_threshold([spoof(0.5), spoof(0.6)])


class TestAuc:
    def test_perfect_ranking(self):
        samples = [live(0.1), live(0.2), spoof(0.8), spoof(0.9)]
        assert auc(samples) == 1.0

    def test_all_ties(self):
        samples = [live(0.5), live(0.5), spoof(0.5), spoof(0.5)]
        assert auc(samples) == 0.5

    def test_matches_pair_counting_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            nl = int(rng.integers(2, 30))
            ns = int(rng.integers(2, 30))
            # quantized scores force plenty of ties
            samples = [live(float(rng.integers(0, 10)) / 10) for _ in range(nl)]
            samples += [spoof(float(rng.integers(0, 10)) / 10) for _ in range(ns)]
            assert auc(samples) == auc_pair_counting(samples)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        samples = [live(float(s)) for s in rng.random(15)] + [spoof(float(s)) for s in rng.random(15)]
        transformed = [
            ScoredSample(score=math.exp(3 * s.score) - 1, label=s.label, attack_type=s.attack_type)
            for s in samples
        ]
        assert auc(samples) == auc(transformed)

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            live(math.nan)
