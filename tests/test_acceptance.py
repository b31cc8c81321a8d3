"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. The trend experiment (criterion 10) trains nine desk-scale models
and dominates the runtime; everything else finishes in seconds.
"""
import time

import numpy as np
import pytest

from crfas import losses
from crfas.augment import AugmentConfig, patch_shuffle
from crfas.data import (
    ATTACK_TYPES,
    SplitSpec,
    SynthConfig,
    generate_synthetic,
    split,
)
from crfas.diffcore import (
    BNState,
    Tape,
    Tensor,
    batchnorm2d,
    conv2d,
    grad_check,
    l2_normalize,
    maxpool2d,
    mean_all,
    mul,
    relu,
    stop_gradient,
    sub,
    sum_all,
    transpose,
)
from crfas.metrics import ScoredSample, auc, eer_threshold, error_rates, far_frr
from crfas.model import ModelConfig, ViewOutputs, build_model
from crfas.trainer import TrainConfig, evaluate, fit


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_lemma_identity():
    rng = np.random.default_rng(1)
    start = time.time()
    worst = 0.0
    trials = 0
    for s2 in (1, 4, 16, 64):
        for d in (2, 8, 64):
            for _ in range(17):
                h = rng.standard_normal((s2, d))
                f = rng.standard_normal((s2, d))
                terms = losses.lemma_terms(h, f)
                worst = max(worst, abs(terms.lhs - terms.rhs) / max(1.0, abs(terms.lhs)))
                trials += 1
    elapsed = time.time() - start
    _report(
        1,
        "dense-similarity product decomposition",
        trials >= 200 and worst < 1e-6 and elapsed < 5.0,
        f"{trials} pairs, max rel dev {worst:.2e}, {elapsed:.2f}s",
    )


# -- criterion 2 -------------------------------------------------------------


def _double_sum_similarity(h, f, reduction):
    hn = h / np.maximum(np.linalg.norm(h, axis=1, keepdims=True), 1e-12)
    fn = f / np.maximum(np.linalg.norm(f, axis=1, keepdims=True), 1e-12)
    total = 0.0
    for i in range(hn.shape[0]):
        for j in range(fn.shape[0]):
            total += float(hn[i] @ fn[j])
    return total / h.shape[0] ** 2 if reduction == "mean" else total


def test_criterion_2_fast_form_equals_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    bounded = True
    for s2 in (1, 4, 16):
        for d in (2, 8):
            for _ in range(10):
                h = rng.standard_normal((s2, d))
                f = rng.standard_normal((s2, d))
                for reduction in ("sum", "mean"):
                    fast = losses.dense_similarity(h, f, reduction)
                    slow = _double_sum_similarity(h, f, reduction)
                    worst = max(worst, abs(fast - slow) / max(1.0, abs(slow)))
                mean_value = losses.dense_similarity(h, f, "mean")
                bounded = bounded and -1.0 <= mean_value <= 1.0
    _report(2, "fast similarity equals double-sum oracle", worst < 1e-6 and bounded, f"max rel dev {worst:.2e}")


# -- criterion 3 -------------------------------------------------------------


def _kernel_cases(rng):
    x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    gamma = Tensor(rng.standard_normal(2) + 1.0, requires_grad=True)
    beta = Tensor(rng.standard_normal(2), requires_grad=True)
    pool_in = Tensor(rng.permutation(32).astype(np.float64).reshape(2, 1, 4, 4) * 0.1, requires_grad=True)
    rows = Tensor(rng.standard_normal((4, 6)) + 0.3, requires_grad=True)
    other = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)

    def sq(t):
        return mean_all(mul(t, t))

    def nhwc(t):
        # the kernels take channels-last activations
        return transpose(t, (0, 2, 3, 1))

    return {
        "conv2d": ({"x": x, "w": w, "b": b}, lambda: sq(conv2d(nhwc(x), w, b, 1, 1))),
        "conv2d_strided": ({"x": x, "w": w, "b": b}, lambda: sq(conv2d(nhwc(x), w, b, 2, 1))),
        "batchnorm2d": (
            {"x": x, "gamma": gamma, "beta": beta},
            lambda: sq(batchnorm2d(nhwc(x), gamma, beta, BNState.create(2, np.float64), "train")),
        ),
        "relu": ({"x": x}, lambda: sq(relu(x))),
        "maxpool2d": ({"pool_in": pool_in}, lambda: sq(maxpool2d(nhwc(pool_in)))),
        "l2_normalize": ({"rows": rows}, lambda: sq(l2_normalize(rows))),
        "stop_gradient": (
            {"x": x, "other": other},
            lambda: sum_all(mul(stop_gradient(x), other)),
        ),
        "sub_mul_mean": ({"x": x, "other": other}, lambda: sq(sub(x, other))),
    }


def test_criterion_3_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    details = []
    for name, (params, fn) in _kernel_cases(rng).items():
        report = grad_check(fn, params, h=1e-5, tol=1e-4)
        worst = max(worst, report.max_rel_err)
        details.append(f"{name}={report.max_rel_err:.1e}")

    config = ModelConfig(input_size=16, backbone_channels=(4, 6, 6), feature_side=2, embed_dim=6)
    model = build_model(config, 0, "f64")
    x1 = Tensor(rng.random((2, 3, 16, 16)))
    x2 = Tensor(rng.random((2, 3, 16, 16)))
    labels = np.array([0, 1])
    mask = np.array([True, True])

    def full_loss():
        views = model.forward_views(x1, x2, "train")
        _, total = losses.loss_overall(views, labels, mask, alpha=0.1)
        return total

    report = grad_check(full_loss, dict(model.named_params()), h=1e-5, tol=1e-4)
    worst = max(worst, report.max_rel_err)
    elapsed = time.time() - start
    _report(
        3,
        "finite differences agree with reverse-mode everywhere",
        worst < 1e-4 and elapsed < 120.0,
        f"max rel err {worst:.2e} (full model {report.max_rel_err:.2e}), {elapsed:.1f}s",
    )


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_stop_gradient_nullity():
    config = ModelConfig(input_size=16, backbone_channels=(4, 6, 6), feature_side=2, embed_dim=6)
    all_zero = True
    any_live = True
    for seed in range(10):
        main = build_model(config, seed)
        twin = build_model(config, seed + 1000)
        rng = np.random.default_rng(seed)
        x1 = Tensor(rng.random((2, 3, 16, 16)).astype(np.float32))
        x2 = Tensor(rng.random((2, 3, 16, 16)).astype(np.float32))
        with Tape() as tape:
            pred1 = main.predict(main.encode(x1, "train"), "train")
            pred2 = main.predict(main.encode(x2, "train"), "train")
            emb1 = twin.encode(x1, "train")
            emb2 = twin.encode(x2, "train")
            value = losses.loss_embedd(pred1, emb2, pred2, emb1)
            main.zero_grads()
            twin.zero_grads()
            tape.backward(value)
        for _, p in twin.named_params():
            if not np.all(p.grad == 0):
                all_zero = False
        live = sum(float(np.abs(p.grad).sum()) for _, p in main.named_params())
        any_live = any_live and live > 0
    _report(4, "detached branch receives exactly zero gradient", all_zero and any_live, "10 random models")


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_view_swap_symmetry():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        n, d, s = 3, 4, 3
        fields = {
            name: Tensor(rng.standard_normal((n, d, s, s)))
            for name in ("emb1", "emb2", "pred1", "pred2")
        }
        fields.update(
            {
                name: Tensor(rng.standard_normal((n, 1, s, s)))
                for name in ("cls_emb1", "cls_emb2", "cls_pred1", "cls_pred2")
            }
        )
        views = ViewOutputs(**fields)
        labels = np.array([1, 0])
        mask = np.array([True, True, False])
        bundle, _ = losses.loss_overall(views, labels, mask, 0.1)
        swapped_bundle, _ = losses.loss_overall(views.swapped(), labels, mask, 0.1)
        worst = max(
            worst,
            abs(bundle.l_embedd - swapped_bundle.l_embedd),
            abs(bundle.l_pred - swapped_bundle.l_pred),
            abs(bundle.l_overall - swapped_bundle.l_overall),
        )
    _report(5, "losses invariant under exchanging the views", worst <= 1e-12, f"max dev {worst:.2e}")


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_patch_shuffle():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(10):
        img = (rng.integers(0, 256, (3, 24, 24)) / 255.0).astype(np.float32)
        perm = rng.permutation(9)
        out = patch_shuffle(img, 3, perm)
        bins = np.linspace(0, 1, 257)
        for c in range(3):
            ok = ok and np.array_equal(np.histogram(out[c], bins)[0], np.histogram(img[c], bins)[0])
        restored = patch_shuffle(out, 3, np.argsort(perm))
        ok = ok and np.array_equal(restored, img)
        ok = ok and np.array_equal(patch_shuffle(img, 3, np.arange(9)), img)
    _report(6, "patch shuffle preserves histograms and inverts bitwise", ok)


# -- criterion 7 -------------------------------------------------------------


def _auc_pairs(samples):
    lives = [s.score for s in samples if s.label == "live"]
    spoofs = [s.score for s in samples if s.label == "spoof"]
    wins = sum(1 for s in spoofs for l in lives if s > l)
    ties = sum(1 for s in spoofs for l in lives if s == l)
    return (wins + 0.5 * ties) / (len(spoofs) * len(lives))


def _eer_sweep(samples):
    scores = sorted({s.score for s in samples})
    candidates = [scores[0] - 1.0] + [(a + b) / 2 for a, b in zip(scores, scores[1:])] + [scores[-1] + 1.0]
    return min((abs(far_frr(samples, t)[0] - far_frr(samples, t)[1]), error_rates(samples, t).acer, t) for t in candidates)[2]


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(7)
    ok = True

    # Published APCER/BPCER/ACER consistency: 2.0 and 0.0 average to 1.0
    samples = [ScoredSample(1.0, "spoof", "print") for _ in range(98)]
    samples += [ScoredSample(0.0, "spoof", "print") for _ in range(2)]
    samples += [ScoredSample(0.2, "live", "none") for _ in range(40)]
    rates = error_rates(samples, 0.5)
    ok = ok and rates.apcer == 0.02 and rates.bpcer == 0.0 and rates.acer == 0.01

    for _ in range(50):
        pool = [ScoredSample(float(rng.random()), "live", "none") for _ in range(10)]
        pool += [ScoredSample(float(rng.random()), "spoof", ("print", "replay")[int(rng.integers(2))]) for _ in range(10)]
        thr = float(rng.random())
        r = error_rates(pool, thr)
        ok = ok and r.acer == (r.apcer + r.bpcer) / 2

    auc_exact = True
    for _ in range(100):
        nl, ns = int(rng.integers(2, 25)), int(rng.integers(2, 25))
        pool = [ScoredSample(float(rng.integers(0, 8)) / 7, "live", "none") for _ in range(nl)]
        pool += [ScoredSample(float(rng.integers(0, 8)) / 7, "spoof", "print") for _ in range(ns)]
        auc_exact = auc_exact and auc(pool) == _auc_pairs(pool)

    eer_exact = True
    for _ in range(40):
        n = int(rng.integers(3, 20))
        pool = [ScoredSample(float(rng.random()), "live", "none") for _ in range(n)]
        pool += [ScoredSample(float(rng.random()), "spoof", "print") for _ in range(n)]
        eer_exact = eer_exact and eer_threshold(pool) == _eer_sweep(pool)

    _report(7, "metric oracles (ACER identity, AUC pairs, EER sweep)", ok and auc_exact and eer_exact)


# -- criterion 8 -------------------------------------------------------------


def _partitions_ok(result, drawn_keys):
    keys = []
    for lst in result.lists().values():
        keys.extend((r.dataset_id, r.path) for r in lst)
    return len(keys) == len(set(keys)) and set(keys) == drawn_keys


def test_criterion_8_split_invariants(tmp_path):
    cfg = SynthConfig(
        subjects=20,
        sessions=3,
        attacks=tuple(a for a in ATTACK_TYPES if a != "none"),
        per_cell=1,
        side=16,
        datasets=("dA", "dB", "dC", "dD"),
        seed=8,
    )
    records = generate_synthetic(cfg, tmp_path / "synthdata")
    ok = True

    single = [r for r in records if r.dataset_id == "dA"]
    drawn_single = {(r.dataset_id, r.path) for r in single}
    previous = set()
    for fraction in (0.1, 0.2, 0.5, 1.0):
        result = split(single, SplitSpec(1, {"label_fraction": fraction}))
        ok = ok and _partitions_ok(result, drawn_single)
        labeled = {(r.dataset_id, r.path) for r in result.labeled_train + result.dev}
        ok = ok and previous <= labeled
        previous = labeled
        ok = ok and all(r.session == 3 for r in result.test)
    full = split(single, SplitSpec(1, {"label_fraction": 1.0}))
    ok = ok and full.unlabeled_train == []

    result = split(single, SplitSpec(2, {"extra_mode": "live_only_p", "extra_fraction": 0.5}))
    ok = ok and _partitions_ok(result, drawn_single)
    ok = ok and all(r.label == "live" and r.session == 3 for r in result.unlabeled_train)

    result = split(records, SplitSpec(3, {"unlabeled_dataset": "dB"}))
    ok = ok and _partitions_ok(result, {(r.dataset_id, r.path) for r in records})
    ok = ok and {r.dataset_id for r in result.unlabeled_train} == {"dB"}
    ok = ok and "dB" not in {r.dataset_id for r in result.labeled_train + result.dev}

    result = split(records, SplitSpec(4, {"label_fraction": 0.5, "test_dataset": "dD"}))
    ok = ok and _partitions_ok(result, {(r.dataset_id, r.path) for r in records})
    ok = ok and {r.dataset_id for r in result.test} == {"dD"}

    result = split(single, SplitSpec(5, {"unlabeled_attack": "papermask", "test_attack": "flexiblemask"}))
    drawn5 = {(r.dataset_id, r.path) for lst in result.lists().values() for r in lst}
    ok = ok and _partitions_ok(result, drawn5)
    ok = ok and all(r.attack_type == "papermask" for r in result.unlabeled_train)
    ok = ok and {r.attack_type for r in result.test} == {"flexiblemask", "none"}
    labeled_attacks = {r.attack_type for r in result.labeled_train + result.dev}
    ok = ok and not {"papermask", "flexiblemask"} & labeled_attacks
    papermask_total = [r for r in single if r.attack_type == "papermask"]
    ok = ok and len(result.unlabeled_train) == len(papermask_total)

    _report(8, "protocol splits keep partition and disjointness invariants", ok)


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_training_determinism(tmp_path):
    cfg = SynthConfig(subjects=6, sessions=3, attacks=("print", "replay"), per_cell=1, side=16, seed=9)
    records = generate_synthetic(cfg, tmp_path / "data")
    model_config = ModelConfig(input_size=16, backbone_channels=(4, 6, 6), feature_side=2, embed_dim=6)
    blobs = []
    for run in ("a", "b"):
        result = split(records, SplitSpec(1, {"label_fraction": 0.5}))
        config = TrainConfig(
            batch_size=4, epochs=2, seed=17, model=model_config,
            augment=AugmentConfig(psa_grid=2),
        )
        model = build_model(model_config, seed=17)
        final = fit(model, result, config, tmp_path / run, tmp_path / "data")
        blobs.append((final.read_bytes(), (tmp_path / run / "train.log").read_bytes()))
    same = blobs[0][0] == blobs[1][0] and blobs[0][1] == blobs[1][1]
    _report(9, "identical (config, seed, split) gives byte-identical outputs", same)


# -- criterion 10 ------------------------------------------------------------

TREND_MODEL = ModelConfig(input_size=24, backbone_channels=(16, 32, 32), feature_side=3, embed_dim=32)
TREND_SYNTH = SynthConfig(
    subjects=50, sessions=3, attacks=("print", "replay"), per_cell=2, side=24,
    seed=100, noise_std=0.015, overlay_amp=0.12,
)
TREND_SEEDS = (0, 1, 2)


def _trend_train_config(seed):
    return TrainConfig(
        batch_size=16,
        epochs=60,
        seed=seed,
        labeled_fraction_per_batch=0.375,
        model=TREND_MODEL,
        augment=AugmentConfig(crop_scale=(0.9, 1.0), cutout_frac=0.125),
    )


def test_criterion_10_semi_supervised_trend(tmp_path):
    start = time.time()
    records = generate_synthetic(TREND_SYNTH, tmp_path / "data")
    acers = {"semi20": [], "sup20": [], "sup100": []}
    for seed in TREND_SEEDS:
        for tag, fraction, supervised_only in (
            ("semi20", 0.2, False),
            ("sup20", 0.2, True),
            ("sup100", 1.0, True),
        ):
            result = split(records, SplitSpec(1, {"label_fraction": fraction}))
            if supervised_only:
                result.unlabeled_train = []
            model = build_model(TREND_MODEL, seed)
            final = fit(model, result, _trend_train_config(seed), tmp_path / f"{tag}_{seed}", tmp_path / "data")
            summary = evaluate(final, result.test, tmp_path / "data", dev_records=result.dev)
            acers[tag].append(summary["acer"])
            print(f"    {tag} seed={seed}: ACER={summary['acer']:.4f} AUC={summary['auc']:.4f}")
    elapsed = time.time() - start
    mean = {tag: float(np.mean(v)) for tag, v in acers.items()}
    ok = mean["semi20"] <= mean["sup20"] and mean["sup100"] <= mean["sup20"] and elapsed < 900
    saturated = mean["semi20"] < 0.005 and mean["sup20"] < 0.005
    _report(
        10,
        "unlabeled data helps at 20% labels; 100% labels beat 20%",
        ok and not saturated,
        f"semi {mean['semi20']:.3f} <= sup {mean['sup20']:.3f}, full {mean['sup100']:.3f}, {elapsed:.0f}s",
    )
