"""Objective-level tests: dense similarity, its decomposition, loss terms."""
import dataclasses

import numpy as np
import pytest

from crfas.diffcore import (
    ShapeError,
    Tape,
    Tensor,
    add,
    gather_batch,
    grad_check,
    l2_normalize,
    mul,
    reshape,
    scale,
    stop_gradient,
    sum_all,
    sum_axis,
)
from crfas.losses import (
    DegenerateCenterError,
    _dense_similarity_mean,
    lemma_terms,
    loss_embedd,
    loss_overall,
    loss_pred,
    mse_map,
)
from crfas.model import ViewOutputs
from crfas.trainer import TrainConfig


def taped_similarity(h, f, reduction="sum"):
    """`_dense_similarity_mean`, the form training computes, forward only on
    one-row batches whose 1 x s2 maps hold the rows of the (s2, d) matrices;
    "sum" is the mean times s2 squared."""
    def as_batch(m):
        return Tensor(np.reshape(m, (1, 1, *np.shape(m))))

    mean = _dense_similarity_mean(as_batch(h), as_batch(f)).item()
    return mean * np.shape(h)[0] ** 2 if reduction == "sum" else mean


def dense_similarity_double_loop(h, f, reduction="sum"):
    """Literal definition: sum the cosine of every row pair."""
    def norm_rows(m):
        out = np.zeros_like(m, dtype=np.float64)
        for i, row in enumerate(m):
            n = np.linalg.norm(row)
            out[i] = row / max(n, 1e-12)
        return out

    hn, fn = norm_rows(h), norm_rows(f)
    total = 0.0
    for i in range(hn.shape[0]):
        for j in range(fn.shape[0]):
            total += float(hn[i] @ fn[j])
    if reduction == "mean":
        total /= h.shape[0] ** 2
    return total


def random_views(rng, n=2, d=4, s=3, dtype=np.float64):
    """Four 2N maps of n samples, view-1 rows first."""
    def t(shape):
        return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

    return ViewOutputs(
        emb=t((2 * n, s, s, d)), pred=t((2 * n, s, s, d)),
        cls_emb=t((2 * n, s, s, 1)), cls_pred=t((2 * n, s, s, 1)),
    )


def exchange_views(t):
    n = t.shape[0] // 2
    return Tensor(np.concatenate([t.data[n:], t.data[:n]]))


# -- the paper's two-view formulas, term by term over sliced halves ----------


def halves(t):
    n = t.shape[0] // 2
    return gather_batch(t, np.arange(n)), gather_batch(t, np.arange(n, 2 * n))


def two_view_similarity(pred, target):
    n, h, w, c = pred.shape
    rows_p = l2_normalize(reshape(pred, (n, h * w, c)))
    rows_t = l2_normalize(reshape(stop_gradient(target), (n, h * w, c)))
    return scale(sum_all(mul(sum_axis(rows_p, 1), sum_axis(rows_t, 1))), 1.0 / (n * (h * w) ** 2))


def label_maps(labels, side, dtype=np.float64):
    """One constant (side, side, 1) map per label, built one row at a time."""
    return np.stack([np.full((side, side, 1), v, dtype=dtype) for v in labels])


def two_view_overall(views, labels, alpha):
    """-1/2 (DS(p1, sg(e2)) + DS(p2, sg(e1))), 1/2 (MSE(cp1, ce2) + MSE(cp2, ce1)), 1/2 sup."""
    (p1, p2), (e1, e2) = halves(views.pred), halves(views.emb)
    (cp1, cp2), (ce1, ce2) = halves(views.cls_pred), halves(views.cls_emb)
    l_emb = scale(add(two_view_similarity(p1, e2), two_view_similarity(p2, e1)), -0.5)
    l_prd = scale(add(mse_map(cp1, ce2), mse_map(cp2, ce1)), 0.5)
    idx = np.arange(len(labels))
    if idx.size:
        y = Tensor(label_maps(labels, ce1.shape[1], ce1.dtype))
        l_sup = scale(add(mse_map(gather_batch(ce1, idx), y), mse_map(gather_batch(ce2, idx), y)), 0.5)
    else:
        l_sup = Tensor(np.zeros((), dtype=ce1.dtype))
    total = add(add(l_sup, l_emb), scale(l_prd, alpha))
    return (l_sup.item(), l_emb.item(), l_prd.item(), total.item()), total


def map_gradients(views, loss_fn):
    maps = (views.emb, views.pred, views.cls_emb, views.cls_pred)
    with Tape() as tape:
        values, total = loss_fn()
        for m in maps:
            m.zero_grad()
        tape.backward(total)
    return values, [m.grad.copy() for m in maps]


class TestDenseSimilarity:
    def test_single_unit_row(self):
        v = np.array([[0.6, 0.8]])
        assert taped_similarity(v, v, "sum") == pytest.approx(1.0, abs=1e-12)

    def test_perfect_alignment_four_rows(self):
        u = np.array([1.0, 0.0, 0.0])
        h = np.tile(u, (4, 1))
        assert taped_similarity(h, h, "sum") == pytest.approx(16.0, abs=1e-9)
        assert taped_similarity(h, h, "mean") == pytest.approx(1.0, abs=1e-12)

    def test_fast_form_equals_double_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = rng.standard_normal((4, 3))
            f = rng.standard_normal((4, 3))
            for reduction in ("sum", "mean"):
                fast = taped_similarity(h, f, reduction)
                slow = dense_similarity_double_loop(h, f, reduction)
                assert abs(fast - slow) / max(1.0, abs(slow)) < 1e-6

    def test_mean_bounded(self):
        rng = np.random.default_rng(1)
        for s2 in (1, 4, 16):
            for _ in range(25):
                h = rng.standard_normal((s2, 5))
                f = rng.standard_normal((s2, 5))
                assert -1.0 <= taped_similarity(h, f, "mean") <= 1.0

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((5, 4))
        f = rng.standard_normal((5, 4))
        base = taped_similarity(h, f)
        scaled = h.copy()
        scaled[2] *= 37.5
        assert taped_similarity(scaled, f) == pytest.approx(base, rel=1e-12)

    def test_negative_row_scale_flips_contribution(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((3, 4))
        f = rng.standard_normal((3, 4))
        flipped = h.copy()
        flipped[1] *= -2.0
        # the flipped row's pairwise terms change sign; remove both versions
        # of the row and the remainder must match
        def partial(hm):
            hn = hm / np.linalg.norm(hm, axis=1, keepdims=True)
            fn = f / np.linalg.norm(f, axis=1, keepdims=True)
            return sum(float(hn[i] @ fn[j]) for i in (0, 2) for j in range(3))

        assert partial(h) == pytest.approx(partial(flipped), rel=1e-12)
        row1 = sum(float((h[1] / np.linalg.norm(h[1])) @ (f[j] / np.linalg.norm(f[j]))) for j in range(3))
        assert taped_similarity(flipped, f) == pytest.approx(taped_similarity(h, f) - 2 * row1, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            taped_similarity(np.zeros((2, 3)), np.zeros((3, 2)))


class TestLemma:
    def test_identical_matrices(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((4, 3))
        terms = lemma_terms(h, h)
        assert terms.cosine == pytest.approx(1.0, abs=1e-12)
        assert terms.lhs == pytest.approx(terms.rhs, rel=1e-9)
        assert terms.lhs == pytest.approx(taped_similarity(h, h), rel=1e-9)

    def test_orthogonal_centers(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        h = np.tile(u, (4, 1))
        f = np.tile(v, (4, 1))
        terms = lemma_terms(h, f)
        assert terms.lhs == pytest.approx(0.0, abs=1e-12)
        assert terms.cosine == pytest.approx(0.0, abs=1e-12)
        assert terms.rhs == pytest.approx(0.0, abs=1e-12)

    def test_identity_sweep(self):
        rng = np.random.default_rng(5)
        checked = 0
        for s2 in (1, 4, 16, 64):
            for d in (2, 8, 64):
                for _ in range(6):
                    h = rng.standard_normal((s2, d))
                    f = rng.standard_normal((s2, d))
                    terms = lemma_terms(h, f)
                    assert abs(terms.lhs - terms.rhs) / max(1.0, abs(terms.lhs)) < 1e-6
                    assert terms.self_h >= 0 and terms.self_f >= 0
                    checked += 1
        assert checked == 72

    def test_degenerate_center_rejected(self):
        h = np.array([[1.0, 0.0], [-1.0, 0.0]])  # normalized rows cancel
        f = np.ones((2, 2))
        with pytest.raises(DegenerateCenterError):
            lemma_terms(h, f)


class TestLossEmbedd:
    def test_identical_unit_rows_reach_minimum(self):
        u = np.zeros((2, 2, 2, 4))
        u[..., 1] = 1.0  # every spatial row of both views is e_1
        t = lambda: Tensor(u.copy())
        value = loss_embedd(t(), t())
        assert value.item() == pytest.approx(-1.0, abs=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(6)
        pred, emb = (Tensor(rng.standard_normal((4, 2, 2, 3))) for _ in range(2))
        assert loss_embedd(pred, emb).item() == pytest.approx(
            loss_embedd(exchange_views(pred), exchange_views(emb)).item(), abs=1e-15
        )

    def test_no_gradient_into_detached_embeddings(self):
        rng = np.random.default_rng(7)
        pred, emb = (Tensor(rng.standard_normal((4, 2, 2, 3)), requires_grad=True) for _ in range(2))
        with Tape() as tape:
            value = loss_embedd(pred, emb)
            for t in (pred, emb):
                t.zero_grad()
            tape.backward(value)
        np.testing.assert_array_equal(emb.grad, np.zeros_like(emb.data))
        # both views' predictor rows are trained
        assert np.abs(pred.grad[:2]).sum() > 0
        assert np.abs(pred.grad[2:]).sum() > 0

    def test_matches_matrix_level_similarity(self):
        rng = np.random.default_rng(8)
        n, d, s = 3, 4, 2
        p1, e2, p2, e1 = (rng.standard_normal((n, s, s, d)) for _ in range(4))

        def rows(x, i):
            return x[i].reshape(s * s, d)

        want = -0.5 * (
            np.mean([dense_similarity_double_loop(rows(p1, i), rows(e2, i), "mean") for i in range(n)])
            + np.mean([dense_similarity_double_loop(rows(p2, i), rows(e1, i), "mean") for i in range(n)])
        )
        got = loss_embedd(Tensor(np.concatenate([p1, p2])), Tensor(np.concatenate([e1, e2]))).item()
        assert got == pytest.approx(want, rel=1e-9)

    def test_bounded_below(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            args = [Tensor(rng.standard_normal((4, 2, 2, 3))) for _ in range(2)]
            assert loss_embedd(*args).item() >= -1.0 - 1e-12


class TestMseAndPred:
    def test_equal_maps_zero(self):
        a = Tensor(np.random.default_rng(10).random((2, 3, 3, 1)))
        assert mse_map(a, Tensor(a.data.copy())).item() == 0.0

    def test_ones_vs_zeros(self):
        a = Tensor(np.ones((2, 3, 3, 1)))
        b = Tensor(np.zeros((2, 3, 3, 1)))
        assert mse_map(a, b).item() == 1.0

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 4, 4, 1))
        b = rng.standard_normal((3, 4, 4, 1))
        want = sum((x - y) ** 2 for x, y in zip(a.flat, b.flat)) / a.size
        assert mse_map(Tensor(a), Tensor(b)).item() == pytest.approx(want, rel=1e-12)

    def test_gradient_flows_into_both_sides(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.standard_normal((2, 2, 2, 1)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 2, 2, 1)), requires_grad=True)
        with Tape() as tape:
            value = mse_map(a, b)
            a.zero_grad()
            b.zero_grad()
            tape.backward(value)
        assert np.abs(a.grad).sum() > 0
        assert np.abs(b.grad).sum() > 0

    def test_pred_identical_inputs_zero(self):
        m = np.random.default_rng(13).random((2, 3, 3, 1))
        c = lambda: Tensor(np.concatenate([m, m]))  # both views give the same maps
        assert loss_pred(c(), c()).item() == 0.0

    def test_pred_swap_invariance(self):
        rng = np.random.default_rng(14)
        a, b = (Tensor(rng.standard_normal((4, 3, 3, 1))) for _ in range(2))
        assert loss_pred(a, b).item() == pytest.approx(
            loss_pred(exchange_views(a), exchange_views(b)).item(), abs=1e-15
        )

    def test_pred_matches_direct_formula(self):
        rng = np.random.default_rng(15)
        arrays = [rng.standard_normal((2, 3, 3, 1)) for _ in range(4)]
        want = 0.5 * np.mean((arrays[0] - arrays[1]) ** 2) + 0.5 * np.mean((arrays[2] - arrays[3]) ** 2)
        # cls_pred1, cls_emb2, cls_pred2, cls_emb1
        cls_pred = Tensor(np.concatenate([arrays[0], arrays[2]]))
        cls_emb = Tensor(np.concatenate([arrays[3], arrays[1]]))
        assert loss_pred(cls_pred, cls_emb).item() == pytest.approx(want, rel=1e-12)


def supervised(cls_emb1, cls_emb2, labels):
    """The supervised term of a batch whose encoder-path maps are `cls_emb1`, then `cls_emb2`."""
    views = random_views(np.random.default_rng(0), n=len(cls_emb1), s=cls_emb1.shape[1])
    views = dataclasses.replace(views, cls_emb=Tensor(np.concatenate([cls_emb1, cls_emb2])))
    return loss_overall(views, np.array(labels), alpha=0.1)[0].l_supervised


class TestSupervised:
    def test_expand_label(self):
        # spoof rows are held to all-ones maps, live rows to all-zero maps
        ones, zeros = np.ones((1, 4, 4, 1)), np.zeros((1, 4, 4, 1))
        assert supervised(ones, ones, [1]) == 0.0
        assert supervised(zeros, zeros, [0]) == 0.0
        assert supervised(ones, ones, [0]) == 1.0
        assert supervised(zeros, zeros, [1]) == 1.0

    def test_expand_label_rejects_other_values(self):
        views = random_views(np.random.default_rng(24), n=2)
        with pytest.raises(ValueError, match="0 .live. or 1 .spoof."):
            loss_overall(views, np.array([0, 2]), alpha=0.1)
        with pytest.raises(ValueError):
            loss_overall(views, np.array([-1]), alpha=0.1)

    def test_perfect_predictions(self):
        y = label_maps([1, 0], 3)
        assert supervised(y, y.copy(), [1, 0]) == 0.0

    def test_half_offset(self):
        y = label_maps([0], 3)
        # view 1 exact, view 2 off by one everywhere
        assert supervised(y, np.ones_like(y), [0]) == pytest.approx(0.5)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((3, 2, 2, 1))
        b = rng.standard_normal((3, 2, 2, 1))
        y = label_maps([1, 0, 1], 2)
        want = 0.5 * np.mean((a - y) ** 2) + 0.5 * np.mean((b - y) ** 2)
        assert supervised(a, b, [1, 0, 1]) == pytest.approx(want, rel=1e-12)


class TestOverall:
    def test_all_unlabeled(self):
        rng = np.random.default_rng(17)
        views = random_views(rng)
        bundle, _ = loss_overall(views, np.array([], dtype=int), alpha=0.1)
        assert bundle.l_supervised == 0.0
        assert bundle.l_overall == pytest.approx(bundle.l_embedd + 0.1 * bundle.l_pred, rel=1e-12)

    def test_mixed_batch_matches_term_sum(self):
        rng = np.random.default_rng(18)
        views = random_views(rng, n=4)
        labels = np.array([1, 0])
        bundle, _ = loss_overall(views, labels, alpha=0.1)

        l_emb = loss_embedd(views.pred, views.emb).item()
        l_prd = loss_pred(views.cls_pred, views.cls_emb).item()
        y = label_maps(np.tile(labels, 2), 3)
        # samples 0 and 1 in view 1, then in view 2
        l_sup = mse_map(Tensor(views.cls_emb.data[[0, 1, 4, 5]]), Tensor(y)).item()
        assert bundle.l_embedd == pytest.approx(l_emb, rel=1e-12)
        assert bundle.l_pred == pytest.approx(l_prd, rel=1e-12)
        assert bundle.l_supervised == pytest.approx(l_sup, rel=1e-12)
        assert bundle.l_overall == pytest.approx(l_sup + l_emb + 0.1 * l_prd, rel=1e-12)

    @pytest.mark.parametrize("n_labeled", [0, 3, 5], ids=["none", "mixed", "all"])
    def test_matches_two_view_formulas(self, n_labeled):
        rng = np.random.default_rng(22)
        for _ in range(5):
            views = random_views(rng, n=5)
            labels = rng.integers(0, 2, n_labeled)

            def fused():
                bundle, total = loss_overall(views, labels, alpha=0.3)
                return (bundle.l_supervised, bundle.l_embedd, bundle.l_pred, bundle.l_overall), total

            got, got_grads = map_gradients(views, fused)
            want, want_grads = map_gradients(views, lambda: two_view_overall(views, labels, 0.3))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            for g, w in zip(got_grads, want_grads):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-15)
            assert np.abs(got_grads[0]).max() == 0.0  # the embeddings stay detached

    def test_default_alpha(self):
        # TrainConfig holds alpha's only default; loss_overall takes it from its caller
        assert TrainConfig().alpha == 0.1
        with pytest.raises(TypeError, match="alpha"):
            loss_overall(random_views(np.random.default_rng(26)), np.array([0]))

    @pytest.mark.parametrize("labels", [[0, 1, 0], [[0], [1]]], ids=["too_many", "two_dim"])
    def test_labels_that_do_not_fit_the_batch_rejected(self, labels):
        views = random_views(np.random.default_rng(19), n=2)
        with pytest.raises(ShapeError, match="labels"):
            loss_overall(views, np.array(labels), alpha=0.1)

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(20)
        views = random_views(rng, n=1)
        empty = ViewOutputs(**{k: Tensor(getattr(views, k).data[:0]) for k in views.__dataclass_fields__})
        with pytest.raises(ShapeError, match="empty"):
            loss_overall(empty, np.array([], dtype=int), alpha=0.1)

    def test_unpaired_rows_rejected(self):
        rng = np.random.default_rng(23)
        views = random_views(rng, n=2)
        odd = ViewOutputs(**{k: Tensor(getattr(views, k).data[:3]) for k in views.__dataclass_fields__})
        with pytest.raises(ShapeError, match="pair"):
            loss_overall(odd, np.array([], dtype=int), alpha=0.1)
        uneven = ViewOutputs(emb=views.emb, pred=views.pred, cls_emb=views.cls_emb,
                             cls_pred=Tensor(views.cls_pred.data[:2]))
        with pytest.raises(ShapeError, match="pair"):
            loss_overall(uneven, np.array([], dtype=int), alpha=0.1)

    def test_full_gradcheck_with_stopgrad(self):
        rng = np.random.default_rng(21)
        pred1, emb2, pred2, emb1 = (rng.standard_normal((2, 2, 2, 3)) for _ in range(4))
        params = {
            "pred": Tensor(np.concatenate([pred1, pred2]), requires_grad=True),
            "emb": Tensor(np.concatenate([emb1, emb2]), requires_grad=True),
        }

        def loss_fn():
            return loss_embedd(params["pred"], params["emb"])

        report = grad_check(loss_fn, params)
        assert report.passed, report.format_lines()
        assert report.per_param["emb"] < 1e-6
