"""Training objectives built from dense cosine similarity and pixel-wise MSE.

The embedding-level term rewards agreement between every spatial position
of one view's predictor output and every position of the other view's
(detached) embedding. The similarity between two row matrices H, F of
shape (s^2, d) is

    DS(H, F) = sum_i sum_j <H_i / |H_i|, F_j / |F_j|>

which factorizes as <sum_i H_i/|H_i|, sum_j F_j/|F_j|>, the O(s^2 * d)
form `_dense_similarity_mean` computes. Its product decomposition
sqrt(DS(H,H) * DS(F,F)) * cos(center_H, center_F) is exposed through
`lemma_terms` for verification.

Feature and score maps are channels-last, (N, H, W, C), so one view's map
reshaped to (N, H*W, C) is exactly its (s^2, d) row matrices.

The losses take the four 2N maps of `forward_views`, view-1 rows first;
`_other_view` pairs row k with row k ± N, so each symmetric term is one
mean over all 2N rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import (
    NORM_FLOOR,
    ShapeError,
    Tensor,
    add,
    gather_batch,
    l2_normalize,
    mean_all,
    mul,
    reshape,
    scale,
    stop_gradient,
    sub,
    sum_all,
    sum_axis,
)


class DegenerateCenterError(ValueError):
    """The center of normalized rows vanished, so its cosine is undefined."""


@dataclass
class LossBundle:
    """Scalar values of the loss terms for one step."""

    l_supervised: float
    l_embedd: float
    l_pred: float
    l_overall: float


@dataclass
class LemmaTerms:
    lhs: float
    rhs: float
    self_h: float
    self_f: float
    cosine: float


def _normalized_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, NORM_FLOOR)


def lemma_terms(h: np.ndarray, f: np.ndarray) -> LemmaTerms:
    """Both sides of the product decomposition, computed by independent routes.

    The left side evaluates the literal double sum over all row pairs; the
    right side combines the self-similarities with the cosine of the two
    row centers. Raises DegenerateCenterError when either center's norm
    falls below the normalization floor.
    """
    h = np.asarray(h, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if h.shape != f.shape or h.ndim != 2:
        raise ShapeError(f"lemma_terms: need matching 2-D matrices, got {h.shape} and {f.shape}")
    hn = _normalized_rows(h)
    fn = _normalized_rows(f)
    lhs = float((hn @ fn.T).sum())

    sh = hn.sum(axis=0)
    sf = fn.sum(axis=0)
    self_h = float(sh @ sh)
    self_f = float(sf @ sf)
    s2 = h.shape[0]
    center_h = sh / s2
    center_f = sf / s2
    nh = np.linalg.norm(center_h)
    nf = np.linalg.norm(center_f)
    if nh < NORM_FLOOR or nf < NORM_FLOOR:
        raise DegenerateCenterError(f"row centers too small for a cosine: |H|={nh:.3e}, |F|={nf:.3e}")
    cosine = float(center_h @ center_f / (nh * nf))
    rhs = float(np.sqrt(self_h * self_f) * cosine)
    return LemmaTerms(lhs, rhs, self_h, self_f, cosine)


# ---------------------------------------------------------------------------
# differentiable losses on 4-D feature maps


def _other_view(t: Tensor) -> Tensor:
    """A 2N map with its halves exchanged: row k now holds row k + N or k - N."""
    n = t.shape[0] // 2
    return gather_batch(t, np.r_[n : 2 * n, 0:n])


def _dense_similarity_mean(pred: Tensor, target: Tensor) -> Tensor:
    """Dense similarity averaged over rows and position pairs."""
    if pred.shape != target.shape:
        raise ShapeError(f"dense similarity: shape mismatch {pred.shape} vs {target.shape}")
    n, h, w, c = pred.shape
    s2 = h * w
    sums_p = sum_axis(l2_normalize(reshape(pred, (n, s2, c))), 1)
    sums_t = sum_axis(l2_normalize(reshape(target, (n, s2, c))), 1)
    return scale(sum_all(mul(sums_p, sums_t)), 1.0 / (n * s2 * s2))


def loss_embedd(pred: Tensor, emb: Tensor) -> Tensor:
    """-DS_mean(pred, detach(other view of emb)) over 2N rows; gradients flow only into `pred`.

    Equal to -1/2 * (DS_mean(pred1, detach(emb2)) + DS_mean(pred2, detach(emb1))).
    """
    return scale(_dense_similarity_mean(pred, _other_view(stop_gradient(emb))), -1.0)


def mse_map(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all elements of the squared difference of two score maps."""
    if a.shape != b.shape:
        raise ShapeError(f"mse_map: shape mismatch {a.shape} vs {b.shape}")
    d = sub(a, b)
    return mean_all(mul(d, d))


def loss_pred(cls_pred: Tensor, cls_emb: Tensor) -> Tensor:
    """MSE(cls_pred, other view of cls_emb) over 2N rows; nothing is detached.

    Equal to 1/2 * (MSE(cls_pred1, cls_emb2) + MSE(cls_pred2, cls_emb1)).
    """
    return mse_map(cls_pred, _other_view(cls_emb))


def loss_overall(views, labels: np.ndarray, alpha: float) -> tuple[LossBundle, Tensor]:
    """Combine the three terms: supervised + embedding + alpha * prediction.

    `views` holds four 2N maps, view-1 rows first. `labels` holds one
    label, 0 (live) or 1 (spoof), for each of the batch's first
    `len(labels)` rows; the rest are unlabeled. The supervised term is
    the MSE of those rows' `cls_emb` maps, in both views, against constant
    label maps, and is exactly 0 when `labels` is empty. Returns the bundle
    of float values and the scalar graph node.
    """
    counts = [t.shape[0] for t in (views.emb, views.pred, views.cls_emb, views.cls_pred)]
    n = counts[0] // 2
    if counts[0] == 0:
        raise ShapeError("loss_overall: empty batch")
    if counts != [2 * n] * 4:
        raise ShapeError(f"loss_overall: row counts {counts} do not pair into two views")
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(labels) > n:
        raise ShapeError(f"loss_overall: labels of shape {labels.shape} do not fit a batch of {n}")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError(f"labels must be 0 (live) or 1 (spoof), got {sorted(set(labels.tolist()))}")

    l_emb = loss_embedd(views.pred, views.emb)
    l_prd = loss_pred(views.cls_pred, views.cls_emb)

    k = len(labels)
    if k:
        labeled = gather_batch(views.cls_emb, np.r_[0:k, n : n + k])
        targets = np.tile(labels, 2).astype(labeled.dtype).reshape(-1, 1, 1, 1)
        l_sup = mse_map(labeled, Tensor(np.broadcast_to(targets, labeled.shape)))
    else:
        l_sup = Tensor(np.zeros((), dtype=views.cls_emb.dtype))

    total = add(add(l_sup, l_emb), scale(l_prd, alpha))
    bundle = LossBundle(
        l_supervised=l_sup.item(),
        l_embedd=l_emb.item(),
        l_pred=l_prd.item(),
        l_overall=total.item(),
    )
    return bundle, total
