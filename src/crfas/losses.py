"""Training objectives built from dense cosine similarity and pixel-wise MSE.

The embedding-level term rewards agreement between every spatial position
of one view's predictor output and every position of the other view's
(detached) embedding. The similarity between two row matrices H, F of
shape (s^2, d) is

    DS(H, F) = sum_i sum_j <H_i / |H_i|, F_j / |F_j|>

which factorizes as <sum_i H_i/|H_i|, sum_j F_j/|F_j|>, the O(s^2 * d)
form used everywhere outside of tests. Its product decomposition
sqrt(DS(H,H) * DS(F,F)) * cos(center_H, center_F) is exposed through
`lemma_terms` for verification.

Feature and score maps are channels-last, (N, H, W, C), so one view's map
reshaped to (N, H*W, C) is exactly its (s^2, d) row matrices.
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
    alpha: float


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


def dense_similarity(h: np.ndarray, f: np.ndarray, reduction: str = "sum") -> float:
    """Dense similarity between two (s^2, d) row matrices, fast form.

    reduction="sum" returns the full double sum over position pairs;
    "mean" divides by s^4.
    """
    h = np.asarray(h, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if h.ndim != 2 or f.ndim != 2:
        raise ShapeError(f"dense_similarity expects 2-D matrices, got {h.shape} and {f.shape}")
    if h.shape != f.shape:
        raise ShapeError(f"dense_similarity: shape mismatch {h.shape} vs {f.shape}")
    if reduction not in ("sum", "mean"):
        raise ValueError(f"unknown reduction {reduction!r}")
    sh = _normalized_rows(h).sum(axis=0)
    sf = _normalized_rows(f).sum(axis=0)
    value = float(sh @ sf)
    if reduction == "mean":
        value /= float(h.shape[0]) ** 2
    return value


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


def _spatial_rows(x: Tensor) -> Tensor:
    # (N, H, W, C) -> (N, H*W, C), row-major over spatial positions
    n, h, w, c = x.shape
    return reshape(x, (n, h * w, c))


def _dense_similarity_mean(pred: Tensor, target: Tensor) -> Tensor:
    """Mean-reduced dense similarity with the target branch detached."""
    if pred.shape != target.shape:
        raise ShapeError(f"dense similarity: shape mismatch {pred.shape} vs {target.shape}")
    n, h, w, _c = pred.shape
    s2 = h * w
    rows_p = l2_normalize(_spatial_rows(pred))
    rows_t = l2_normalize(_spatial_rows(stop_gradient(target)))
    sums_p = sum_axis(rows_p, 1)
    sums_t = sum_axis(rows_t, 1)
    return scale(sum_all(mul(sums_p, sums_t)), 1.0 / (n * s2 * s2))


def loss_embedd(pred1: Tensor, emb2: Tensor, pred2: Tensor, emb1: Tensor) -> Tensor:
    """Symmetrized embedding-consistency loss.

    -1/2 * (DS_mean(pred1, detach(emb2)) + DS_mean(pred2, detach(emb1))).
    Gradients flow only through the predictor-side arguments.
    """
    return scale(add(_dense_similarity_mean(pred1, emb2), _dense_similarity_mean(pred2, emb1)), -0.5)


def mse_map(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all elements of the squared difference of two score maps."""
    if a.shape != b.shape:
        raise ShapeError(f"mse_map: shape mismatch {a.shape} vs {b.shape}")
    d = sub(a, b)
    return mean_all(mul(d, d))


def loss_pred(cls_pred1: Tensor, cls_emb2: Tensor, cls_pred2: Tensor, cls_emb1: Tensor) -> Tensor:
    """Symmetrized prediction-consistency loss; no branch is detached here."""
    return scale(add(mse_map(cls_pred1, cls_emb2), mse_map(cls_pred2, cls_emb1)), 0.5)


def expand_label(y: int, side: int, dtype=np.float32) -> np.ndarray:
    """Expand a binary label to a constant (1, side, side, 1) map.

    Spoof samples (y=1) become all ones, live samples (y=0) all zeros.
    """
    if y not in (0, 1):
        raise ValueError(f"label must be 0 (live) or 1 (spoof), got {y!r}")
    return np.full((1, side, side, 1), y, dtype=dtype)


def labels_to_maps(labels: np.ndarray, side: int, dtype=np.float32) -> np.ndarray:
    return np.concatenate([expand_label(int(y), side, dtype) for y in labels], axis=0)


def loss_supervised(cls_emb1: Tensor, cls_emb2: Tensor, targets: Tensor) -> Tensor:
    """Pixel-wise supervision of both views' encoder-path score maps.

    Callers must pass labeled samples only; an empty batch is rejected.
    """
    if cls_emb1.shape[0] == 0:
        raise ShapeError("loss_supervised: no labeled samples in batch; callers must filter")
    return scale(add(mse_map(cls_emb1, targets), mse_map(cls_emb2, targets)), 0.5)


def loss_overall(
    views,
    labels: np.ndarray | None,
    labeled_mask: np.ndarray,
    alpha: float = 0.1,
) -> tuple[LossBundle, Tensor]:
    """Combine the three terms: supervised + embedding + alpha * prediction.

    `labeled_mask` marks the batch rows that carry labels; the supervised
    term is dropped (contributes exactly 0) when no row is labeled.
    Returns the bundle of float values and the scalar graph node.
    """
    n = views.emb1.shape[0]
    if n == 0:
        raise ShapeError("loss_overall: empty batch")
    mask = np.asarray(labeled_mask, dtype=bool)
    if mask.shape != (n,):
        raise ShapeError(f"labeled_mask shape {mask.shape} does not match batch {n}")

    l_emb = loss_embedd(views.pred1, views.emb2, views.pred2, views.emb1)
    l_prd = loss_pred(views.cls_pred1, views.cls_emb2, views.cls_pred2, views.cls_emb1)

    idx = np.flatnonzero(mask)
    if idx.size:
        if labels is None or len(labels) != idx.size:
            raise ValueError("loss_overall: labeled rows present but labels missing or miscounted")
        side = views.cls_emb1.shape[1]
        targets = Tensor(labels_to_maps(np.asarray(labels), side, views.cls_emb1.dtype))
        l_sup = loss_supervised(gather_batch(views.cls_emb1, idx), gather_batch(views.cls_emb2, idx), targets)
    else:
        l_sup = Tensor(np.zeros((), dtype=views.cls_emb1.dtype))

    total = add(add(l_sup, l_emb), scale(l_prd, alpha))
    bundle = LossBundle(
        l_supervised=l_sup.item(),
        l_embedd=l_emb.item(),
        l_pred=l_prd.item(),
        l_overall=total.item(),
        alpha=alpha,
    )
    return bundle, total
