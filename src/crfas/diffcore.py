"""Dense tensors with taped reverse-mode differentiation.

Implements exactly the operations the consistency-training graph needs:
convolution, train-mode batch normalization (optionally fused with the
ReLU after it) and its eval-mode fold into the convolution, ReLU, max
pooling, stop-gradient, and the elementwise/reduction/reshaping
primitives the loss terms are built from.
Forward results are plain numpy arrays; gradients are accumulated by
replaying an explicit tape in reverse execution order.

Images and activations have one layout, channels-last: (batch, height,
width, channels). Only weights keep their (out, in, k, k) shape.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}

# Euclidean-norm floor used when normalizing embedding rows; rows with a
# smaller norm are treated as zero contribution.
NORM_FLOOR = 1e-12

# batch norm's variance offset (train kernel and eval fold) and running-statistics rate
BN_EPS = 1e-5
BN_MOMENTUM = 0.1

# most bytes of input plus output rows in one block of a stride-1
# convolution's forward GEMMs (see `_shifted_gemm`); the fastest of 128,
# 256 and 512 KiB at the trend shape, and large enough that a 16 px f32
# training batch of the tier-1 shape runs as one block
BLOCK_BYTES = 512 * 1024


class ShapeError(ValueError):
    """Raised when tensor extents or dtypes do not match an operation's contract."""


class StateError(RuntimeError):
    """Raised when an operation is used before its state allows it."""


class Tensor:
    """A dense n-d array with an optional gradient buffer.

    Images and activations are channels-last, (batch, height, width,
    channels); parameters and loss intermediates use whatever rank they need.
    Tensors are value-like: nothing in this module mutates `data` after
    construction except the optimizer, which only touches leaf parameters.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


@dataclass
class BNState:
    """Running statistics of one batch-normalization layer."""

    running_mean: np.ndarray
    running_var: np.ndarray
    initialized: bool = False

    @staticmethod
    def create(channels: int, dtype=np.float32) -> "BNState":
        return BNState(np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype))


_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of executed differentiable operations.

    Used as a context manager around a forward pass; `backward` replays
    the recorded operations in strict reverse execution order. Outside an
    active tape, operations run forward-only.
    """

    def __init__(self):
        self._ops: list[tuple[str, Callable[[], None]]] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TAPES.pop()
        return False

    def __len__(self) -> int:
        return len(self._ops)

    def record(self, name: str, backward_fn: Callable[[], None]) -> None:
        self._ops.append((name, backward_fn))

    def backward(self, loss: Tensor) -> None:
        if loss.data.shape != ():
            raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
        if not np.isfinite(loss.data):
            raise FloatingPointError(f"non-finite loss: {loss.data}")
        loss.grad = np.ones((), dtype=loss.data.dtype)
        for _name, fn in reversed(self._ops):
            fn()


def _active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # first contribution: one copy instead of zeros plus an add
        t.grad = np.empty(t.data.shape, dtype=t.data.dtype)
        t.grad[...] = g
    else:
        t.grad += g


def _taped(out: Tensor, name: str, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Record `backward_fn` if a tape is active and any input needs gradients.

    On replay it is called with the gradient of `out`, and not at all when
    no gradient reached `out`.
    """
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True

        def replay():
            if out.grad is not None:
                backward_fn(out.grad)

        tape.record(name, replay)
    return out


def _check_same(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")


# ---------------------------------------------------------------------------
# elementwise and structural primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "add")
    out = Tensor(a.data + b.data)

    def bwd(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _taped(out, "add", (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "sub")
    out = Tensor(a.data - b.data)

    def bwd(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _taped(out, "sub", (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "mul")
    out = Tensor(a.data * b.data)

    def bwd(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _taped(out, "mul", (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = a.dtype.type(c)
    out = Tensor(a.data * c)

    def bwd(g):
        _accumulate(a, g * c)

    return _taped(out, "scale", (a,), bwd)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0))

    def bwd(g):
        _accumulate(a, g * (a.data > 0))

    return _taped(out, "relu", (a,), bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def bwd(g):
        _accumulate(a, g.reshape(a.shape))

    return _taped(out, "reshape", (a,), bwd)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    out = Tensor(a.data.sum(axis=axis))

    def bwd(g):
        _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.shape))

    return _taped(out, "sum_axis", (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())

    def bwd(g):
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _taped(out, "sum_all", (a,), bwd)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    if n == 0:
        raise ShapeError("mean_all of an empty tensor")
    out = Tensor(a.data.mean())

    def bwd(g):
        _accumulate(a, np.broadcast_to(g / n, a.shape))

    return _taped(out, "mean_all", (a,), bwd)


def gather_batch(a: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows along the batch axis; backward scatter-adds into place."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_batch indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_batch index out of range for batch {a.shape[0]}")
    out = Tensor(a.data[idx])

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        _accumulate(a, ga)

    return _taped(out, "gather_batch", (a,), bwd)


def l2_normalize(a: Tensor) -> Tensor:
    """Normalize the last axis to unit euclidean norm, flooring the norm at NORM_FLOOR.

    Rows at or below the floor count as zero contribution: their output is
    (numerically) zero and no gradient flows through them. Propagating the
    literal 1/floor slope instead would amplify gradients by 1e12 whenever
    a dead activation produces an exactly-zero row.
    """
    norms = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    denom = np.maximum(norms, a.dtype.type(NORM_FLOOR))
    y = a.data / denom
    above = norms > NORM_FLOOR
    out = Tensor(y)

    def bwd(g):
        dot = (y * g).sum(axis=-1, keepdims=True)
        _accumulate(a, np.where(above, (g - y * dot) / denom, 0))

    return _taped(out, "l2_normalize", (a,), bwd)


# detached values while `grad_check` runs: a list that the base point fills,
# then an iterator over it that each perturbed evaluation replays; else None
_FROZEN = None


def stop_gradient(a: Tensor) -> Tensor:
    """Pass values through unchanged; no gradient flows back into `a`.

    Inside `grad_check` the base point's values are kept (copied, as the
    checker perturbs parameters in place) and handed back to the perturbed
    evaluations, so finite differences hold them fixed as the tape does.
    """
    if isinstance(_FROZEN, list):
        _FROZEN.append(a.data.copy())
    elif _FROZEN is not None:
        value = next(_FROZEN, None)
        if value is None:
            raise StateError("stop_gradient call count changed between evaluations; loss function is not deterministic")
        return Tensor(value)
    return Tensor(a.data)


# ---------------------------------------------------------------------------
# convolution / pooling / normalization kernels
#
# Pipeline activations are channels-last, (N, H, W, C): every kernel below
# reduces or multiplies over a contiguous last axis, so a 1x1 convolution
# is one plain matmul and batch normalization reduces over one axis.


def _pad_hw(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two spatial axes of a channels-last batch; always contiguous."""
    if not padding:
        return np.ascontiguousarray(x)
    n, h, w, c = x.shape
    xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
    xp[:, padding : padding + h, padding : padding + w] = x
    return xp


def _shifted_gemm(xp: np.ndarray, taps: np.ndarray, ho: int, wo: int, bias: np.ndarray | None = None) -> np.ndarray:
    """Stride-1 convolution as k*k GEMMs over the flattened padded image.

    Row r of the flattened input times tap (i, j) contributes to output row
    r - (i * Wp + j); computing every row of the padded grid and cropping
    afterwards turns each tap into one GEMM on a contiguous slice.

    The rows run in near-equal blocks of at most `BLOCK_BYTES` of input and
    output row, so each block's k*k taps (and then its bias, if any) reuse
    slices that are still in cache. Every row sums the same terms in the
    same order as an unblocked pass: tap 0 assigns, the other taps add in
    order, the bias comes last.
    """
    n, hp, wp, cin = xp.shape
    k, cout = taps.shape[0], taps.shape[3]
    xf = xp.reshape(-1, cin)
    rows = xf.shape[0] - (k - 1) * (wp + 1)
    acc = np.empty((xf.shape[0], cout), dtype=xp.dtype)
    acc[rows:] = 0
    blocks = -(-rows * (cin + cout) * xp.itemsize // BLOCK_BYTES)
    bounds = [rows * b // blocks for b in range(blocks + 1)]
    tmp = np.empty((-(-rows // blocks), cout), dtype=xp.dtype)
    for lo, hi in zip(bounds, bounds[1:]):
        block = acc[lo:hi]
        np.matmul(xf[lo:hi], taps[0, 0], out=block)
        part = tmp[: hi - lo]
        for t in range(1, k * k):
            i, j = divmod(t, k)
            off = i * wp + j
            np.matmul(xf[lo + off : hi + off], taps[i, j], out=part)
            block += part
        if bias is not None:
            block += bias
    return acc.reshape(n, hp, wp, cout)[:, :ho, :wo]


def _shifted_gemm_grads(xp: np.ndarray, taps: np.ndarray, g: np.ndarray, need_dx: bool):
    """Tap and padded-input gradients of `_shifted_gemm` for output gradient g."""
    n, hp, wp, cin = xp.shape
    k, cout = taps.shape[0], taps.shape[3]
    ho, wo = g.shape[1:3]
    if (ho, wo) == (hp, wp):
        gf = g.reshape(-1, cout)
    else:
        gfull = np.zeros((n, hp, wp, cout), dtype=g.dtype)
        gfull[:, :ho, :wo] = g
        gf = gfull.reshape(-1, cout)
    xf = xp.reshape(-1, cin)
    rows = xf.shape[0] - (k - 1) * (wp + 1)
    gr = gf[:rows]
    dtaps = np.empty(taps.shape, dtype=taps.dtype)
    for t in range(k * k):
        i, j = divmod(t, k)
        off = i * wp + j
        np.matmul(xf[off : off + rows].T, gr, out=dtaps[i, j])
    if not need_dx:
        return dtaps, None
    dxf = np.empty_like(xf)
    np.matmul(gr, taps[0, 0].T, out=dxf[:rows])
    dxf[rows:] = 0
    if k > 1:
        tmp = np.empty((rows, cin), dtype=xp.dtype)
        for t in range(1, k * k):
            i, j = divmod(t, k)
            off = i * wp + j
            np.matmul(gr, taps[i, j].T, out=tmp)
            dxf[off : off + rows] += tmp
    return dtaps, dxf.reshape(xp.shape)


def _im2col(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Contiguous (N*Ho*Wo, k*k*C) patch matrix, columns ordered (i, j, c)."""
    n, c = xp.shape[0], xp.shape[3]
    cols = np.empty((n, ho, wo, k, k, c), dtype=xp.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, :, i, j] = xp[:, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(-1, k * k * c)


def _im2col_grads(cols: np.ndarray, taps: np.ndarray, xp_shape, stride: int, g: np.ndarray, need_dx: bool):
    """Tap and padded-input gradients of the im2col GEMM for output gradient g."""
    k, cin, cout = taps.shape[0], taps.shape[2], taps.shape[3]
    n, ho, wo = g.shape[:3]
    g2 = g.reshape(-1, cout)
    dtaps = (cols.T @ g2).reshape(taps.shape)
    if not need_dx:
        return dtaps, None
    dcols = (g2 @ taps.reshape(-1, cout).T).reshape(n, ho, wo, k, k, cin)
    dxp = np.zeros(xp_shape, dtype=g.dtype)
    for i in range(k):
        for j in range(k):
            dxp[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += dcols[:, :, :, i, j]
    return dtaps, dxp


def _channel_sums(a2: np.ndarray) -> np.ndarray:
    """Column sums of a (rows, C) matrix as one GEMV."""
    return np.ones(a2.shape[0], dtype=a2.dtype) @ a2


def _slab_sums(a3: np.ndarray) -> np.ndarray:
    """(slabs, C) column sums of a (slabs, rows, C) array, one GEMV per slab."""
    return np.stack([_channel_sums(slab) for slab in a3])


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation with zero padding on a channels-last batch.

    x: (N, H, W, Cin); weight: (Cout, Cin, k, k); bias: (Cout,) or None.
    Returns (N, Ho, Wo, Cout). Stride-1 convolutions run as k*k shifted
    GEMMs over the flattened padded image (a 1x1 convolution is a single
    matmul); strided ones, whose padded grid would be mostly discarded,
    run as one GEMM on a contiguous im2col matrix.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be 4-D, got {x.shape}")
    if weight.data.ndim != 4:
        raise ShapeError(f"conv2d weight must be 4-D, got {weight.shape}")
    n, h, w, c = x.shape
    cout, cin, kh, kw = weight.shape
    if kh != kw:
        raise ShapeError(f"conv2d supports square kernels only, got {kh}x{kw}")
    if cin != c:
        raise ShapeError(f"conv2d: input has {c} channels but kernel expects {cin}")
    if x.dtype != weight.dtype or (bias is not None and bias.dtype != x.dtype):
        raise ShapeError("conv2d: mixed dtypes")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d: bad stride/padding ({stride}, {padding})")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d: output extents not positive for input {x.shape}, kernel {kh}, pad {padding}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} does not match {cout} output channels")

    xp = _pad_hw(x.data, padding)
    # (k, k, Cin, Cout): each tap is a contiguous (Cin, Cout) matrix
    taps = np.ascontiguousarray(weight.data.transpose(2, 3, 1, 0))
    if stride == 1:
        cols = None
        out_data = np.ascontiguousarray(_shifted_gemm(xp, taps, ho, wo, None if bias is None else bias.data))
    else:
        cols = _im2col(xp, kh, stride, ho, wo)
        out_data = (cols @ taps.reshape(-1, cout)).reshape(n, ho, wo, cout)
        if bias is not None:
            out_data += bias.data
    out = Tensor(out_data)

    def bwd(g):
        if bias is not None and bias.requires_grad:
            _accumulate(bias, _channel_sums(g.reshape(-1, cout)))
        if not (weight.requires_grad or x.requires_grad):
            return
        if cols is None:
            dtaps, dxp = _shifted_gemm_grads(xp, taps, g, x.requires_grad)
        else:
            dtaps, dxp = _im2col_grads(cols, taps, xp.shape, stride, g, x.requires_grad)
        _accumulate(weight, dtaps.transpose(3, 2, 0, 1))
        if dxp is not None:
            _accumulate(x, dxp[:, padding : padding + h, padding : padding + w])

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _taped(out, "conv2d", inputs, bwd)


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 maximum with stride 2 over a channels-last batch; ties route the
    gradient to the first index in scan order (row by row within the window)."""
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d input must be 4-D, got {x.shape}")
    k = 2
    n, h, w, c = x.shape
    if h % k or w % k:
        raise ShapeError(f"maxpool2d: spatial extents {h}x{w} not divisible by {k}")
    ho, wo = h // k, w // k
    # one contiguous row per window position, in scan order, so that the
    # comparisons below run over long contiguous rows rather than C-wide runs
    stack = np.ascontiguousarray(x.data.reshape(n, ho, k, wo, k, c).transpose(2, 4, 0, 1, 3, 5)).reshape(k * k, -1)
    best = stack.max(axis=0)
    out = Tensor(best.reshape(n, ho, wo, c))

    def bwd(g):
        grad = g.reshape(-1)
        gstack = np.empty_like(stack)
        unclaimed = np.ones(best.shape, dtype=bool)
        for t in range(k * k):
            first = (stack[t] == best) & unclaimed
            np.multiply(grad, first, out=gstack[t])
            unclaimed &= ~first
        _accumulate(x, gstack.reshape(k, k, n, ho, wo, c).transpose(2, 3, 0, 4, 1, 5).reshape(n, h, w, c))

    return _taped(out, "maxpool2d", (x,), bwd)


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, state: BNState, slabs: int = 1, relu: bool = False) -> Tensor:
    """Train-mode per-channel batch normalization of a channels-last (N, H, W, C) batch.

    The batch splits into `slabs` equal runs of rows along N, each normalized
    over its own (rows, H, W) statistics, BN_EPS added to the variance, and
    folded into the running statistics one slab after the other (new =
    (1 - BN_MOMENTUM) * old + BN_MOMENTUM * slab); a 2N Siamese batch with
    slabs=2 therefore computes exactly what two single-view calls would.
    With relu=True the output is clamped at zero in place, one taped op
    with the same values and gradients as `relu(batchnorm2d(...))`.
    Eval mode has no kernel of its own: `fold_batchnorm` moves the running
    statistics, with the same BN_EPS, into the preceding convolution.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm2d input must be 4-D, got {x.shape}")
    n, h, w, c = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm2d: affine shapes {gamma.shape}/{beta.shape} do not match {c} channels")
    if gamma.dtype != x.dtype or beta.dtype != x.dtype:
        raise ShapeError("batchnorm2d: mixed dtypes")
    if slabs < 1 or n % slabs:
        raise ShapeError(f"batchnorm2d: batch of {n} does not split into {slabs} equal slabs")
    if n < 1:
        raise ShapeError("batchnorm2d: empty batch")

    m = n // slabs * h * w
    xs = x.data.reshape(slabs, m, c)
    # reductions run per slab; elementwise work runs on all slabs at once
    mean = _slab_sums(xs) / m
    xhat = np.subtract(xs, mean[:, None])
    var = _slab_sums(xhat * xhat) / m
    for s in range(slabs):
        state.running_mean = ((1 - BN_MOMENTUM) * state.running_mean + BN_MOMENTUM * mean[s]).astype(state.running_mean.dtype)
        state.running_var = ((1 - BN_MOMENTUM) * state.running_var + BN_MOMENTUM * var[s]).astype(state.running_var.dtype)
    state.initialized = True
    inv_std = 1.0 / np.sqrt(var + x.dtype.type(BN_EPS))
    xhat *= inv_std[:, None]
    out_data = xhat * gamma.data
    out_data += beta.data
    if relu:
        np.maximum(out_data, 0, out=out_data)
    out = Tensor(out_data.reshape(x.shape))

    def bwd(g):
        g = g.reshape(slabs, m, c)
        if relu:
            g = g * (out_data > 0)
        gx = g * xhat
        sum_g = _slab_sums(g)
        sum_gx = _slab_sums(gx)
        _accumulate(beta, sum_g.sum(axis=0))
        _accumulate(gamma, sum_gx.sum(axis=0))
        if x.requires_grad:
            dx = g - sum_g[:, None] / m
            dx -= np.multiply(xhat, sum_gx[:, None] / m, out=gx)
            dx *= (gamma.data * inv_std)[:, None]
            _accumulate(x, dx.reshape(x.shape))

    return _taped(out, "batchnorm2d", (x, gamma, beta), bwd)


def fold_batchnorm(weight: Tensor, gamma: Tensor, beta: Tensor, state: BNState) -> tuple[Tensor, Tensor]:
    """Eval-mode batch normalization folded into the bias-free convolution before it.

    With s = gamma / sqrt(running_var + BN_EPS), the returned weight
    W' = W * s[:, None, None, None] and bias b' = beta - running_mean * s
    make conv2d(x, W', b') equal gamma * (conv2d(x, W) - running_mean) /
    sqrt(running_var + BN_EPS) + beta, so the convolution's bias add does all
    of the normalization. Eval mode is forward-only: the folded tensors are
    fresh leaves through which no gradient reaches W, gamma or beta, so
    calling this under an active tape raises StateError, as does calling it
    before the running statistics were set by a training step or a
    checkpoint.
    """
    if _active_tape() is not None:
        raise StateError("batch-norm eval mode is forward-only and cannot run under an active tape")
    if not state.initialized:
        raise StateError("fold_batchnorm: eval mode before any running-statistics update; train first or load a checkpoint")
    s = gamma.data / np.sqrt(state.running_var + weight.dtype.type(BN_EPS))
    folded_weight = weight.data * s[:, None, None, None]
    folded_bias = beta.data - state.running_mean * s
    return Tensor(folded_weight), Tensor(folded_bias)


# ---------------------------------------------------------------------------
# gradient checking


# Relative-error denominator floor; below this scale the comparison is
# effectively absolute, which keeps finite-difference roundoff (~1e-11 at
# h=1e-5, f64) far away from the pass threshold.
_REL_FLOOR = 1e-4
# the finite-difference step and the pass bound on the max relative error
GRADCHECK_H = 1e-5
GRADCHECK_TOL = 1e-4


@dataclass
class GradCheckReport:
    """Result of comparing tape gradients against central finite differences."""

    n_checked: int
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def max_rel_err(self) -> float:
        return max(self.per_param.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < GRADCHECK_TOL

    def format_lines(self) -> list[str]:
        lines = [f"{name}: max rel err {err:.3e}" for name, err in self.per_param.items()]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"{verdict}: {self.n_checked} coordinates, h={GRADCHECK_H:g}, "
            f"max rel err {self.max_rel_err:.3e} (tol {GRADCHECK_TOL:g})"
        )
        return lines


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    max_coords_per_param: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare reverse-mode gradients of a scalar loss against central differences.

    Args:
        loss_fn: deterministic closure over `params` returning a scalar Tensor.
        params: named f64 parameter tensors to perturb.
        max_coords_per_param: if set, check a random subset of coordinates
            per parameter instead of all of them.
        seed: seed for coordinate sampling.

    Each coordinate is stepped by +-GRADCHECK_H, and the report passes when
    every relative error |a - n| / max(|a|, |n|, 1e-4) is below
    GRADCHECK_TOL. Values passed through `stop_gradient` stay at the base
    point, so the differences estimate the same partial derivative the tape
    computes; a perturbed evaluation that calls `stop_gradient` more often
    than the base point did raises StateError.
    """
    global _FROZEN
    for name, p in params.items():
        if p.dtype != np.float64:
            raise ValueError(f"grad_check requires f64 parameters, {name} is {p.dtype}")

    rng = np.random.default_rng(seed)
    n_checked = 0
    per_param: dict[str, float] = {}
    frozen: list[np.ndarray] = []
    _FROZEN = frozen
    try:
        with Tape() as tape:
            loss = loss_fn()
            for p in params.values():
                p.zero_grad()
            tape.backward(loss)

        for name, p in params.items():
            flat = p.data.reshape(-1)
            grad_flat = p.grad.reshape(-1)
            if max_coords_per_param is not None and flat.size > max_coords_per_param:
                coords = np.sort(rng.choice(flat.size, size=max_coords_per_param, replace=False))
            else:
                coords = np.arange(flat.size)
            local_max = 0.0
            for i in coords:
                orig = flat[i]
                values = []
                for step in (GRADCHECK_H, -GRADCHECK_H):
                    flat[i] = orig + step
                    _FROZEN = iter(frozen)
                    values.append(float(loss_fn().data))
                    if not np.isfinite(values[-1]):
                        raise FloatingPointError("grad_check: non-finite loss during perturbation")
                flat[i] = orig
                numeric = (values[0] - values[1]) / (2 * GRADCHECK_H)
                a = float(grad_flat[i])
                local_max = max(local_max, abs(a - numeric) / max(abs(a), abs(numeric), _REL_FLOOR))
                n_checked += 1
            per_param[name] = local_max
    finally:
        _FROZEN = None
    return GradCheckReport(n_checked, per_param)
