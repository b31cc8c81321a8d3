"""Kernel-level tests: forward oracles, gradient checks, tape semantics."""
import numpy as np
import pytest

from crfas import diffcore
from crfas.diffcore import (
    BN_EPS,
    BNState,
    ShapeError,
    StateError,
    Tape,
    Tensor,
    add,
    batchnorm2d,
    conv2d,
    fold_batchnorm,
    gather_batch,
    grad_check,
    l2_normalize,
    maxpool2d,
    mean_all,
    mul,
    relu,
    reshape,
    scale,
    stop_gradient,
    sub,
    sum_all,
    sum_axis,
)


def nhwc(a):
    """(N, C, H, W) array -> the kernels' channels-last layout."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def nchw(a):
    return a.transpose(0, 3, 1, 2)


def conv2d_oracle(x, w, b, stride, padding):
    """Direct six-nested-loop cross-correlation."""
    n, c, h, wdt = x.shape
    cout, cin, k, _ = w.shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wdt + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for ky in range(k):
                            for kx in range(k):
                                acc += xp[ni, ci, oy * stride + ky, ox * stride + kx] * w[co, ci, ky, kx]
                    out[ni, co, oy, ox] = acc + (b[co] if b is not None else 0.0)
    return out


def whole_image_taps(x, w, b, padding):
    """Unblocked stride-1 forward on a channels-last batch: each tap is one
    GEMM over the whole flattened padded image; tap 0 assigns, the other
    taps add in order, and the bias is added last."""
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    n, hp, wp, cin = xp.shape
    cout, _, k, _ = w.shape
    xf = xp.reshape(-1, cin)
    rows = xf.shape[0] - (k - 1) * (wp + 1)
    acc = np.zeros((xf.shape[0], cout), dtype=x.dtype)
    for t in range(k * k):
        i, j = divmod(t, k)
        off = i * wp + j
        term = xf[off : off + rows] @ np.ascontiguousarray(w[:, :, i, j].T)
        if t == 0:
            acc[:rows] = term
        else:
            acc[:rows] += term
    if b is not None:
        acc += b
    return acc.reshape(n, hp, wp, cout)[:, : hp - k + 1, : wp - k + 1]


def maxpool_oracle(x, k):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // k, w // k), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for oy in range(h // k):
                for ox in range(w // k):
                    out[ni, ci, oy, ox] = x[ni, ci, oy * k : (oy + 1) * k, ox * k : (ox + 1) * k].max()
    return out


def backward_of(loss_tensors, loss_fn):
    with Tape() as tape:
        loss = loss_fn()
        for t in loss_tensors:
            t.zero_grad()
        tape.backward(loss)
    return loss


class TestConv2d:
    def test_identity_1x1(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((2, 3, 4, 4)))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        out = conv2d(Tensor(nhwc(x.data)), Tensor(w), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(nchw(out.data), x.data)

    def test_zero_weight_gives_bias(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.random((1, 2, 5, 5)))
        w = Tensor(np.zeros((4, 2, 3, 3)))
        b = Tensor(np.array([1.0, -2.0, 0.5, 3.0]))
        out = conv2d(Tensor(nhwc(x.data)), w, b, padding=1)
        for c in range(4):
            np.testing.assert_array_equal(nchw(out.data)[:, c], np.full((1, 5, 5), b.data[c]))

    @pytest.mark.parametrize("stride,padding", [(1, 1), (1, 0), (2, 1)])
    def test_matches_nested_loop_oracle(self, stride, padding):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        got = nchw(conv2d(Tensor(nhwc(x)), Tensor(w), Tensor(b), stride, padding).data)
        want = conv2d_oracle(x, w, b, stride, padding)
        np.testing.assert_allclose(got, want, rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize(
        "n,side,cin,cout,k",
        [
            (32, 24, 16, 16, 3),  # the trend model's b1b
            (31, 24, 16, 16, 3),  # b1b with one row fewer: unequal blocks
            (32, 24, 3, 16, 3),  # the trend model's b1a
            (32, 24, 16, 16, 1),  # 1x1 over many blocks
            (2, 5, 3, 4, 3),  # one block
            (2, 5, 3, 4, 1),  # 1x1 in one block
        ],
    )
    def test_forward_bitwise_equals_whole_image_taps(self, dtype, with_bias, n, side, cin, cout, k):
        padding = k // 2
        rng = np.random.default_rng(5)
        x = rng.standard_normal((n, side, side, cin)).astype(dtype)
        w = rng.standard_normal((cout, cin, k, k)).astype(dtype)
        b = rng.standard_normal(cout).astype(dtype) if with_bias else None
        got = conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b), 1, padding).data
        assert got.flags.c_contiguous
        assert np.array_equal(got, whole_image_taps(x, w, b, padding))

    def test_trend_shape_spans_several_blocks(self):
        # 24 px, 16 -> 16 channels, N = 32 in f32: the bitwise test above is
        # vacuous unless this runs in more than one block
        side, channels = 26, 16 + 16
        rows = 32 * side * side - 2 * (side + 1)
        assert rows * channels * np.dtype(np.float32).itemsize > 2 * diffcore.BLOCK_BYTES

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 6, 6))
        y = rng.standard_normal((1, 2, 6, 6))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        combo = conv2d(Tensor(nhwc(2.5 * x - 1.5 * y)), w, None, 1, 1).data
        parts = 2.5 * conv2d(Tensor(nhwc(x)), w, None, 1, 1).data - 1.5 * conv2d(Tensor(nhwc(y)), w, None, 1, 1).data
        np.testing.assert_allclose(combo, parts, rtol=1e-6, atol=1e-9)

    def test_channel_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 4, 4, 2)))
        w = Tensor(np.zeros((3, 5, 3, 3)))
        with pytest.raises(ShapeError, match="channels"):
            conv2d(x, w)

    def test_output_extent_must_be_positive(self):
        with pytest.raises(ShapeError, match="positive"):
            conv2d(Tensor(np.zeros((1, 2, 2, 1))), Tensor(np.zeros((1, 1, 3, 3))))

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
    def test_gradcheck(self, stride, padding):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 4, 4, 2)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)

        def loss_fn():
            y = conv2d(x, w, b, stride, padding)
            return mean_all(mul(y, y))

        report = grad_check(loss_fn, {"x": x, "w": w, "b": b})
        assert report.passed, report.format_lines()


class TestBatchNorm:
    def test_constant_channel_gives_beta(self):
        x = Tensor(np.full((3, 2, 4, 4), 7.0, dtype=np.float32))
        gamma = Tensor(np.ones(2, dtype=np.float32))
        beta = Tensor(np.array([0.5, -1.5], dtype=np.float32))
        out = batchnorm2d(Tensor(nhwc(x.data)), gamma, beta, BNState.create(2))
        for c in range(2):
            np.testing.assert_allclose(nchw(out.data)[:, c], beta.data[c], atol=1e-5)

    def test_standardized_input_passes_through(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 3, 6, 6))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        out = batchnorm2d(Tensor(nhwc(x)), Tensor(np.ones(3)), Tensor(np.zeros(3)), BNState.create(3, np.float64))
        np.testing.assert_allclose(nchw(out.data), x, atol=1e-4)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3, 5, 5))
        gamma = rng.standard_normal(3)
        beta = rng.standard_normal(3)
        eps = BN_EPS
        out = batchnorm2d(Tensor(nhwc(x)), Tensor(gamma), Tensor(beta), BNState.create(3, np.float64))
        # two-pass: mean first, then variance of residuals
        want = np.empty_like(x)
        for c in range(3):
            vals = x[:, c]
            mu = vals.sum() / vals.size
            var = ((vals - mu) ** 2).sum() / vals.size
            want[:, c] = gamma[c] * (vals - mu) / np.sqrt(var + eps) + beta[c]
        np.testing.assert_allclose(nchw(out.data), want, rtol=1e-6)

    def test_running_stats_update_rule(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 2, 3, 3))
        state = BNState.create(2, np.float64)
        batchnorm2d(Tensor(nhwc(x)), Tensor(np.ones(2)), Tensor(np.zeros(2)), state)
        np.testing.assert_allclose(state.running_mean, 0.1 * x.mean(axis=(0, 2, 3)), rtol=1e-12)
        np.testing.assert_allclose(state.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2, 3)), rtol=1e-12)

    @pytest.mark.parametrize("affine", ["gamma", "beta"])
    def test_mixed_dtypes_rejected(self, affine):
        # an f64 affine parameter would promote an f32 batch's output to f64
        x = Tensor(np.zeros((2, 3, 3, 2), dtype=np.float32))
        params = {"gamma": Tensor(np.ones(2, dtype=np.float32)), "beta": Tensor(np.zeros(2, dtype=np.float32))}
        params[affine] = Tensor(np.ones(2))
        with pytest.raises(ShapeError, match="mixed dtypes"):
            batchnorm2d(x, params["gamma"], params["beta"], BNState.create(2))

    # eval mode is the fold of the running statistics into the preceding
    # convolution; an identity 1x1 convolution exposes the bare normalization

    def test_eval_before_train_rejected(self):
        weight = Tensor(np.ones((2, 2, 1, 1), dtype=np.float32))
        with pytest.raises(StateError, match="eval mode before"):
            fold_batchnorm(weight, Tensor(np.ones(2, dtype=np.float32)), Tensor(np.zeros(2, dtype=np.float32)), BNState.create(2))

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(8)
        state = BNState.create(2, np.float64)
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        batchnorm2d(Tensor(nhwc(rng.standard_normal((4, 2, 3, 3)))), gamma, beta, state)
        x = rng.standard_normal((2, 2, 3, 3))
        identity = Tensor(np.eye(2).reshape(2, 2, 1, 1))
        out = conv2d(Tensor(nhwc(x)), *fold_batchnorm(identity, gamma, beta, state))
        want = (x - state.running_mean.reshape(1, 2, 1, 1)) / np.sqrt(state.running_var.reshape(1, 2, 1, 1) + 1e-5)
        np.testing.assert_allclose(nchw(out.data), want, rtol=1e-6)

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0)])
    def test_fold_matches_conv_then_running_stats_formula(self, stride, padding, monkeypatch):
        rng = np.random.default_rng(23)
        x = Tensor(rng.standard_normal((3, 7, 7, 4)))
        weight = Tensor(rng.standard_normal((5, 4, 3, 3)))
        gamma, beta = Tensor(rng.standard_normal(5)), Tensor(rng.standard_normal(5))
        state = BNState(rng.standard_normal(5), rng.random(5) + 0.1, initialized=True)
        # a value other than the default shows the fold reads BN_EPS
        monkeypatch.setattr(diffcore, "BN_EPS", 1e-3)
        eps = diffcore.BN_EPS
        out = conv2d(x, *fold_batchnorm(weight, gamma, beta, state), stride, padding)
        y = conv2d(x, weight, None, stride, padding).data
        want = gamma.data * (y - state.running_mean) / np.sqrt(state.running_var + eps) + beta.data
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)

    def test_fold_under_tape_rejected(self):
        ones, zeros = Tensor(np.ones(2)), Tensor(np.zeros(2))
        state = BNState(np.zeros(2), np.ones(2), initialized=True)
        with Tape(), pytest.raises(StateError, match="forward-only"):
            fold_batchnorm(Tensor(np.ones((2, 2, 1, 1))), ones, zeros, state)

    def test_two_slab_call_equals_two_single_view_calls(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((6, 4, 4, 3)) * 2.0 + 0.5
        weights = rng.standard_normal(x.shape)
        gamma0, beta0 = rng.standard_normal(3) + 1.0, rng.standard_normal(3)

        def run(slabs):
            xt = Tensor(x.copy(), requires_grad=True)
            gamma, beta = Tensor(gamma0.copy(), requires_grad=True), Tensor(beta0.copy(), requires_grad=True)
            state = BNState.create(3, np.float64)
            with Tape() as tape:
                if slabs == 2:
                    out = batchnorm2d(xt, gamma, beta, state, slabs=2)
                    loss = sum_all(mul(out, Tensor(weights)))
                else:
                    halves = [gather_batch(xt, np.arange(3)), gather_batch(xt, np.arange(3, 6))]
                    outs = [batchnorm2d(h, gamma, beta, state) for h in halves]
                    loss = add(
                        sum_all(mul(outs[0], Tensor(weights[:3]))),
                        sum_all(mul(outs[1], Tensor(weights[3:]))),
                    )
                    out = Tensor(np.concatenate([o.data for o in outs]))
                for t in (xt, gamma, beta):
                    t.zero_grad()
                tape.backward(loss)
            return out.data, state, xt.grad, gamma.grad, beta.grad

        joint, single = run(2), run(1)
        np.testing.assert_array_equal(joint[0], single[0])
        np.testing.assert_array_equal(joint[1].running_mean, single[1].running_mean)
        np.testing.assert_array_equal(joint[1].running_var, single[1].running_var)
        for got, want in zip(joint[2:], single[2:]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slabs", [1, 2])
    def test_fused_relu_is_bitwise_relu_of_batchnorm(self, dtype, slabs):
        rng = np.random.default_rng(24)
        x0 = (rng.standard_normal((4, 3, 3, 3)) * 2.0 + 0.5).astype(dtype)
        weights = Tensor(rng.standard_normal(x0.shape).astype(dtype))
        gamma0 = (rng.standard_normal(3) + 1.0).astype(dtype)
        beta0 = rng.standard_normal(3).astype(dtype)
        # |xhat| < sqrt(rows per slab) <= 6, so channel 0's pre-activation is all below zero
        gamma0[0], beta0[0] = 0.5, -10.0

        def run(fused):
            x = Tensor(x0.copy(), requires_grad=True)
            gamma, beta = Tensor(gamma0.copy(), requires_grad=True), Tensor(beta0.copy(), requires_grad=True)
            state = BNState.create(3, dtype)
            with Tape() as tape:
                if fused:
                    out = batchnorm2d(x, gamma, beta, state, slabs=slabs, relu=True)
                else:
                    out = relu(batchnorm2d(x, gamma, beta, state, slabs=slabs))
                tape.backward(sum_all(mul(out, weights)))
            return out.data, state.running_mean, state.running_var, x.grad, gamma.grad, beta.grad

        fused, unfused = run(True), run(False)
        assert not fused[0][..., 0].any() and fused[0][..., 1:].any()
        for got, want in zip(fused, unfused):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_gradcheck_fused_relu(self):
        rng = np.random.default_rng(25)
        x = Tensor(rng.standard_normal((4, 4, 4, 2)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(2) + 1.0, requires_grad=True)
        beta = Tensor(rng.standard_normal(2), requires_grad=True)
        state = BNState.create(2, np.float64)
        target = rng.standard_normal((4, 4, 4, 2))

        def loss_fn():
            out = batchnorm2d(x, gamma, beta, state, slabs=2, relu=True)
            d = sub(out, Tensor(target))
            return mean_all(mul(d, d))

        report = grad_check(loss_fn, {"x": x, "gamma": gamma, "beta": beta})
        assert report.passed, report.format_lines()

    def test_gradcheck_train_mode(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((3, 4, 4, 2)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(2) + 1.0, requires_grad=True)
        beta = Tensor(rng.standard_normal(2), requires_grad=True)
        state = BNState.create(2, np.float64)
        target = rng.standard_normal((3, 4, 4, 2))

        def loss_fn():
            out = batchnorm2d(x, gamma, beta, state)
            d = sub(out, Tensor(target))
            return mean_all(mul(d, d))

        report = grad_check(loss_fn, {"x": x, "gamma": gamma, "beta": beta})
        assert report.passed, report.format_lines()


class TestReluMaxpool:
    def test_relu_all_negative(self):
        x = Tensor(-np.abs(np.random.default_rng(10).standard_normal((1, 2, 3, 3))) - 0.1, requires_grad=True)
        loss = backward_of([x], lambda: sum_all(relu(x)))
        assert loss.item() == 0.0
        np.testing.assert_array_equal(x.grad, np.zeros_like(x.data))

    def test_maxpool_constant_routes_to_first_index(self):
        x = Tensor(np.ones((1, 4, 4, 1)), requires_grad=True)
        backward_of([x], lambda: sum_all(maxpool2d(x)))
        want = np.zeros((4, 4))
        want[0::2, 0::2] = 1.0  # first element of each 2x2 window in scan order
        np.testing.assert_array_equal(x.grad[0, :, :, 0], want)

    def test_maxpool_matches_window_scan_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 8, 8))
        np.testing.assert_array_equal(nchw(maxpool2d(Tensor(nhwc(x))).data), maxpool_oracle(x, 2))

    def test_maxpool_rejects_odd_extent(self):
        with pytest.raises(ShapeError, match="divisible"):
            maxpool2d(Tensor(np.zeros((1, 5, 4, 1))))

    def test_maxpool_gradcheck(self):
        rng = np.random.default_rng(12)
        # well-separated values keep finite differences off the kinks
        x = Tensor(rng.permutation(64).astype(np.float64).reshape(1, 8, 8, 1) * 0.1, requires_grad=True)

        def loss_fn():
            y = maxpool2d(x)
            return mean_all(mul(y, y))

        report = grad_check(loss_fn, {"x": x})
        assert report.passed, report.format_lines()


class TestStopGradient:
    def test_values_bit_identical(self):
        x = Tensor(np.random.default_rng(13).standard_normal((2, 3, 4, 4)))
        y = stop_gradient(x)
        assert y.data is x.data or np.array_equal(y.data, x.data)
        assert not y.requires_grad

    def test_gradient_is_exactly_zero(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        y = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        backward_of([x, y], lambda: sum_all(mul(stop_gradient(x), y)))
        np.testing.assert_array_equal(x.grad, np.zeros_like(x.data))
        assert np.abs(y.grad).sum() > 0

    def test_finite_differences_agree_with_zero(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((1, 2, 2, 2)), requires_grad=True)
        y = Tensor(rng.standard_normal((1, 2, 2, 2)), requires_grad=True)

        def loss_fn():
            return sum_all(mul(stop_gradient(x), y))

        report = grad_check(loss_fn, {"x": x, "y": y})
        assert report.passed, report.format_lines()
        assert report.per_param["x"] < 1e-6


class TestElementwiseAndReductions:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_gradchecks(self):
        rng = np.random.default_rng(16)
        a = Tensor(rng.standard_normal((2, 3, 2, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3, 2, 2)), requires_grad=True)

        cases = {
            "add": lambda: mean_all(mul(add(a, b), add(a, b))),
            "sub": lambda: mean_all(mul(sub(a, b), sub(a, b))),
            "scale": lambda: sum_all(scale(mul(a, b), 0.3)),
            "reshape": lambda: mean_all(mul(reshape(a, (2, 12)), reshape(b, (2, 12)))),
            "sum_axis": lambda: sum_all(mul(sum_axis(a, 1), sum_axis(b, 1))),
        }
        for name, fn in cases.items():
            report = grad_check(fn, {"a": a, "b": b})
            assert report.passed, (name, report.format_lines())

    def test_l2_normalize_rows(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((5, 4))
        out = l2_normalize(Tensor(m)).data
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-12)

    def test_l2_normalize_zero_row_is_zero(self):
        m = np.zeros((2, 4))
        m[1] = [1.0, 0, 0, 0]
        out = l2_normalize(Tensor(m)).data
        np.testing.assert_array_equal(out[0], np.zeros(4))
        np.testing.assert_allclose(out[1], m[1])

    def test_l2_normalize_gradcheck(self):
        rng = np.random.default_rng(18)
        a = Tensor(rng.standard_normal((3, 6)) + 0.5, requires_grad=True)
        t = rng.standard_normal((3, 6))

        def loss_fn():
            d = sub(l2_normalize(a), Tensor(t))
            return mean_all(mul(d, d))

        report = grad_check(loss_fn, {"a": a})
        assert report.passed, report.format_lines()

    def test_gather_batch_gradcheck(self):
        rng = np.random.default_rng(19)
        a = Tensor(rng.standard_normal((5, 2, 2, 2)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])

        def loss_fn():
            g = gather_batch(a, idx)
            return mean_all(mul(g, g))

        report = grad_check(loss_fn, {"a": a})
        assert report.passed, report.format_lines()


class TestTapeAndGradCheck:
    def test_forward_determinism(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        a = conv2d(Tensor(nhwc(x)), Tensor(w), None, 1, 1).data
        b = conv2d(Tensor(nhwc(x)), Tensor(w), None, 1, 1).data
        np.testing.assert_array_equal(a, b)

    def test_reverse_order_replay(self):
        order = []
        x = Tensor(np.ones(()), requires_grad=True)
        with Tape() as tape:
            y = scale(x, 2.0)
            z = scale(y, 3.0)
            tape.record("probe1", lambda: order.append(1))
            tape.record("probe2", lambda: order.append(2))
            x.zero_grad()
            tape.backward(z)
        assert order == [2, 1]
        assert x.grad == 6.0

    def test_linear_loss_machine_precision(self):
        rng = np.random.default_rng(21)
        w = Tensor(rng.standard_normal(6).reshape(1, 6), requires_grad=True)
        x = Tensor(rng.standard_normal(6).reshape(1, 6))

        report = grad_check(lambda: sum_all(mul(w, x)), {"w": w})
        assert report.max_rel_err < 1e-9

    def test_non_finite_loss_rejected(self):
        bad = Tensor(np.array(np.inf), requires_grad=True)
        with pytest.raises(FloatingPointError):
            grad_check(lambda: scale(bad, 1.0), {"bad": bad})

    def test_more_stop_gradient_calls_when_perturbed_rejected(self):
        p = Tensor(np.ones(2), requires_grad=True)
        calls = []

        def loss_fn():
            calls.append(None)
            # the base point detaches once, every perturbed evaluation twice
            d = stop_gradient(p) if len(calls) == 1 else mul(stop_gradient(p), stop_gradient(p))
            return sum_all(mul(d, p))

        with pytest.raises(StateError, match="stop_gradient call count"):
            grad_check(loss_fn, {"p": p})

    def test_f32_params_rejected(self):
        p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="f64"):
            grad_check(lambda: sum_all(p), {"p": p})
