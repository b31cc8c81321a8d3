"""Kernel-level tests: forward oracles, gradient checks, tape semantics."""
import numpy as np
import pytest

from crfas.diffcore import (
    BNState,
    ShapeError,
    StateError,
    Tape,
    Tensor,
    add,
    batchnorm2d,
    conv2d,
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
    transpose,
)


def nhwc(a):
    """(N, C, H, W) array -> the kernels' channels-last layout."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def nchw(a):
    return a.transpose(0, 3, 1, 2)


def taped_nhwc(t):
    """Differentiable move of an (N, C, H, W) tensor to channels-last."""
    return transpose(t, (0, 2, 3, 1))


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
        x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)

        def loss_fn():
            y = conv2d(taped_nhwc(x), w, b, stride, padding)
            return mean_all(mul(y, y))

        report = grad_check(loss_fn, {"x": x, "w": w, "b": b})
        assert report.passed, report.format_lines()


class TestBatchNorm:
    def test_constant_channel_gives_beta(self):
        x = Tensor(np.full((3, 2, 4, 4), 7.0, dtype=np.float32))
        gamma = Tensor(np.ones(2, dtype=np.float32))
        beta = Tensor(np.array([0.5, -1.5], dtype=np.float32))
        out = batchnorm2d(Tensor(nhwc(x.data)), gamma, beta, BNState.create(2), "train")
        for c in range(2):
            np.testing.assert_allclose(nchw(out.data)[:, c], beta.data[c], atol=1e-5)

    def test_standardized_input_passes_through(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 3, 6, 6))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        out = batchnorm2d(Tensor(nhwc(x)), Tensor(np.ones(3)), Tensor(np.zeros(3)), BNState.create(3, np.float64), "train")
        np.testing.assert_allclose(nchw(out.data), x, atol=1e-4)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3, 5, 5))
        gamma = rng.standard_normal(3)
        beta = rng.standard_normal(3)
        eps = 1e-5
        out = batchnorm2d(Tensor(nhwc(x)), Tensor(gamma), Tensor(beta), BNState.create(3, np.float64), "train", eps=eps)
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
        batchnorm2d(Tensor(nhwc(x)), Tensor(np.ones(2)), Tensor(np.zeros(2)), state, "train")
        np.testing.assert_allclose(state.running_mean, 0.1 * x.mean(axis=(0, 2, 3)), rtol=1e-12)
        np.testing.assert_allclose(state.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2, 3)), rtol=1e-12)

    def test_eval_before_train_rejected(self):
        x = Tensor(np.zeros((1, 4, 4, 2)))
        with pytest.raises(StateError, match="eval mode before"):
            batchnorm2d(x, Tensor(np.ones(2, dtype=np.float32)), Tensor(np.zeros(2, dtype=np.float32)), BNState.create(2), "eval")

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(8)
        state = BNState.create(2, np.float64)
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        batchnorm2d(Tensor(nhwc(rng.standard_normal((4, 2, 3, 3)))), gamma, beta, state, "train")
        x = rng.standard_normal((2, 2, 3, 3))
        out = batchnorm2d(Tensor(nhwc(x)), gamma, beta, state, "eval")
        want = (x - state.running_mean.reshape(1, 2, 1, 1)) / np.sqrt(state.running_var.reshape(1, 2, 1, 1) + 1e-5)
        np.testing.assert_allclose(nchw(out.data), want, rtol=1e-6)

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
                    out = batchnorm2d(xt, gamma, beta, state, "train", slabs=2)
                    loss = sum_all(mul(out, Tensor(weights)))
                else:
                    halves = [gather_batch(xt, np.arange(3)), gather_batch(xt, np.arange(3, 6))]
                    outs = [batchnorm2d(h, gamma, beta, state, "train") for h in halves]
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

    def test_gradcheck_train_mode(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((3, 2, 4, 4)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(2) + 1.0, requires_grad=True)
        beta = Tensor(rng.standard_normal(2), requires_grad=True)
        state = BNState.create(2, np.float64)
        target = rng.standard_normal((3, 2, 4, 4))

        def loss_fn():
            out = transpose(batchnorm2d(taped_nhwc(x), gamma, beta, state, "train"), (0, 3, 1, 2))
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
        x = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
        backward_of([x], lambda: sum_all(maxpool2d(taped_nhwc(x))))
        want = np.zeros((4, 4))
        want[0::2, 0::2] = 1.0  # first element of each 2x2 window in scan order
        np.testing.assert_array_equal(x.grad[0, 0], want)

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
        x = Tensor(rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8) * 0.1, requires_grad=True)

        def loss_fn():
            y = maxpool2d(taped_nhwc(x))
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
            "transpose": lambda: mean_all(mul(transpose(a, (0, 2, 3, 1)), transpose(b, (0, 2, 3, 1)))),
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

    def test_f32_params_rejected(self):
        p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="f64"):
            grad_check(lambda: sum_all(p), {"p": p})
