"""Network assembly tests: shapes, determinism, weight sharing, recipes."""
import numpy as np
import pytest

from crfas import diffcore
from crfas.diffcore import ShapeError, StateError, Tape, Tensor
from crfas.model import ConfigError, ModelConfig, build_model

SMALL = ModelConfig(input_size=16, backbone_channels=(4, 6, 6), feature_side=2, embed_dim=6)


def small_model(seed=0, dtype="f32"):
    return build_model(SMALL, seed, dtype)


def rand_input(rng, n=2, size=16, dtype=np.float32):
    return Tensor(rng.random((n, size, size, 3)).astype(dtype))


class TestBuild:
    def test_default_config_shapes(self):
        model = build_model(ModelConfig(), seed=0)
        rng = np.random.default_rng(0)
        x = rand_input(rng, n=2, size=64)
        views = model.forward_views(x, x)
        # both views' rows, view 1 first
        assert views.emb.shape == (4, 8, 8, 64)
        assert views.pred.shape == (4, 8, 8, 64)
        assert views.cls_emb.shape == (4, 8, 8, 1)
        assert views.cls_pred.shape == (4, 8, 8, 1)

    def test_same_seed_same_params(self):
        a = small_model(seed=123)
        b = small_model(seed=123)
        for (name_a, pa), (name_b, pb) in zip(a.named_params(), b.named_params()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_different_params(self):
        a = small_model(seed=1)
        b = small_model(seed=2)
        diffs = [
            np.abs(pa.data - pb.data).sum()
            for (_, pa), (_, pb) in zip(a.named_params(), b.named_params())
            if pa.data.ndim == 4
        ]
        assert all(d > 0 for d in diffs)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError, match="feature side"):
            ModelConfig(input_size=64, feature_side=4).validate()
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(input_size=60, feature_side=8).validate()

    def test_projector_last_block_is_linear(self):
        # ReLU would clamp negatives away; the projector output must keep them
        model = small_model(seed=7)
        rng = np.random.default_rng(7)
        emb = model.forward_views(rand_input(rng, n=4), rand_input(rng, n=4)).emb
        assert (emb.data < 0).any()

    def test_classifier_is_single_1x1_conv(self):
        model = small_model()
        assert model.classifier.weight.shape == (1, SMALL.embed_dim, 1, 1)

    def test_parameter_names_stable(self):
        names = [name for name, _ in small_model().named_params()]
        assert len(names) == 34
        assert names[0] == "backbone.b1a.conv.weight"
        assert "projector.p3.bn.gamma" in names
        assert "predictor.out.weight" in names
        assert names[-1] == "classifier.bias"
        assert len(names) == len(set(names))
        # a bias before batch norm cancels against the batch mean, so only
        # the two convolutions without one keep a bias
        assert [name for name in names if name.endswith(".bias")] == ["predictor.out.bias", "classifier.bias"]
        assert not [name for name in names
                    if name.startswith(("backbone.", "projector.", "predictor.block")) and name.endswith(".conv.bias")]


class TestForwardViews:
    def test_identical_views_identical_outputs(self):
        model = small_model(seed=3)
        rng = np.random.default_rng(3)
        x = rand_input(rng)
        views = model.forward_views(x, Tensor(x.data.copy()))
        for out in (views.emb, views.pred, views.cls_emb, views.cls_pred):
            np.testing.assert_array_equal(out.data[:2], out.data[2:])

    def test_swapping_views_swaps_outputs(self):
        rng = np.random.default_rng(4)
        x1, x2 = rand_input(rng), rand_input(rng)
        # train mode mutates BN stats, so compare two fresh models
        a = small_model(seed=4).forward_views(x1, x2)
        b = small_model(seed=4).forward_views(x2, x1)
        np.testing.assert_array_equal(a.emb.data[:2], b.emb.data[2:])
        np.testing.assert_array_equal(a.pred.data[2:], b.pred.data[:2])
        np.testing.assert_array_equal(a.cls_emb.data[:2], b.cls_emb.data[2:])
        np.testing.assert_array_equal(a.cls_pred.data[:2], b.cls_pred.data[2:])

    def test_eval_mode_is_repeatable(self):
        model = small_model(seed=5)
        rng = np.random.default_rng(5)
        model.forward_views(rand_input(rng), rand_input(rng))  # init BN stats
        x = rand_input(rng)
        first = model.encode(x).data
        second = model.encode(x).data
        np.testing.assert_array_equal(first, second)

    def test_shape_mismatch_rejected(self):
        model = small_model()
        rng = np.random.default_rng(6)
        with pytest.raises(ShapeError, match="share a shape"):
            model.forward_views(rand_input(rng, n=2), rand_input(rng, n=3))

    def test_wrong_input_size_rejected(self):
        model = small_model()
        rng = np.random.default_rng(6)
        with pytest.raises(ShapeError):
            model.forward_views(rand_input(rng, size=32), rand_input(rng, size=32))
        with pytest.raises(ShapeError):
            model.encode(rand_input(rng, size=32))

    def test_classifier_shared_between_paths(self):
        # one classifier scores both maps; the same map through it twice gives the identical result
        model = small_model(seed=8)
        rng = np.random.default_rng(8)
        views = model.forward_views(rand_input(rng), rand_input(rng))
        for emb, cls in ((views.emb, views.cls_emb), (views.pred, views.cls_pred)):
            np.testing.assert_array_equal(model.classifier(emb).data, cls.data)
            np.testing.assert_array_equal(model.classifier(emb).data, model.classifier(emb).data)


def random_running_stats(model, rng):
    """Give every BN layer random affine parameters and running statistics."""
    for name, p in model.named_params():
        if name.endswith(".gamma") or name.endswith(".beta"):
            p.data[...] = rng.normal(1.0 if name.endswith(".gamma") else 0.0, 0.5, p.shape)
    for _, state in model.named_bn_states():
        state.running_mean[...] = rng.normal(0.0, 0.5, state.running_mean.shape)
        state.running_var[...] = rng.uniform(0.2, 2.0, state.running_var.shape)
        state.initialized = True


def unfolded_block(block, x):
    """Bias-free conv, the eval batch-norm formula on the running statistics, then the block's ReLU and pool."""
    state = block.state
    y = diffcore.conv2d(x, block.conv.weight, None, block.conv.stride, block.conv.padding).data
    y = block.gamma.data * (y - state.running_mean) / np.sqrt(state.running_var + y.dtype.type(1e-5)) + block.beta.data
    y = np.maximum(y, 0) if block.with_relu else y
    return diffcore.maxpool2d(Tensor(y)).data if block.pool else y


def unfolded_encode(model, x):
    out = x.data
    for block in model.encoder:
        out = unfolded_block(block, Tensor(out))
    return out


class TestEvalMode:
    @pytest.mark.parametrize("dtype,tol", [("f64", 1e-12), ("f32", 1e-5)])
    def test_folded_eval_matches_the_running_stats_formula(self, dtype, tol):
        model = small_model(seed=9, dtype=dtype)
        rng = np.random.default_rng(9)
        random_running_stats(model, rng)
        x = rand_input(rng, n=3, dtype=model.dtype)
        got, want = model.encode(x).data, unfolded_encode(model, x)
        assert got.dtype == model.dtype
        err = np.abs(got - want).max()
        assert (err <= tol) if dtype == "f64" else (err <= tol * np.abs(want).max()), err

    def test_eval_under_tape_rejected(self):
        model = small_model(seed=10)
        rng = np.random.default_rng(10)
        random_running_stats(model, rng)
        x = rand_input(rng)
        model.encode(x)
        with Tape(), pytest.raises(StateError, match="forward-only"):
            model.encode(x)


def kernel_calls(run):
    """Count the diffcore kernel calls made by `run()`, seen at the module attributes the tracer patches."""
    counts = dict.fromkeys(("conv2d", "batchnorm2d", "relu", "maxpool2d", "fold_batchnorm"), 0)
    with pytest.MonkeyPatch.context() as mp:
        for name in counts:
            def counted(*args, _name=name, _kernel=getattr(diffcore, name), **kwargs):
                counts[_name] += 1
                return _kernel(*args, **kwargs)

            mp.setattr(diffcore, name, counted)
        run()
    return counts


class TestKernelCalls:
    def test_forward_views_calls(self):
        model = small_model(seed=12)
        rng = np.random.default_rng(12)
        x1, x2 = rand_input(rng), rand_input(rng)
        counts = kernel_calls(lambda: model.forward_views(x1, x2))
        # 10 conv-BN blocks (9 with their ReLU fused into the batch norm, one
        # pooled), the predictor's output conv and the classifier on both maps
        assert counts == {"conv2d": 13, "batchnorm2d": 10, "relu": 0, "maxpool2d": 1, "fold_batchnorm": 0}

    def test_encode_calls(self):
        model = small_model(seed=13)
        rng = np.random.default_rng(13)
        random_running_stats(model, rng)
        x = rand_input(rng)
        counts = kernel_calls(lambda: model.encode(x))
        # the 9 encoder blocks, each batch norm folded into its conv and each
        # ReLU clamped in place on the conv's output; projector.p3 is linear
        assert counts == {"conv2d": 9, "batchnorm2d": 0, "relu": 0, "maxpool2d": 1, "fold_batchnorm": 9}
