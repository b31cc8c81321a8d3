"""Siamese dense network: backbone + projector (encoder), predictor, classifier.

One weight-shared parameter set serves both augmented views. The backbone
is three plain-convolution blocks (two 3x3 Conv-BN-ReLU per block) with a
max-pool after the first block and a stride-2 first convolution in each
later block, reducing the input by a factor of 8 to an s x s feature map.
The projector is three 1x1 Conv-BN(-ReLU) blocks with a linear last block,
the predictor one 1x1 Conv-BN-ReLU block followed by a single 1x1
convolution, and the classifier a single 1x1 convolution producing a
one-channel score map. A convolution that feeds a batch norm has no bias,
since train-mode batch norm subtracts the batch mean and would cancel it;
only the predictor's output convolution and the classifier carry one.

Inputs, activations and every output map are channels-last, (N, H, W, C).
`forward_views` trains on both views as one 2N batch whose batch-norm
layers normalize each view's N rows with that view's own statistics, and
returns its four maps unsplit: row k and row k + N are the two views of
sample k.
Eval mode is forward-only: each batch-norm layer is folded into its
convolution, and running it under an active tape raises StateError.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore
from .config import ConfigError
from .diffcore import DTYPES, BNState, ShapeError, Tensor


# three stride-2 reductions: one max-pool plus two strided convolutions
DOWNSAMPLE_FACTOR = 8


@dataclass
class ModelConfig:
    input_size: int = 64
    in_channels: int = 3
    backbone_channels: tuple[int, int, int] = (32, 64, 64)
    feature_side: int = 8
    embed_dim: int = 64

    def validate(self) -> None:
        if len(self.backbone_channels) != 3:
            raise ConfigError(f"need exactly 3 backbone widths, got {self.backbone_channels}")
        if self.input_size % DOWNSAMPLE_FACTOR:
            raise ConfigError(f"input size {self.input_size} is not divisible by {DOWNSAMPLE_FACTOR}")
        if self.input_size // DOWNSAMPLE_FACTOR != self.feature_side:
            raise ConfigError(
                f"downsampling {self.input_size} by {DOWNSAMPLE_FACTOR} gives "
                f"{self.input_size // DOWNSAMPLE_FACTOR}, not feature side {self.feature_side}"
            )
        if min(self.feature_side, self.embed_dim, self.in_channels, *self.backbone_channels) < 1:
            raise ConfigError("feature side, embedding dim and channel counts must be positive")


@dataclass
class ViewOutputs:
    """The four 2N maps of one symmetric forward pass; rows k and k + N are sample k's two views.

    emb: encoder embedding; pred: predictor output; cls_emb, cls_pred: their one-channel classifier maps.
    """

    emb: Tensor
    pred: Tensor
    cls_emb: Tensor
    cls_pred: Tensor


class Conv2d:
    """A convolution; one that feeds a batch norm is built with bias=False."""

    def __init__(self, rng, cin: int, cout: int, k: int, stride: int = 1, padding: int = 0, bias: bool = True,
                 dtype=np.float32):
        fan_in = cin * k * k
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(cout, cin, k, k))
        self.weight = Tensor(w.astype(dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True) if bias else None
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return diffcore.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def named_params(self, prefix: str):
        params = [(f"{prefix}.weight", self.weight)]
        return params if self.bias is None else params + [(f"{prefix}.bias", self.bias)]


class BatchNorm2d:
    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1, dtype=np.float32):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.state = BNState.create(channels, dtype=dtype)
        self.eps = eps
        self.momentum = momentum

    def __call__(self, x: Tensor, slabs: int = 1) -> Tensor:
        return diffcore.batchnorm2d(x, self.gamma, self.beta, self.state, self.eps, self.momentum, slabs)

    def named_params(self, prefix: str):
        return [(f"{prefix}.gamma", self.gamma), (f"{prefix}.beta", self.beta)]


class ConvBNBlock:
    """Conv (no bias) -> BN -> optional ReLU.

    In eval mode the BN running statistics are folded into the convolution,
    which then runs once with the folded weight and bias. The fold is
    recomputed on every call because the optimizer updates the parameters
    in place.
    """

    def __init__(self, rng, cin, cout, k, stride=1, padding=0, with_relu=True, dtype=np.float32):
        self.conv = Conv2d(rng, cin, cout, k, stride, padding, bias=False, dtype=dtype)
        self.bn = BatchNorm2d(cout, dtype=dtype)
        self.with_relu = with_relu

    def __call__(self, x: Tensor, mode: str, slabs: int = 1) -> Tensor:
        if mode == "train":
            out = self.bn(self.conv(x), slabs)
        elif mode == "eval":
            conv, bn = self.conv, self.bn
            weight, bias = diffcore.fold_batchnorm(conv.weight, bn.gamma, bn.beta, bn.state, bn.eps)
            out = diffcore.conv2d(x, weight, bias, conv.stride, conv.padding)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return diffcore.relu(out) if self.with_relu else out


class SiameseDenseNet:
    """Weight-shared dense encoder f (backbone + projector), predictor h, classifier c."""

    def __init__(self, config: ModelConfig, seed: int, dtype=np.float32):
        config.validate()
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        c1, c2, c3 = config.backbone_channels
        d = config.embed_dim
        # construction order fixes both initialization draws and the
        # checkpoint declaration order
        self.backbone = [
            ConvBNBlock(rng, config.in_channels, c1, 3, 1, 1, dtype=dtype),
            ConvBNBlock(rng, c1, c1, 3, 1, 1, dtype=dtype),
            "pool",
            ConvBNBlock(rng, c1, c2, 3, 2, 1, dtype=dtype),
            ConvBNBlock(rng, c2, c2, 3, 1, 1, dtype=dtype),
            ConvBNBlock(rng, c2, c3, 3, 2, 1, dtype=dtype),
            ConvBNBlock(rng, c3, c3, 3, 1, 1, dtype=dtype),
        ]
        self.projector = [
            ConvBNBlock(rng, c3, d, 1, dtype=dtype),
            ConvBNBlock(rng, d, d, 1, dtype=dtype),
            ConvBNBlock(rng, d, d, 1, with_relu=False, dtype=dtype),
        ]
        self.predictor_block = ConvBNBlock(rng, d, d, 1, dtype=dtype)
        self.predictor_out = Conv2d(rng, d, d, 1, dtype=dtype)
        self.classifier = Conv2d(rng, d, 1, 1, dtype=dtype)

    # forward pieces -------------------------------------------------------
    # The underscored methods work on batches of `slabs` views.

    def _check_input(self, x: Tensor) -> None:
        if x.data.ndim != 4 or x.shape[3] != self.config.in_channels:
            raise ShapeError(f"expected (N, H, W, {self.config.in_channels}) input, got {x.shape}")
        if x.shape[1] != self.config.input_size or x.shape[2] != self.config.input_size:
            raise ShapeError(f"expected {self.config.input_size}px input, got {x.shape}")

    def _encode(self, x: Tensor, mode: str, slabs: int) -> Tensor:
        out = x
        for layer in self.backbone:
            if layer == "pool":
                out = diffcore.maxpool2d(out, 2, 2)
            else:
                out = layer(out, mode, slabs)
        for block in self.projector:
            out = block(out, mode, slabs)
        return out

    def _predict(self, emb: Tensor, mode: str, slabs: int) -> Tensor:
        return self.predictor_out(self.predictor_block(emb, mode, slabs))

    def encode(self, x: Tensor, mode: str) -> Tensor:
        """Dense encoder: backbone then projector, (N, H, W, C) in and out."""
        self._check_input(x)
        return self._encode(x, mode, 1)

    def predict(self, emb: Tensor, mode: str) -> Tensor:
        return self._predict(emb, mode, 1)

    def classify(self, feature_map: Tensor) -> Tensor:
        return self.classifier(feature_map)

    def forward_views(self, x1: Tensor, x2: Tensor) -> ViewOutputs:
        """Run both views through the shared parameters as one 2N batch.

        The views are stacked along the batch axis, x1's rows first; each
        batch-norm layer normalizes the two N-row slabs with their own
        statistics, as two separate passes would. The views are network
        inputs: no gradient flows back into x1 or x2.
        """
        if x1.shape != x2.shape:
            raise ShapeError(f"views must share a shape, got {x1.shape} vs {x2.shape}")
        self._check_input(x1)
        x = Tensor(np.concatenate([x1.data, x2.data]))
        emb = self._encode(x, "train", 2)
        pred = self._predict(emb, "train", 2)
        return ViewOutputs(emb=emb, pred=pred, cls_emb=self.classifier(emb), cls_pred=self.classifier(pred))

    # parameter access -----------------------------------------------------

    def _named_layers(self):
        names = ["b1a", "b1b", None, "b2a", "b2b", "b3a", "b3b"]
        for name, layer in zip(names, self.backbone):
            if layer != "pool":
                yield f"backbone.{name}", layer
        for i, block in enumerate(self.projector, 1):
            yield f"projector.p{i}", block
        yield "predictor.block", self.predictor_block

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = []
        for prefix, block in self._named_layers():
            out.extend(block.conv.named_params(f"{prefix}.conv"))
            out.extend(block.bn.named_params(f"{prefix}.bn"))
        out.extend(self.predictor_out.named_params("predictor.out"))
        out.extend(self.classifier.named_params("classifier"))
        return out

    def named_bn_states(self) -> list[tuple[str, BNState]]:
        return [(f"{prefix}.bn", block.bn.state) for prefix, block in self._named_layers()]

    def zero_grads(self) -> None:
        for _, p in self.named_params():
            p.zero_grad()


def build_model(config: ModelConfig, seed: int, dtype: str = "f32") -> SiameseDenseNet:
    """Construct the network with parameters drawn deterministically from `seed`.

    Training runs in f32 by default; pass dtype="f64" for gradient checks.
    """
    return SiameseDenseNet(config, seed, dtype=DTYPES[dtype])
