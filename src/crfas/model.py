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
There are two entry points. `forward_views(x1, x2)` trains on both views as
one 2N batch, each view's N rows normalized with its own batch statistics,
and returns four unsplit maps: rows k and k + N are sample k's two views.
`encode(x)` is the forward-only eval encoder, each batch norm folded into
its convolution with the running statistics (under an active tape it raises
StateError); a sample's score map is `classifier(encode(x))`.
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


class ConvBNBlock:
    """Conv (no bias) -> batch norm (`gamma`, `beta`, running `state`) -> optional ReLU -> optional max-pool.

    `train` normalizes each view of a 2N batch with its own statistics,
    with the ReLU fused into the batch norm as one taped op; `eval` folds
    the running statistics into the convolution, recomputed on every call
    because the optimizer updates the parameters in place.
    """

    def __init__(self, rng, cin, cout, k, stride=1, padding=0, with_relu=True, pool=False, dtype=np.float32):
        self.conv = Conv2d(rng, cin, cout, k, stride, padding, bias=False, dtype=dtype)
        self.gamma = Tensor(np.ones(cout, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)
        self.state = BNState.create(cout, dtype=dtype)
        self.with_relu = with_relu
        self.pool = pool

    def train(self, x: Tensor) -> Tensor:
        out = diffcore.batchnorm2d(self.conv(x), self.gamma, self.beta, self.state, slabs=2, relu=self.with_relu)
        return diffcore.maxpool2d(out) if self.pool else out

    def eval(self, x: Tensor) -> Tensor:
        weight, bias = diffcore.fold_batchnorm(self.conv.weight, self.gamma, self.beta, self.state)
        out = diffcore.conv2d(x, weight, bias, self.conv.stride, self.conv.padding)
        if self.with_relu:
            out = diffcore.relu(out)
        return diffcore.maxpool2d(out) if self.pool else out

    def named_params(self, prefix: str):
        return self.conv.named_params(f"{prefix}.conv") + [(f"{prefix}.bn.gamma", self.gamma),
                                                          (f"{prefix}.bn.beta", self.beta)]


class SiameseDenseNet:
    """Shared encoder f (backbone + projector), predictor h, classifier c; `forward_views` trains, `encode` scores."""

    def __init__(self, config: ModelConfig, seed: int, dtype=np.float32):
        config.validate()
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        c1, c2, c3 = config.backbone_channels
        d = config.embed_dim
        # construction order fixes both initialization draws and the
        # checkpoint declaration order
        self.blocks = {
            "backbone.b1a": ConvBNBlock(rng, config.in_channels, c1, 3, 1, 1, dtype=dtype),
            "backbone.b1b": ConvBNBlock(rng, c1, c1, 3, 1, 1, pool=True, dtype=dtype),
            "backbone.b2a": ConvBNBlock(rng, c1, c2, 3, 2, 1, dtype=dtype),
            "backbone.b2b": ConvBNBlock(rng, c2, c2, 3, 1, 1, dtype=dtype),
            "backbone.b3a": ConvBNBlock(rng, c2, c3, 3, 2, 1, dtype=dtype),
            "backbone.b3b": ConvBNBlock(rng, c3, c3, 3, 1, 1, dtype=dtype),
            "projector.p1": ConvBNBlock(rng, c3, d, 1, dtype=dtype),
            "projector.p2": ConvBNBlock(rng, d, d, 1, dtype=dtype),
            "projector.p3": ConvBNBlock(rng, d, d, 1, with_relu=False, dtype=dtype),
            "predictor.block": ConvBNBlock(rng, d, d, 1, dtype=dtype),
        }
        *self.encoder, self.predictor_block = self.blocks.values()
        self.predictor_out = Conv2d(rng, d, d, 1, dtype=dtype)
        self.classifier = Conv2d(rng, d, 1, 1, dtype=dtype)

    def _check_input(self, x: Tensor) -> None:
        if x.data.ndim != 4 or x.shape[3] != self.config.in_channels:
            raise ShapeError(f"expected (N, H, W, {self.config.in_channels}) input, got {x.shape}")
        if x.shape[1] != self.config.input_size or x.shape[2] != self.config.input_size:
            raise ShapeError(f"expected {self.config.input_size}px input, got {x.shape}")

    def encode(self, x: Tensor) -> Tensor:
        """Forward-only dense encoder, backbone then projector: (N, H, W, C) in and out."""
        self._check_input(x)
        for block in self.encoder:
            x = block.eval(x)
        return x

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
        emb = Tensor(np.concatenate([x1.data, x2.data]))
        for block in self.encoder:
            emb = block.train(emb)
        pred = self.predictor_out(self.predictor_block.train(emb))
        return ViewOutputs(emb=emb, pred=pred, cls_emb=self.classifier(emb), cls_pred=self.classifier(pred))

    # parameter access -----------------------------------------------------

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = []
        for prefix, block in self.blocks.items():
            out.extend(block.named_params(prefix))
        out.extend(self.predictor_out.named_params("predictor.out"))
        out.extend(self.classifier.named_params("classifier"))
        return out

    def named_bn_states(self) -> list[tuple[str, BNState]]:
        return [(f"{prefix}.bn", block.state) for prefix, block in self.blocks.items()]

    def zero_grads(self) -> None:
        for _, p in self.named_params():
            p.zero_grad()


def build_model(config: ModelConfig, seed: int, dtype: str = "f32") -> SiameseDenseNet:
    """Construct the network with parameters drawn deterministically from `seed`.

    `fit` trains at this precision: f32 by default, "f64" for gradient checks.
    """
    return SiameseDenseNet(config, seed, dtype=DTYPES[dtype])
