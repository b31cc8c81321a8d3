"""Siamese dense network: backbone + projector (encoder), predictor, classifier.

One weight-shared parameter set serves both augmented views. The backbone
is three plain-convolution blocks (two 3x3 Conv-BN-ReLU per block) with a
max-pool after the first block and a stride-2 first convolution in each
later block, reducing the input by a factor of 8 to an s x s feature map.
The projector is three 1x1 Conv-BN(-ReLU) blocks with a linear last block,
the predictor one 1x1 Conv-BN-ReLU block followed by a single 1x1
convolution, and the classifier a single 1x1 convolution producing a
one-channel score map.

Inside the network activations are channels-last (N, H, W, C); the public
methods take and return (N, C, H, W) tensors and convert at their edges.
`forward_views` stacks both views into one 2N batch whose batch-norm
layers normalize each view's N rows with that view's own statistics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore
from .diffcore import DTYPES, BNState, ShapeError, Tensor, split_nchw, transpose


class ConfigError(ValueError):
    """Raised when a model configuration cannot produce the requested geometry."""


# three stride-2 reductions: one max-pool plus two strided convolutions
DOWNSAMPLE_FACTOR = 8

# axis orders between the public (N, C, H, W) and the kernels' (N, H, W, C)
TO_NHWC = (0, 2, 3, 1)
TO_NCHW = (0, 3, 1, 2)


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
        if self.feature_side < 1 or self.embed_dim < 1:
            raise ConfigError("feature side and embedding dim must be positive")

    def to_dict(self) -> dict:
        return {
            "input_size": self.input_size,
            "in_channels": self.in_channels,
            "backbone_channels": list(self.backbone_channels),
            "feature_side": self.feature_side,
            "embed_dim": self.embed_dim,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(
            input_size=int(d["input_size"]),
            in_channels=int(d["in_channels"]),
            backbone_channels=tuple(int(c) for c in d["backbone_channels"]),
            feature_side=int(d["feature_side"]),
            embed_dim=int(d["embed_dim"]),
        )


@dataclass
class ViewOutputs:
    """The eight maps of one symmetric forward pass.

    emb* are encoder embeddings, pred* the predictor outputs, and cls_*
    the one-channel classifier maps of the respective inputs. Index 1/2
    names the augmented view each map came from.
    """

    emb1: Tensor
    emb2: Tensor
    pred1: Tensor
    pred2: Tensor
    cls_emb1: Tensor
    cls_emb2: Tensor
    cls_pred1: Tensor
    cls_pred2: Tensor

    def swapped(self) -> "ViewOutputs":
        return ViewOutputs(
            emb1=self.emb2, emb2=self.emb1,
            pred1=self.pred2, pred2=self.pred1,
            cls_emb1=self.cls_emb2, cls_emb2=self.cls_emb1,
            cls_pred1=self.cls_pred2, cls_pred2=self.cls_pred1,
        )


class Conv2d:
    def __init__(self, rng, cin: int, cout: int, k: int, stride: int = 1, padding: int = 0, dtype=np.float32):
        fan_in = cin * k * k
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(cout, cin, k, k))
        self.weight = Tensor(w.astype(dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return diffcore.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def named_params(self, prefix: str):
        return [(f"{prefix}.weight", self.weight), (f"{prefix}.bias", self.bias)]


class BatchNorm2d:
    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1, dtype=np.float32):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.state = BNState.create(channels, dtype=dtype)
        self.eps = eps
        self.momentum = momentum

    def __call__(self, x: Tensor, mode: str, slabs: int = 1) -> Tensor:
        return diffcore.batchnorm2d(x, self.gamma, self.beta, self.state, mode, self.eps, self.momentum, slabs)

    def named_params(self, prefix: str):
        return [(f"{prefix}.gamma", self.gamma), (f"{prefix}.beta", self.beta)]


class ConvBNBlock:
    """Conv -> BN -> optional ReLU."""

    def __init__(self, rng, cin, cout, k, stride=1, padding=0, with_relu=True, dtype=np.float32):
        self.conv = Conv2d(rng, cin, cout, k, stride, padding, dtype)
        self.bn = BatchNorm2d(cout, dtype=dtype)
        self.with_relu = with_relu

    def __call__(self, x: Tensor, mode: str, slabs: int = 1) -> Tensor:
        out = self.bn(self.conv(x), mode, slabs)
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
    # The underscored methods work on channels-last batches of `slabs` views.

    def _check_input(self, x: Tensor) -> None:
        if x.data.ndim != 4 or x.shape[1] != self.config.in_channels:
            raise ShapeError(f"expected (N, {self.config.in_channels}, H, W) input, got {x.shape}")
        if x.shape[2] != self.config.input_size or x.shape[3] != self.config.input_size:
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
        """Dense encoder: backbone then projector, (N, C, H, W) in and out."""
        self._check_input(x)
        return transpose(self._encode(transpose(x, TO_NHWC), mode, 1), TO_NCHW)

    def predict(self, emb: Tensor, mode: str) -> Tensor:
        return transpose(self._predict(transpose(emb, TO_NHWC), mode, 1), TO_NCHW)

    def classify(self, feature_map: Tensor) -> Tensor:
        return transpose(self.classifier(transpose(feature_map, TO_NHWC)), TO_NCHW)

    def forward_views(self, x1: Tensor, x2: Tensor, mode: str) -> ViewOutputs:
        """Run both views through the shared parameters as one 2N batch.

        The views are stacked along the batch axis and moved to channels-last
        once; each batch-norm layer normalizes the two N-row slabs with their
        own statistics, as two separate passes would. The views are network
        inputs: no gradient flows back into x1 or x2.
        """
        if x1.shape != x2.shape:
            raise ShapeError(f"views must share a shape, got {x1.shape} vs {x2.shape}")
        self._check_input(x1)
        x = Tensor(np.concatenate([x1.data, x2.data]).transpose(TO_NHWC))
        emb = self._encode(x, mode, 2)
        pred = self._predict(emb, mode, 2)
        emb1, emb2 = split_nchw(emb, 2)
        pred1, pred2 = split_nchw(pred, 2)
        cls_emb1, cls_emb2 = split_nchw(self.classifier(emb), 2)
        cls_pred1, cls_pred2 = split_nchw(self.classifier(pred), 2)
        return ViewOutputs(
            emb1=emb1,
            emb2=emb2,
            pred1=pred1,
            pred2=pred2,
            cls_emb1=cls_emb1,
            cls_emb2=cls_emb2,
            cls_pred1=cls_pred1,
            cls_pred2=cls_pred2,
        )

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
