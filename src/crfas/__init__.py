"""Consistency-regularized face anti-spoofing, desk-scale and fully deterministic."""

__version__ = "0.1.0"

from .diffcore import Tape, Tensor, grad_check
from .losses import LossBundle, lemma_terms
from .model import ModelConfig, ViewOutputs, build_model
from .trainer import TrainConfig, evaluate, fit

__all__ = [
    "Tape",
    "Tensor",
    "grad_check",
    "LossBundle",
    "lemma_terms",
    "ModelConfig",
    "ViewOutputs",
    "build_model",
    "TrainConfig",
    "evaluate",
    "fit",
    "__version__",
]
