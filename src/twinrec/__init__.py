"""Memory-efficient sequential recommendation with a twin conv/attention encoder."""

from .autodiff import Arena, Tensor, finite_diff_check, use_dtype
from .model import ModelConfig, SequentialRecommender, build_variant
from .training import Adam, TrainConfig, evaluate, train

__all__ = [
    "Arena", "Tensor", "finite_diff_check", "use_dtype",
    "ModelConfig", "SequentialRecommender", "build_variant",
    "Adam", "TrainConfig", "evaluate", "train",
]

__version__ = "0.1.0"
