"""Memory-attention transformer for hyperspectral pixel classification.

Pure-numpy substrate: a small float64 reverse-mode autodiff kernel, binary
cube/label/manifest formats with a synthetic-scene generator, window
tokenization with four positional-embedding modes, a FIFO memory-conditioned
attention encoder, Adam, classification metrics, and a deterministic
train/evaluate/ablate harness with a command-line front end.

The package root exports the names a training script needs; everything else
is imported from its module (``memformer.attention``, ``memformer.data``,
and so on).
"""

from .data import stratified_split, synth_scene
from .harness import TrainConfig, evaluate, train
from .model import MemFormer, ModelConfig

__version__ = "0.1.0"

__all__ = [
    "MemFormer",
    "ModelConfig",
    "TrainConfig",
    "synth_scene",
    "stratified_split",
    "train",
    "evaluate",
    "__version__",
]
