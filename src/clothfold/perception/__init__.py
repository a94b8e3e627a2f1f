from .config import ModelConfig
from .vocab import TokenizeError, Vocabulary, default_vocabulary, tokenize
from .model import (
    EmptyMaskError,
    PerceptionModel,
    segment_workspace,
    select_action,
)
from .fusion import FusionBlock

__all__ = [
    "EmptyMaskError", "FusionBlock", "ModelConfig", "PerceptionModel",
    "TokenizeError", "Vocabulary", "default_vocabulary", "segment_workspace",
    "select_action", "tokenize",
]
