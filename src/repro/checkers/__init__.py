"""Local checkers (Definition 2.2): radius-limited solution verifiers."""

from .base import CheckVerdict, LocalChecker, LocalView
from .coloring import ColoringChecker
from .decomposition import DecompositionChecker, decomposition_outputs
from .mis import MISChecker
from .orientation import SinklessOrientationChecker
from .ruling import RulingSetChecker
from .splitting import SplittingChecker

__all__ = [
    "CheckVerdict",
    "ColoringChecker",
    "DecompositionChecker",
    "LocalChecker",
    "LocalView",
    "MISChecker",
    "RulingSetChecker",
    "SinklessOrientationChecker",
    "SplittingChecker",
    "decomposition_outputs",
]
