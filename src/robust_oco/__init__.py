"""Corruption-robust unconstrained online convex optimization.

Learners that keep comparator-adaptive regret guarantees when the observed
gradients are adversarially corrupted, together with the corruption
generators, lower-bound constructions, and the experiment harness used to
exercise them.
"""

from .adversaries import (
    AdversarySpec,
    KTBettor,
    make_adversary,
)
from .core import (
    CorruptionLedger,
    NonFiniteError,
    RegretLedger,
    clip_gradient,
)
from .epigraph import EpigraphLearner, EpigraphPoint, weighted_project
from .mirror_descent import MirrorDescentLearner, link_inverse_solve
from .protocol import DecompositionLedger, ProtocolConfig, RobustProtocol
from .regularizer import HuberRegularizer
from .thresholds import GradientFilter, MagnitudeTracker

__all__ = [
    "AdversarySpec",
    "CorruptionLedger",
    "DecompositionLedger",
    "EpigraphLearner",
    "EpigraphPoint",
    "GradientFilter",
    "HuberRegularizer",
    "KTBettor",
    "MagnitudeTracker",
    "MirrorDescentLearner",
    "NonFiniteError",
    "ProtocolConfig",
    "RegretLedger",
    "RobustProtocol",
    "clip_gradient",
    "link_inverse_solve",
    "make_adversary",
    "weighted_project",
]

__version__ = "0.1.0"
