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
    random_sign_expectation,
)
from .core import (
    CorruptionLedger,
    NonFiniteError,
    OnlineLearner,
    RegretLedger,
    clip_gradient,
)
from .epigraph import EpigraphLearner, EpigraphPoint, QuadWeights, weighted_project
from .mirror_descent import MirrorDescentLearner, link_inverse_solve
from .protocol import (
    DecompositionLedger,
    ProtocolConfig,
    RobustProtocol,
    online_to_batch,
)
from .regularizer import HuberRegularizer, check_sum_bounds
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
    "OnlineLearner",
    "ProtocolConfig",
    "QuadWeights",
    "RegretLedger",
    "RobustProtocol",
    "check_sum_bounds",
    "clip_gradient",
    "link_inverse_solve",
    "make_adversary",
    "online_to_batch",
    "random_sign_expectation",
    "weighted_project",
]

__version__ = "0.1.0"
