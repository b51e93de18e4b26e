"""Shared domain types: gradient clipping, ledgers, and the online-learner contract.

Everything downstream trades in plain float64 numpy arrays ("vectors") under
the Euclidean norm. Corruption experiments intentionally drive exponential
blow-ups, so any NaN/Inf is treated as a fatal state-corruption signal rather
than silently propagated.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


class NonFiniteError(RuntimeError):
    """A NaN or Inf entered the computation; the run is invalid."""


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float64 array, optionally checking dimension."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    ensure_finite(v, "vector input")
    return v


def ensure_finite(x, context: str) -> None:
    """Abort with a diagnostic if any entry of x is NaN or Inf."""
    arr = np.asarray(x)
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite value in {context}: {arr!r}")


def norm(v: np.ndarray) -> float:
    s = float(np.dot(v, v))
    if math.isfinite(s):
        return math.sqrt(s)
    # squared sum overflowed; rescale by the largest magnitude first
    m = float(np.max(np.abs(v)))
    if not math.isfinite(m) or m == 0.0:
        return m
    u = v / m
    return m * math.sqrt(float(np.dot(u, u)))


def clip_gradient(g_tilde: np.ndarray, h: float) -> np.ndarray:
    """Rescale g_tilde to norm at most h, preserving direction.

    The zero vector maps to itself (the formula's limit), guarding the
    division by the input norm. Rescaling repeats if rounding leaves the
    result an ulp above the threshold, so clipping is exactly idempotent.
    """
    if h <= 0:
        raise ValueError(f"clipping threshold must be positive, got {h}")
    n = norm(g_tilde)
    if n <= h:
        return g_tilde
    out = g_tilde * (h / n)
    n = norm(out)
    while n > h:
        out = out * (h / n)
        n = norm(out)
    return out


@dataclass
class CorruptionLedger:
    """Running corruption-budget accounting for a (true, observed) pair stream.

    big_rounds counts rounds whose deviation reaches the Lipschitz bound G;
    deviation_sum accumulates min(deviation, G). Both are dominated by
    count_corrupted, which is checked as an invariant on every update.
    """

    lipschitz_G: float
    count_corrupted: int = 0
    big_rounds: int = 0
    deviation_sum: float = 0.0

    def __post_init__(self):
        if self.lipschitz_G <= 0:
            raise ValueError("lipschitz_G must be positive")

    def update(self, g_true: np.ndarray, g_tilde: np.ndarray) -> bool:
        """Account one round; return True when it was corrupted (g_tilde != g_true)."""
        if np.array_equal(g_true, g_tilde):
            return False
        dev = norm(g_true - g_tilde)
        self.count_corrupted += 1
        if dev >= self.lipschitz_G:
            self.big_rounds += 1
        self.deviation_sum += min(dev, self.lipschitz_G)
        return True

    def check(self) -> None:
        assert self.big_rounds <= self.count_corrupted
        assert self.deviation_sum / self.lipschitz_G <= self.count_corrupted + 1e-12


@dataclass
class RegretLedger:
    """Cumulative linearized regret against a fixed comparator.

    true_regret_linear uses the true gradients, observed_regret_linear the
    corrupted ones. loss_regret is only tracked when a loss oracle supplies
    per-round loss gaps.
    """

    comparator: np.ndarray
    true_regret_linear: float = 0.0
    observed_regret_linear: float = 0.0
    loss_regret: float = 0.0
    has_loss_oracle: bool = False

    def update(
        self,
        w: np.ndarray,
        g_true: np.ndarray,
        g_observed: np.ndarray,
        loss_gap: float | None = None,
    ) -> None:
        u = self.comparator
        if w.shape != u.shape or g_true.shape != u.shape or g_observed.shape != u.shape:
            raise ValueError(
                f"dimension mismatch: w {w.shape}, g {g_true.shape}, "
                f"g_obs {g_observed.shape}, comparator {u.shape}"
            )
        diff = w - u
        self.true_regret_linear += float(np.dot(g_true, diff))
        self.observed_regret_linear += float(np.dot(g_observed, diff))
        if loss_gap is not None:
            self.has_loss_oracle = True
            self.loss_regret += float(loss_gap)


class OnlineLearner(ABC):
    """predict/observe state machine shared by every learner in this package.

    predict() is deterministic given the observe history and may be called
    repeatedly; the first prediction is always the origin. observe() consumes
    one (gradient, hint) pair, where the hint is the magnitude bound the
    caller promises for the next round's gradient.
    """

    @abstractmethod
    def predict(self) -> np.ndarray: ...

    @abstractmethod
    def observe(self, gradient: np.ndarray, hint: float) -> None: ...

    @abstractmethod
    def reset(self) -> None: ...
