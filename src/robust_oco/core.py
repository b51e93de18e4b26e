"""Shared domain types: gradient clipping, ledgers, and the online-learner contract.

Everything downstream trades in plain float64 numpy arrays ("vectors") under
the Euclidean norm. Corruption experiments intentionally drive exponential
blow-ups, so any NaN/Inf is treated as a fatal state-corruption signal rather
than silently propagated.

The per-round vector kernels (norm, finiteness check, ledger equality) are
exact and never warn, on subnormal and near-overflow input alike. Vectors of
at most SMALL_DIM entries, which covers every scalar (d = 1) learner, never
enter a numpy reduction: a Python-level pass over ``tolist()`` costs a
fraction of one numpy dispatch at that size.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


SMALL_DIM = 16  # vectors up to this size skip numpy reductions
_FLOAT64 = np.dtype(np.float64)
# below this squared norm, np.vdot may have lost digits to underflow
_SQUARED_NORM_FLOOR = 1e-280
_FLOAT_MIN = sys.float_info.min  # smallest normal double


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
    """Abort with a diagnostic if any entry of x is NaN or Inf.

    A 1-d float64 vector passes as soon as its sum of squares is finite,
    which proves every entry finite: math.hypot up to SMALL_DIM entries,
    np.vdot (which never warns) above. A non-finite sum decides nothing (the
    norm of a finite [1.7e308, 1.7e308] overflows), so it falls through to
    the entrywise check, as does every other input.
    """
    arr = np.asarray(x)
    if arr.ndim == 1 and arr.dtype is _FLOAT64 and math.isfinite(
        math.hypot(*arr.tolist()) if arr.size <= SMALL_DIM
        else float(np.vdot(arr, arr))
    ):
        return
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite value in {context}: {arr!r}")


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, exact to a few ulps and never warning.

    Up to SMALL_DIM entries this is math.hypot, which scales internally and
    is within one ulp over the whole float range, subnormals included.
    Larger vectors, where one numpy reduction costs less than a Python-level
    pass, take np.vdot: unlike np.dot, np.inner and @, it does not warn on
    overflow, at the same cost. Its square root is used when the squared
    norm s is finite and above 1e-280, where underflowed squares shift s by
    at most d * 2**-1074; otherwise the vector is first rescaled by its
    largest magnitude. Either way the relative error is at most
    (d/2 + 2) * 2**-53, plus one subnormal unit when the norm is subnormal.
    A NaN or Inf entry gives NaN or Inf, and a finite vector whose norm
    exceeds the float range gives Inf.
    """
    if v.size <= SMALL_DIM:
        return math.hypot(*v.tolist())
    s = float(np.vdot(v, v))
    if math.isfinite(s) and s > _SQUARED_NORM_FLOOR:
        return math.sqrt(s)
    # overflowed, underflowed, or NaN: rescale by the largest magnitude first
    m = float(np.max(np.abs(v)))
    if not math.isfinite(m) or m == 0.0:
        return m
    u = v / m
    return m * math.sqrt(float(np.vdot(u, u)))


def clip_gradient(g_tilde: np.ndarray, h: float) -> np.ndarray:
    """Rescale g_tilde to norm at most h, preserving direction.

    The zero vector maps to itself (the formula's limit), guarding the
    division by the input norm. When the scale h/n would underflow, or the
    norm n of a finite input overflows, the direction is normalised by the
    largest magnitude first, so the result still has norm h, not 0.
    Rescaling repeats if rounding leaves the result an ulp above the
    threshold (subnormal entries step toward zero one unit at a time), so
    clipping is exactly idempotent and the result never exceeds h.
    """
    if h <= 0:
        raise ValueError(f"clipping threshold must be positive, got {h}")
    n = norm(g_tilde)
    if n <= h:
        return g_tilde
    scale = h / n
    if scale < _FLOAT_MIN:
        u = g_tilde / float(np.max(np.abs(g_tilde)))
        out = u * (h / norm(u))
    else:
        out = g_tilde * scale
    n = norm(out)
    while n > h:
        out_next = out * (h / n)
        n_next = norm(out_next)
        if n_next >= n:
            # subnormal entries can round back to themselves: step each one
            # toward zero instead, so the loop always terminates
            out_next = np.nextafter(out, 0.0)
            n_next = norm(out_next)
        out, n = out_next, n_next
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
        """Account one round; return True when it was corrupted (g_tilde != g_true).

        Equality is entrywise float equality (-0.0 equals 0.0, NaN equals
        nothing); small vectors compare as Python lists.
        """
        if (
            g_true.tolist() == g_tilde.tolist() if g_true.size <= SMALL_DIM
            else np.array_equal(g_true, g_tilde)
        ):
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
        self.true_regret_linear += float(np.vdot(g_true, diff))
        self.observed_regret_linear += float(np.vdot(g_observed, diff))
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
