"""Shared domain types: gradient clipping, ledgers, and the online-learner contract.

Everything downstream trades in plain float64 numpy arrays ("vectors") under
the Euclidean norm. Corruption experiments intentionally drive exponential
blow-ups, so any NaN/Inf is treated as a fatal state-corruption signal rather
than silently propagated.

The per-round vector kernels (norm, inner product, finiteness check, ledger
equality) never warn, on subnormal and near-overflow input alike. Vectors of
at most SMALL_DIM entries, which covers every scalar (d = 1) learner, never
enter a numpy reduction: a Python-level pass over ``tolist()`` costs a
fraction of one numpy dispatch at that size.
"""

from __future__ import annotations

import math
import operator
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
    return as_vector_norm(x, dim)[0]


def as_vector_norm(x, dim: int | None = None) -> tuple[np.ndarray, float]:
    """as_vector(x, dim) and its norm, from one reduction.

    A finite norm proves every entry finite; only a non-finite one (a NaN or
    Inf entry, or a finite vector whose norm overflows) runs the entrywise
    ensure_finite, which raises for the first and passes the second, whose
    norm is then inf.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    n = norm(v)
    if not math.isfinite(n):
        ensure_finite(v, "vector input")
    return v, n


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


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two vectors of equal size, as a Python float.

    Up to SMALL_DIM entries Python's sum() adds the products, within
    d * 2**-53 * sum(|a_i b_i|) of the exact value and, at d = 1, equal to
    np.vdot up to the sign of a zero; above that it is np.vdot (which never
    warns). math.fsum is not used: it raises on overflow. Here a sum past
    float range gives +-inf and a NaN entry gives NaN, so callers'
    finiteness checks see the failure.
    """
    if a.size <= SMALL_DIM:
        return sum(map(operator.mul, a.tolist(), b.tolist()))
    return float(np.vdot(a, b))


def clip_gradient(g_tilde: np.ndarray, h: float, g_norm: float) -> np.ndarray:
    """Rescale g_tilde, whose norm is g_norm, to norm at most h, preserving direction.

    g_norm must be norm(g_tilde), which the caller already has. An input of
    norm at most h, the zero vector included, is returned itself, not a
    copy, so a caller can tell a pass from a clip by identity.
    When the scale h/n would underflow, or the norm n of a finite input
    overflows, the direction is normalised by the largest magnitude first,
    so the result still has norm h, not 0.
    Rescaling repeats if rounding leaves the result an ulp above the
    threshold (subnormal entries step toward zero one unit at a time), so
    clipping is exactly idempotent and the result never exceeds h.
    """
    if h <= 0:
        raise ValueError(f"clipping threshold must be positive, got {h}")
    n = g_norm
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
    count_corrupted: big_rounds <= count_corrupted and
    deviation_sum / G <= count_corrupted hold after every update.
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
        nothing) of equal shapes, as np.array_equal; small vectors compare
        as Python lists.
        """
        if (
            g_true.tolist() == g_tilde.tolist() if g_true.size <= SMALL_DIM
            else g_true.shape == g_tilde.shape and bool((g_true == g_tilde).all())
        ):
            return False
        dev = norm(g_true - g_tilde)
        self.count_corrupted += 1
        if dev >= self.lipschitz_G:
            self.big_rounds += 1
        self.deviation_sum += min(dev, self.lipschitz_G)
        return True


@dataclass
class RegretLedger:
    """Cumulative linearized regret against a fixed comparator.

    true_regret_linear uses the true gradients, observed_regret_linear the
    corrupted ones. loss_regret sums the per-round loss gaps of a loss
    oracle, and stays 0.0 without one. A round whose regret totals would
    leave float range raises NonFiniteError and leaves every total unchanged.
    """

    comparator: np.ndarray
    true_regret_linear: float = 0.0
    observed_regret_linear: float = 0.0
    loss_regret: float = 0.0

    def update(
        self,
        diff: np.ndarray,
        g_true: np.ndarray,
        g_observed: np.ndarray,
        loss_gap: float | None = None,
    ) -> float:
        """Account one round; diff is the played point minus the comparator.

        Returns the observed increment dot(g_observed, diff).
        """
        shape = self.comparator.shape
        if diff.shape != shape or g_true.shape != shape or g_observed.shape != shape:
            raise ValueError(
                f"dimension mismatch: w - u {diff.shape}, g {g_true.shape}, "
                f"g_obs {g_observed.shape}, comparator {shape}"
            )
        # a non-finite increment makes its total non-finite too
        true_total = self.true_regret_linear + dot(g_true, diff)
        observed = dot(g_observed, diff)
        observed_total = self.observed_regret_linear + observed
        if not (math.isfinite(true_total) and math.isfinite(observed_total)):
            raise NonFiniteError(
                f"non-finite value in regret ledger: true {true_total}, "
                f"observed {observed_total}"
            )
        self.true_regret_linear = true_total
        self.observed_regret_linear = observed_total
        if loss_gap is not None:
            self.loss_regret += float(loss_gap)
        return observed


class OnlineLearner(ABC):
    """predict/observe state machine shared by every learner in this package.

    predict() is deterministic given the observe history and safe to call
    repeatedly; the first prediction is always the origin. The returned array
    may be the learner's own iterate, not a copy: observe() replaces the
    iterate with a new array and never writes into the old one, and callers
    must not write into it either. observe() consumes one (gradient, hint)
    pair, where the hint is the magnitude bound the caller promises for the
    next round's gradient. There is no reset: a fresh run builds a fresh
    learner.
    """

    @abstractmethod
    def predict(self) -> np.ndarray: ...

    @abstractmethod
    def observe(self, gradient: np.ndarray, hint: float) -> None: ...
