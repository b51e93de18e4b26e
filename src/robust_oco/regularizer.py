"""The Huber-family composite regularizer and its running-sum state.

The per-round penalty is c * sigma_t(w) / S_t^(1-1/p), where sigma_t grows
like ||w||^p below the most recent iterate norm and linearly above it, and
S_t accumulates alpha^p plus the p-th powers of all iterate norms so far.
Its one regime is p > 1 (the protocol's p = ln T, T >= 3); p-th powers are
handled in log space throughout: direct pow() underflows for small bases and
overflows for large ones long before the quantities leave float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import _FLOAT_MIN, check_positive


@dataclass
class HuberRegularizer:
    """Running state (S_t, previous iterate norm) of the composite penalty.

    S is kept as log_S only: a sum of p-th powers soon leaves float range.
    c lies in [0, inf), p in (1, inf) and alpha in (0, inf); NaN fails each.
    """

    c: float
    p: float
    alpha: float
    log_S: float = field(init=False)
    last_iterate_norm: float = field(init=False, default=0.0)
    t: int = field(init=False, default=0)

    def __post_init__(self):
        if not 0.0 <= self.c < math.inf:
            raise ValueError(f"scale c must be nonnegative and finite, got {self.c}")
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"power p must be above 1 and finite, got {self.p}")
        check_positive("offset alpha", self.alpha)
        self.log_S = self.p * math.log(self.alpha)

    def advance(self, w_next_norm: float) -> None:
        """Fold the next iterate norm into S and remember it for sigma.

        With c = 0 the fold is skipped: no formula reads log_S then.
        """
        if not math.isfinite(w_next_norm) or w_next_norm < 0:
            raise ValueError(f"invalid iterate norm {w_next_norm}")
        if w_next_norm > 0.0 and self.c != 0.0:
            self.log_S = _logaddexp(self.log_S, self.p * math.log(w_next_norm))
        self.last_iterate_norm = w_next_norm
        self.t += 1

    def evaluate(self, w_norm: float) -> float:
        """Penalty value at a point of the given norm, at the current round."""
        if self.t < 1:
            raise ValueError("evaluate requires at least one advance")
        c, p, wt = self.c, self.p, self.last_iterate_norm
        # past a knot at wt = 0 the linear branch's slope is 0^(p-1) = 0
        if c == 0.0 or w_norm == 0.0 or wt == 0.0:
            return 0.0
        log_denom = (1.0 - 1.0 / p) * self.log_S
        if w_norm <= wt:
            return c * math.exp(p * math.log(w_norm) - log_denom)
        # linear branch: slope continuation from the knot at ||w_t||
        lin = p * w_norm - (p - 1.0) * wt
        return c * lin * math.exp((p - 1.0) * math.log(wt) - log_denom)

    def radial_subgradient_log(self, log_x: float) -> tuple[float, float]:
        """Next round's penalty subgradient norm at radius x = e^log_x, and its slope in log x.

        The norm is c*p*x^(p-1) / (S + x^p)^(1-1/p): monotone nondecreasing
        in x and bounded above by c*p. Taking log x lets x exceed float range.
        """
        if self.c == 0.0:
            return 0.0, 0.0
        p, log_S = self.p, self.log_S
        ls = _logaddexp(log_S, p * log_x)  # log(S + x^p)
        r = math.exp(math.log(self.c * p) + (p - 1.0) * log_x - (1.0 - 1.0 / p) * ls)
        return r, r * (p - 1.0) * math.exp(log_S - ls)

    def radial_subgradient_inverse(self, y: float) -> float:
        """Radius whose subgradient norm is y; inf when y is at/above the c*p asymptote."""
        if y < 0:
            raise ValueError("subgradient norm must be nonnegative")
        if y == 0.0:
            return 0.0
        cp = self.c * self.p
        if y >= cp:
            return math.inf
        p = self.p
        q = y / cp
        # a subnormal y can underflow the ratio; take its log in two parts
        log_q = math.log(q) if q >= _FLOAT_MIN else math.log(y) - math.log(cp)
        log_r = (p / (p - 1.0)) * log_q
        # x^p = S * r / (1 - r) with r = (y/cp)^(p/(p-1))
        log_xp = self.log_S + log_r - math.log1p(-math.exp(log_r))
        return math.exp(log_xp / p)


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))

