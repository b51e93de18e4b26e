"""The Huber-family composite regularizer and its running-sum state.

The per-round penalty is c * sigma_t(w) / S_t^(1-1/p), where sigma_t grows
like ||w||^p below the most recent iterate norm and linearly above it, and
S_t accumulates alpha^p plus the p-th powers of all iterate norms so far.
The exponent is typically p = ln(T), so p-th powers are handled in log space
throughout: direct pow() underflows for small bases and overflows for large
ones long before the quantities of interest leave float range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

_FLOAT_MIN = sys.float_info.min  # smallest normal double


@dataclass
class HuberRegularizer:
    """Running state (S_t, previous iterate norm) of the composite penalty.

    S is kept as log_S only: a sum of p-th powers soon leaves float range.
    """

    c: float
    p: float
    alpha: float
    log_S: float = field(init=False)
    last_iterate_norm: float = field(init=False, default=0.0)
    t: int = field(init=False, default=0)

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("scale c must be nonnegative")
        if self.p < 1:
            raise ValueError("power p must be at least 1")
        if self.alpha <= 0:
            raise ValueError("offset alpha must be positive")
        self.log_S = self.p * math.log(self.alpha)

    def advance(self, w_next_norm: float) -> None:
        """Fold the next iterate norm into S and remember it for sigma."""
        if not math.isfinite(w_next_norm) or w_next_norm < 0:
            raise ValueError(f"invalid iterate norm {w_next_norm}")
        if w_next_norm > 0.0:
            self.log_S = _logaddexp(self.log_S, self.p * math.log(w_next_norm))
        self.last_iterate_norm = w_next_norm
        self.t += 1

    def evaluate(self, w_norm: float) -> float:
        """Penalty value at a point of the given norm, at the current round."""
        if self.t < 1:
            raise ValueError("evaluate requires at least one advance")
        if self.c == 0.0 or w_norm == 0.0:
            return 0.0
        c, p, wt = self.c, self.p, self.last_iterate_norm
        log_denom = (1.0 - 1.0 / p) * self.log_S
        if w_norm <= wt:
            return c * math.exp(p * math.log(w_norm) - log_denom)
        # linear branch: slope continuation from the knot at ||w_t||
        lin = p * w_norm - (p - 1.0) * wt
        if wt == 0.0:
            knot = 1.0 if p == 1.0 else 0.0  # 0^(p-1) convention
            return c * lin * knot * math.exp(-log_denom)
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
        log_r = (p / (p - 1.0)) * log_q if p > 1.0 else -math.inf
        if log_r == -math.inf:
            return 0.0
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


def check_sum_bounds(
    iterate_norms,
    comparator_norm: float,
    c: float,
    alpha: float,
    T: int | None = None,
) -> tuple[bool, bool]:
    """Literal-summation check of the penalty-sum envelope at p = ln T.

    Returns (lower_ok, upper_ok):
      lower_ok:  sum_t f_t(w_t) >= c * (max_t ||w_t|| - alpha)
      upper_ok:  sum_t f_t(u)   <= 3 c ln(T) ||u|| [ln(1 + (||u||/alpha)^p) + 2]
    """
    trace = list(iterate_norms)
    if T is None:
        T = len(trace)
    if T < 3:
        raise ValueError("the envelope is stated for horizons T >= 3")
    p = math.log(T)
    reg = HuberRegularizer(c=c, p=p, alpha=alpha)
    sum_at_iterates = 0.0
    sum_at_comparator = 0.0
    for w_norm in trace:
        reg.advance(w_norm)
        sum_at_iterates += reg.evaluate(w_norm)
        sum_at_comparator += reg.evaluate(comparator_norm)

    max_norm = max(trace) if trace else 0.0
    lower_ok = sum_at_iterates >= c * (max_norm - alpha)

    u = comparator_norm
    if u == 0.0:
        log_term = 0.0
    else:
        log_term = _logaddexp(0.0, p * math.log(u / alpha))  # log(1 + (u/alpha)^p)
    upper = 3.0 * c * p * u * (log_term + 2.0)
    upper_ok = sum_at_comparator <= upper
    return lower_ok, upper_ok
