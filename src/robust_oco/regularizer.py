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
    Built, it is round 1's state, knotted at the origin the learners play first.
    c * exp(log_knot) is evaluate(last_iterate_norm), bit for bit. c lies in
    [0, inf) with c * p finite, p in (1, inf) and alpha in (0, inf); NaN fails each.
    """

    c: float
    p: float
    alpha: float
    log_S: float = field(init=False)
    last_iterate_norm: float = field(init=False, default=0.0)
    log_knot: float = field(init=False, default=-math.inf)

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"power p must be above 1 and finite, got {self.p}")
        if not 0.0 <= self.c * self.p < math.inf:
            raise ValueError(f"scale c must be nonnegative with c * p finite, got c={self.c}")
        check_positive("offset alpha", self.alpha)
        self.log_S = self.p * math.log(self.alpha)
        # the formulas' constants log(c*p) (-inf at c = 0) and 1 - 1/p, computed once
        self._log_cp = math.log(self.c * self.p) if self.c > 0.0 else -math.inf
        self._denom_power = 1.0 - 1.0 / self.p

    def advance(self, w_next_norm: float) -> None:
        """Fold the next iterate norm into S and remember it for sigma.

        With c = 0 the fold is skipped: no formula reads log_S then.
        """
        if not math.isfinite(w_next_norm) or w_next_norm < 0:
            raise ValueError(f"invalid iterate norm {w_next_norm}")
        self.log_knot = -math.inf
        if w_next_norm > 0.0 and self.c != 0.0:
            p_log_w = self.p * math.log(w_next_norm)
            self.log_S = _logaddexp(self.log_S, p_log_w)
            self.log_knot = p_log_w - self._denom_power * self.log_S
        self.last_iterate_norm = w_next_norm

    def evaluate(self, w_norm: float) -> float:
        """Penalty value at a point of the given norm, at the current round."""
        if not w_norm >= 0.0:  # NaN fails too
            raise ValueError(f"invalid iterate norm {w_norm}")
        c, p, wt = self.c, self.p, self.last_iterate_norm
        # past a knot at wt = 0 the linear branch's slope is 0^(p-1) = 0
        if c == 0.0 or w_norm == 0.0 or wt == 0.0:
            return 0.0
        log_denom = self._denom_power * self.log_S
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
        p, log_S = self.p, self.log_S
        t = p * log_x - log_S  # c = 0 gives (0.0, 0.0): log(c*p) is -inf
        if t > 0.0:  # x^p above S: the norm is c*p (1 + S/x^p)^(1/p-1), with no p log x to cancel
            l1 = math.log1p(math.exp(-t))
            r = math.exp(self._log_cp - self._denom_power * l1)
            return r, r * (p - 1.0) * math.exp(-t - l1)
        ls = _logaddexp(log_S, p * log_x)  # log(S + x^p)
        r = math.exp(self._log_cp + (p - 1.0) * log_x - self._denom_power * ls)
        return r, r * (p - 1.0) * math.exp(log_S - ls)

    def radial_subgradient_inverse(self, y: float) -> float:
        """Radius whose subgradient norm is y; inf when y is at/above the c*p asymptote."""
        if not y >= 0.0:  # NaN fails too
            raise ValueError(f"subgradient norm must be nonnegative, got {y}")
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
    hi, lo = (a, b) if a >= b else (b, a)
    if lo == -math.inf:  # hi is the sum; with both -inf, lo - hi would be NaN
        return hi
    return hi + math.log1p(math.exp(lo - hi))

