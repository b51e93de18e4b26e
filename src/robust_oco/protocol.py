"""The general corrupted-feedback protocol: clip, regularize, delegate, account.

A single round clips the observed gradient at the current threshold, feeds it
to the configured base learner, and updates the regret / decomposition
ledgers. Two wirings exist: a constant threshold equal to a known gradient
bound with the mirror descent learner, and the adaptive filter + tracker +
epigraph stack when no bound is known. Presets cover the standard parameter
choices for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import RegretLedger, as_vector, clip_gradient, ensure_finite, norm
from .epigraph import EpigraphLearner, QuadWeights
from .mirror_descent import MirrorDescentLearner
from .regularizer import HuberRegularizer
from .thresholds import GradientFilter, MagnitudeTracker

MODES = ("known_g", "unknown_g_case1", "unknown_g_case2")


@dataclass
class ProtocolConfig:
    """User-facing knobs; presets fill the derived regularization parameters.

    In the unknown-bound modes G must stay None: those code paths may never
    touch the true gradient bound, and the config enforces it.
    """

    mode: str
    T: int
    epsilon: float = 1.0
    k: int = 0
    G: float | None = None
    tau_G: float = 1.0
    p: float | None = None
    dim: int = 1

    def resolve(self) -> "ResolvedParams":
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.T < 3:
            raise ValueError("horizon T must be at least 3")
        if self.epsilon <= 0 or self.k < 0 or self.dim < 1:
            raise ValueError("epsilon must be positive, k and dim nonnegative")
        p = self.p if self.p is not None else math.log(self.T)

        if self.mode == "known_g":
            if self.G is None or self.G <= 0:
                raise ValueError("known_g mode requires a positive G")
            if self.k == 0:
                c, alpha = 0.0, 1.0  # penalty disabled; offset unused
            else:
                c, alpha = self.k * self.G, self.epsilon / self.k
            return ResolvedParams(
                uses_filter=False, G=self.G, c=c, p=p, alpha=alpha,
                tau_G=self.tau_G, tau_D=1.0, gamma_alpha=0.0, gamma_beta=0.0,
            )

        # unknown_g_case1 or unknown_g_case2
        if self.G is not None:
            raise ValueError(f"{self.mode} must not be given the gradient bound G")
        if self.tau_G <= 0:
            raise ValueError("tau_G must be positive")
        if self.mode == "unknown_g_case1":
            if self.k < 1:
                raise ValueError("unknown_g_case1 needs k >= 1 (its presets divide by k)")
            c = self.k * self.tau_G
            gamma_beta = float(self.k)
            gamma_alpha = 1.0
            tau_D = self.epsilon / self.k
        else:
            c = self.tau_G
            gamma_beta = float(self.k) ** 2
            gamma_alpha = float(self.k) + 1.0
            tau_D = 1.0
        alpha = self.epsilon * self.tau_G / c
        return ResolvedParams(
            uses_filter=True, G=None, c=c, p=p, alpha=alpha,
            tau_G=self.tau_G, tau_D=tau_D,
            gamma_alpha=gamma_alpha, gamma_beta=gamma_beta,
        )


@dataclass(frozen=True)
class ResolvedParams:
    uses_filter: bool
    G: float | None
    c: float
    p: float
    alpha: float
    tau_G: float
    tau_D: float
    gamma_alpha: float
    gamma_beta: float

    @property
    def gamma(self) -> float:
        return self.gamma_alpha + self.gamma_beta


@dataclass
class DecompositionLedger:
    """Exact four-way split of the true linear regret.

    error - correction + bias + composite reproduces the true regret as an
    algebraic identity for any regularizer sequence, so the per-round gap is
    a pure float-rounding diagnostic.
    """

    comparator: np.ndarray
    error_term: float = 0.0
    correction_term: float = 0.0
    composite_term: float = 0.0
    bias_reg_sum: float = 0.0
    _bias_grad_accum: np.ndarray = field(init=False)

    def __post_init__(self):
        self._bias_grad_accum = np.zeros_like(self.comparator)

    @property
    def bias_term(self) -> float:
        return float(np.vdot(self._bias_grad_accum, -self.comparator)) + self.bias_reg_sum

    def reconstructed_regret(self) -> float:
        return (
            self.error_term - self.correction_term
            + self.bias_term + self.composite_term
        )


class RoundRecord(NamedTuple):
    t: int
    w: np.ndarray
    g_clipped_norm: float
    h: float
    z: float
    alpha_t: float
    beta_t: float


class RobustProtocol:
    """Gradient-clipping online learner robust to a budget of corrupted rounds."""

    def __init__(self, config: ProtocolConfig, comparator=None):
        self.config = config
        self.params = params = config.resolve()
        self.comparator = (
            np.zeros(config.dim) if comparator is None
            else as_vector(comparator, config.dim)
        )
        self._comparator_norm = norm(self.comparator)
        if params.uses_filter:
            self.filter = GradientFilter(k=config.k, tau_G=params.tau_G)
            self.tracker = MagnitudeTracker(tau_D=params.tau_D)
            self.weights = QuadWeights(params.gamma_alpha, params.gamma_beta)
            self.learner = EpigraphLearner(
                config.dim, config.epsilon, params.gamma,
                params.tau_G, params.c, params.p, params.alpha,
            )
        else:
            self.filter = None
            self.tracker = None
            self.weights = None
            self.learner = MirrorDescentLearner(
                config.dim, config.epsilon, initial_hint=params.G,
                c=params.c, p=params.p, alpha=params.alpha,
            )
        # ledger-side penalty state over the *played* iterates
        self._ledger_reg = HuberRegularizer(c=params.c, p=params.p, alpha=params.alpha)
        self.regret = RegretLedger(comparator=self.comparator)
        self.decomposition = DecompositionLedger(comparator=self.comparator)
        self.t = 0

    def predict(self) -> np.ndarray:
        return self.learner.predict()

    def round(self, g_tilde, g_true=None, loss_gap=None) -> RoundRecord:
        """Play one round against the observed gradient.

        g_true and loss_gap are simulation-only oracles: when given, the
        regret ledger and the error/bias sides of the decomposition track the
        true-gradient quantities.
        """
        g_tilde = as_vector(g_tilde, self.config.dim)
        w = self.learner.predict()
        self.t += 1

        if self.params.uses_filter:
            h_t = self.filter.h
            g_clipped, h_next, filter_doubled = self.filter.step(g_tilde)
            z_next, tracker_doubled = self.tracker.step(norm(w))
            alpha_t, beta_t = self.weights.step(filter_doubled, tracker_doubled)
            self.learner.observe(g_clipped, h_next, alpha_t=alpha_t, beta_t=beta_t)
        else:
            h_t = self.params.G
            g_clipped = clip_gradient(g_tilde, h_t)
            z_next, alpha_t, beta_t = 0.0, 0.0, 0.0
            self.learner.observe(g_clipped, h_t)

        self._update_ledgers(w, g_tilde, g_clipped, alpha_t + beta_t, g_true, loss_gap)
        ensure_finite(self.learner.predict(), f"iterate after round {self.t}")
        return RoundRecord(
            t=self.t, w=w, g_clipped_norm=norm(g_clipped), h=h_t,
            z=z_next, alpha_t=alpha_t, beta_t=beta_t,
        )

    def _update_ledgers(self, w, g_tilde, g_clipped, a_t, g_true, loss_gap) -> None:
        u = self.comparator
        w_norm = norm(w)
        u_norm = self._comparator_norm
        self._ledger_reg.advance(w_norm)
        r_w = self._ledger_reg.evaluate(w_norm) + a_t * w_norm * w_norm
        r_u = self._ledger_reg.evaluate(u_norm) + a_t * u_norm * u_norm

        d = self.decomposition
        d.composite_term += float(np.vdot(g_clipped, w - u)) + r_w - r_u
        d.correction_term += r_w
        d.bias_reg_sum += r_u
        if g_true is not None:
            g_true = as_vector(g_true, self.config.dim)
            d.error_term += float(np.vdot(g_true - g_clipped, w))
            d._bias_grad_accum += g_true - g_clipped
            self.regret.update(w, g_true, g_tilde, loss_gap)

    def decomposition_gap(self) -> float:
        """Relative gap between the ledger identity and the measured regret."""
        target = self.regret.true_regret_linear
        return abs(self.decomposition.reconstructed_regret() - target) / max(
            1.0, abs(target)
        )


def online_to_batch(iterates) -> np.ndarray:
    """Uniform average of an iterate trace (the stochastic-optimization point)."""
    trace = [as_vector(x) for x in iterates]
    if not trace:
        raise ValueError("online_to_batch requires a nonempty trace")
    return np.mean(np.stack(trace, axis=0), axis=0)
