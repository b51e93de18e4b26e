"""The general corrupted-feedback protocol: clip, regularize, delegate, account.

A single round clips the observed gradient at the current threshold, feeds it
to the configured base learner, and updates the regret / decomposition
ledgers. Two wirings exist: a constant threshold equal to a known gradient
bound with the mirror descent learner, and the adaptive filter + tracker +
epigraph stack when no bound is known. The protocol validates its config,
refuses the gradient bound in the unknown-bound modes, and applies the
standard parameter presets of both wirings as it builds its parts, among
them the penalty exponent p = ln T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    RegretLedger, as_vector, as_vector_norm, clip_gradient, dot, ensure_finite, norm,
)
from .epigraph import EpigraphLearner, QuadWeights
from .mirror_descent import MirrorDescentLearner
from .regularizer import HuberRegularizer
from .thresholds import GradientFilter, MagnitudeTracker

MODES = ("known_g", "unknown_g_case1", "unknown_g_case2")


@dataclass
class ProtocolConfig:
    """User-facing knobs; RobustProtocol validates them and applies the presets.

    In the unknown-bound modes G must stay None: those code paths may never
    touch the true gradient bound, and the protocol refuses one.
    """

    mode: str
    T: int
    epsilon: float = 1.0
    k: int = 0
    G: float | None = None
    tau_G: float = 1.0
    dim: int = 1


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
    """One round's scalars: the norms of its played iterate and gradients.

    g_norm is None when the round was given no true gradient.
    """

    w_norm: float
    g_norm: float | None
    g_tilde_norm: float
    g_clipped_norm: float
    h: float
    z: float
    alpha_t: float
    beta_t: float


class RobustProtocol:
    """Gradient-clipping online learner robust to a budget of corrupted rounds."""

    def __init__(self, config: ProtocolConfig, comparator=None):
        mode, k, epsilon = config.mode, config.k, config.epsilon
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        if config.T < 3:
            raise ValueError("horizon T must be at least 3")
        if epsilon <= 0 or k < 0 or config.dim < 1:
            raise ValueError("epsilon must be positive, k nonnegative and dim at least 1")
        self.config = config
        self.G = config.G  # None in the unknown-bound modes
        p = math.log(config.T)
        if mode == "known_g":
            if self.G is None or self.G <= 0:
                raise ValueError("known_g mode requires a positive G")
            if k == 0:
                c, alpha = 0.0, 1.0  # penalty disabled; offset unused
            else:
                c, alpha = k * self.G, epsilon / k
            self.filter = None
            self.tracker = None
            self.weights = None
            self.learner = MirrorDescentLearner(
                config.dim, epsilon, initial_hint=self.G, c=c, p=p, alpha=alpha,
            )
        else:
            tau_G = config.tau_G
            if self.G is not None:
                raise ValueError(f"{mode} must not be given the gradient bound G")
            if tau_G <= 0:
                raise ValueError("tau_G must be positive")
            if mode == "unknown_g_case1":
                if k < 1:
                    raise ValueError("unknown_g_case1 needs k >= 1 (its presets divide by k)")
                c, tau_D = k * tau_G, epsilon / k
                gamma_alpha, gamma_beta = 1.0, float(k)
            else:
                c, tau_D = tau_G, 1.0
                gamma_alpha, gamma_beta = float(k) + 1.0, float(k) ** 2
            alpha = epsilon * tau_G / c
            self.filter = GradientFilter(k=k, tau_G=tau_G)
            self.tracker = MagnitudeTracker(tau_D=tau_D)
            self.weights = QuadWeights(gamma_alpha, gamma_beta)
            self.learner = EpigraphLearner(
                config.dim, epsilon, self.weights.gamma, tau_G, c, p, alpha,
            )
        # ledger-side penalty state over the *played* iterates
        self._ledger_reg = HuberRegularizer(c=c, p=p, alpha=alpha)
        self.comparator = (
            np.zeros(config.dim) if comparator is None
            else as_vector(comparator, config.dim)
        )
        self._comparator_norm = norm(self.comparator)
        # the norm of the iterate to play next, kept from the check after
        # each round
        self._w_norm = norm(self.learner.predict())
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
        g_tilde, g_tilde_norm = as_vector_norm(g_tilde, self.config.dim)
        w = self.learner.predict()
        w_norm = self._w_norm
        self.t += 1

        if self.filter is not None:
            h_t = self.filter.h
            g_clipped, h_next, filter_doubled = self.filter.step(g_tilde, g_tilde_norm)
            z_next, tracker_doubled = self.tracker.step(w_norm)
            alpha_t, beta_t = self.weights.step(filter_doubled, tracker_doubled)
            a_t = alpha_t + beta_t
            self.learner.observe(g_clipped, h_next, a_t)
        else:
            h_t = self.G
            g_clipped = clip_gradient(g_tilde, h_t, g_tilde_norm)
            z_next, alpha_t, beta_t, a_t = 0.0, 0.0, 0.0, 0.0
            self.learner.observe(g_clipped, h_t)

        g_norm = self._update_ledgers(w, w_norm, g_tilde, g_clipped, a_t, g_true, loss_gap)
        # a finite norm proves the new iterate finite; it is next round's w_norm
        w_next = self.learner.predict()
        self._w_norm = norm(w_next)
        if not math.isfinite(self._w_norm):
            ensure_finite(w_next, f"iterate after round {self.t}")
        return RoundRecord(
            w_norm=w_norm, g_norm=g_norm, g_tilde_norm=g_tilde_norm,
            g_clipped_norm=g_tilde_norm if g_clipped is g_tilde else norm(g_clipped),
            h=h_t, z=z_next, alpha_t=alpha_t, beta_t=beta_t,
        )

    def _update_ledgers(
        self, w, w_norm, g_tilde, g_clipped, a_t, g_true, loss_gap
    ) -> float | None:
        """Account the round in the ledgers; return the norm of g_true, if given."""
        u_norm = self._comparator_norm
        self._ledger_reg.advance(w_norm)
        r_w = self._ledger_reg.evaluate(w_norm) + a_t * w_norm * w_norm
        r_u = self._ledger_reg.evaluate(u_norm) + a_t * u_norm * u_norm

        d = self.decomposition
        diff = w - self.comparator
        if g_true is None:
            g_norm = None
            composite = dot(g_clipped, diff)
        else:
            g_true, g_norm = as_vector_norm(g_true, self.config.dim)
            observed = self.regret.update(diff, g_true, g_tilde, loss_gap)
            # a pass round fed the learner g_tilde itself, so the regret
            # ledger's observed increment is the composite term's product
            composite = observed if g_clipped is g_tilde else dot(g_clipped, diff)
            dg = g_true - g_clipped
            d.error_term += dot(dg, w)
            d._bias_grad_accum += dg
        d.composite_term += composite + r_w - r_u
        d.correction_term += r_w
        d.bias_reg_sum += r_u
        return g_norm

    def decomposition_gap(self) -> float:
        """Relative gap between the ledger identity and the measured regret."""
        target = self.regret.true_regret_linear
        return abs(self.decomposition.reconstructed_regret() - target) / max(
            1.0, abs(target)
        )

