"""The general corrupted-feedback protocol: clip, regularize, delegate, account.

A single round clips the observed gradient at the current threshold, feeds it
to the configured base learner, and accounts the round in the decomposition
ledger; the regret score is the caller's (the runner keeps it for every
player). The protocol keeps no bookkeeping of its own: the learner keeps the
played iterate, its norm and its penalty, the ledger the split's sums. Two
wirings exist: a constant threshold equal to a known gradient bound with the
mirror descent learner, and the adaptive filter + tracker + epigraph stack
when no bound is known; there the filter counts the clips, and the
quadratic penalty weights fire on the filter's and the tracker's doublings.

It runs on the learner's form (core.kernels(dim): a float at d = 1), and so
does w, the played point; round() coerces each gradient (an array, a list
or a float) once into that form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import NonFiniteError, check_integer, check_positive, kernels, kernels_of
from .epigraph import EpigraphLearner
from .mirror_descent import MirrorDescentLearner
from .regularizer import HuberRegularizer
from .thresholds import GradientFilter, MagnitudeTracker

MODES = ("known_g", "unknown_g_case1", "unknown_g_case2")
ALGORITHMS = ("kt_bettor",) + MODES


def check_algorithm(algorithm: str, key: str) -> None:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"{key}: unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")


@dataclass(frozen=True)
class ProtocolConfig:
    """User-facing knobs for one algorithm; RobustProtocol derives a robust mode's presets.

    Checked when built, then frozen (dataclasses.replace re-runs every rule),
    each message naming its INI key (the mode is [experiment] algorithm; T and
    dim are the [adversary] keys from_ini derives them from): a mode in
    ALGORITHMS; positive finite epsilon, tau_G and G (if given); integers
    k >= 0, dim >= 1 and T >= 1. The robust modes add T >= 3 (p = ln T must
    exceed 1), k >= 1 in unknown_g_case1, and a G in known_g alone: the
    unknown-bound modes may never touch the true gradient bound. kt_bettor
    reads only epsilon.
    """

    mode: str
    T: int
    epsilon: float = 1.0
    k: int = 0
    G: float | None = None
    tau_G: float = 1.0
    dim: int = 1

    def __post_init__(self):
        check_algorithm(self.mode, "[experiment] algorithm")
        check_positive("[protocol] epsilon", self.epsilon)
        for key, name, low in (("[protocol] k", "k", 1 if self.mode == "unknown_g_case1" else 0),
                               ("[adversary] dim", "dim", 1),
                               ("[adversary] T", "T", 3 if self.mode in MODES else 1)):
            object.__setattr__(self, name, check_integer(key, getattr(self, name), low))
        check_positive("[protocol] tau_G", self.tau_G)
        if self.G is not None:
            check_positive("[protocol] G", self.G)
        if self.mode in MODES and (self.G is None) == (self.mode == "known_g"):
            rule = "needs" if self.G is None else "must not be given"
            raise ValueError(f"[protocol] G: {self.mode} {rule} the gradient bound")


@dataclass
class DecompositionLedger:
    """Exact four-way split of the true linear regret, read off the learner's penalty.

    error - correction + bias + composite reproduces the true regret as an
    algebraic identity for any regularizer sequence, so gap() is a pure
    float-rounding diagnostic. penalty is the learner's own, which the
    ledger never advances: step() reads the played point's penalty as
    c * exp(log_knot) and evaluates the comparator's. The comparator and
    the gradient accumulator are floats in the protocol's d = 1 form. A
    round is step() on locals, which raises before anything moves, then
    commit(), which only assigns.
    """

    comparator: np.ndarray | float
    penalty: HuberRegularizer
    error_term: float = 0.0
    correction_term: float = 0.0
    composite_term: float = 0.0
    bias_reg_sum: float = 0.0
    _bias_grad_accum: np.ndarray | float = field(init=False)
    # the rounds' |g_true| + |g_clipped|, summed: a bound on each accumulator entry
    _bias_grad_bound: float = field(default=0.0, init=False)

    def __post_init__(self):
        k = kernels_of(self.comparator)
        self._dot = k.dot
        self._u_norm = k.norm(self.comparator)
        self._bias_grad_accum = k.zeros(np.size(self.comparator))

    @property
    def bias_term(self) -> float:
        return float(np.vdot(self._bias_grad_accum, -self.comparator)) + self.bias_reg_sum

    def step(self, w, w_norm, g_clipped, g_clipped_norm, a_t, g_true=None, g_norm=None) -> tuple:
        """The round's totals at the played w (norm w_norm) and penalty weight
        a_t, nothing assigned; one past float range raises NonFiniteError."""
        error, accum, bound = self.error_term, self._bias_grad_accum, self._bias_grad_bound
        if g_true is not None:
            # the norms that built the accumulator bound each entry of dg and
            # of the new accumulator: far inside float range, no sum overflows
            bound = bound + g_norm + g_clipped_norm
            if bound < 2.0**1023:
                dg = g_true - g_clipped
                accum = accum + dg
            else:  # an array's sums may overflow here, which must not warn
                with np.errstate(over="ignore"):
                    dg = g_true - g_clipped
                    accum = accum + dg
            error += self._dot(dg, w)
        u_norm, penalty = self._u_norm, self.penalty
        try:
            r_w = penalty.c * math.exp(penalty.log_knot) + a_t * w_norm * w_norm
            r_u = penalty.evaluate(u_norm) + a_t * u_norm * u_norm
        except OverflowError as exc:  # the penalty's exp past float range
            raise NonFiniteError("non-finite value in decomposition ledger") from exc
        composite = self.composite_term + (self._dot(g_clipped, w - self.comparator) + r_w - r_u)
        correction = self.correction_term + r_w
        bias_reg = self.bias_reg_sum + r_u
        if not (math.isfinite(error) and math.isfinite(composite) and math.isfinite(correction)
                and math.isfinite(bias_reg) and (bound < 2.0**1023 or np.isfinite(accum).all())):
            raise NonFiniteError("non-finite value in decomposition ledger")
        return error, accum, bound, composite, correction, bias_reg

    def commit(self, step: tuple) -> None:
        """Assign step()'s round."""
        (self.error_term, self._bias_grad_accum, self._bias_grad_bound,
         self.composite_term, self.correction_term, self.bias_reg_sum) = step

    def gap(self, true_regret: float) -> float:
        """Relative gap between the split's sum and the measured true regret."""
        split = self.error_term - self.correction_term + self.bias_term + self.composite_term
        return abs(split - true_regret) / max(1.0, abs(true_regret))


class RoundRecord(NamedTuple):
    """One round's scalars: the norms of its played iterate and gradients.

    g_norm is None when the round was given no true gradient. The fields
    after w_norm name the trace's per-round columns. A round builds it with
    tuple.__new__ in field order; any other caller may use the keywords.
    """

    w_norm: float
    g_norm: float | None
    g_tilde_norm: float
    g_clipped_norm: float
    h: float
    z: float
    alpha: float
    beta: float


class RobustProtocol:
    """Gradient-clipping online learner robust to a budget of corrupted rounds."""

    def __init__(self, config: ProtocolConfig, comparator=None):
        mode, k, epsilon = config.mode, config.k, config.epsilon
        if mode not in MODES:  # kt_bettor's config would fall through to case2's presets
            raise ValueError(f"RobustProtocol runs one of {MODES}, not {mode!r}")
        self.config = config
        self.G = config.G  # None in the unknown-bound modes
        p = math.log(config.T)
        if mode == "known_g":
            if k == 0:
                c, alpha = 0.0, 1.0  # penalty disabled; offset unused
            else:
                c, alpha = k * self.G, epsilon / k
            self.filter = None
            self.tracker = None
            self.learner = MirrorDescentLearner(
                config.dim, epsilon, initial_hint=self.G, c=c, p=p, alpha=alpha,
            )
        else:
            tau_G = config.tau_G
            if mode == "unknown_g_case1":
                c, tau_D = k * tau_G, epsilon / k
                self.gamma_alpha, self.gamma_beta = 1.0, float(k)
            else:
                c, tau_D = tau_G, 1.0
                self.gamma_alpha, self.gamma_beta = float(k) + 1.0, float(k) ** 2
            alpha = epsilon * tau_G / c
            self.filter = GradientFilter(k=k, tau_G=tau_G)
            self.tracker = MagnitudeTracker(tau_D=tau_D)
            self.learner = EpigraphLearner(
                config.dim, epsilon, self.gamma_alpha + self.gamma_beta, tau_G, c, p, alpha,
            )
        self.kernels = k = kernels(config.dim)
        u = k.zeros(config.dim) if comparator is None else comparator
        self.comparator = k.coerce(u, config.dim)[0]
        self.decomposition = DecompositionLedger(self.comparator, self.learner.penalty)
        self.t = 0

    @property
    def w(self) -> np.ndarray | float:
        """The iterate to play this round in the learner's form: a float at d = 1.

        Above d = 1 it is the learner's own array: a round replaces it and
        never writes into it, and callers must not write into it either.
        """
        return self.learner.w

    def round(self, g_tilde, g_true=None) -> RoundRecord:
        """Play one round against the observed gradient.

        g_true is a simulation-only oracle: when given, the error and bias
        sides of the decomposition track the true-gradient quantities; no
        learner reads it. Both gradients are coerced, and g_tilde clipped
        once, at G or at the filter's threshold. Every step before the
        learner's commit assigns nothing, and no commit after it can raise:
        a round that raises changes nothing.
        """
        k, dim = self.kernels, self.config.dim
        g_tilde, g_tilde_norm = k.coerce(g_tilde, dim)
        g_norm = None
        if g_true is not None:
            g_true, g_norm = k.coerce(g_true, dim)
        w, w_norm = self.learner.w, self.learner.w_norm
        h_t = self.G if self.filter is None else self.filter.h
        g_clipped = k.clip(g_tilde, h_t, g_tilde_norm)
        clipped = g_clipped is not g_tilde
        # given g_clipped's norm, the learner does not coerce the checked gradient again
        g_clipped_norm = k.norm(g_clipped) if clipped else g_tilde_norm
        d = self.decomposition

        if self.filter is None:
            z_next, alpha_t, beta_t, a_t = 0.0, 0.0, 0.0, 0.0
            step = d.step(w, w_norm, g_clipped, g_clipped_norm, a_t, g_true, g_norm)
            self.learner.observe(g_clipped, h_t, g_clipped_norm)
        else:
            h_next, filter_doubled = self.filter.step(clipped)
            z_next, tracker_doubled = self.tracker.step(w_norm)
            # gamma_alpha on each filter doubling; gamma_beta over the tracker's
            # doublings so far, this one included, so its sum stays logarithmic
            alpha_t = self.gamma_alpha if filter_doubled else 0.0
            beta_t = self.gamma_beta / (self.tracker.epoch_index + 2) if tracker_doubled else 0.0
            a_t = alpha_t + beta_t
            step = d.step(w, w_norm, g_clipped, g_clipped_norm, a_t, g_true, g_norm)
            self.learner.observe(g_clipped, h_next, a_t, g_clipped_norm)
            self.filter.commit(clipped, filter_doubled)
            self.tracker.commit(z_next, tracker_doubled)
        self.t += 1
        self._update_ledgers(step)
        return tuple.__new__(RoundRecord, (
            w_norm, g_norm, g_tilde_norm, g_clipped_norm, h_t, z_next, alpha_t, beta_t,
        ))

    def _update_ledgers(self, step: tuple) -> None:
        """Commit the round's decomposition."""
        self.decomposition.commit(step)
