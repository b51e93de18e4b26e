"""Epigraph-space composition for quadratic penalties with unknown gradient bound.

A d-dimensional learner and a scalar learner jointly predict a lifted point
(w, y); projecting onto the paraboloid set {y >= ||w||^2} under the weighted
metric h^2||.||^2 + gamma^2(.)^2 makes the quadratic penalty a_t ||w||^2 act
linearly through the y coordinate. An exterior prediction additionally incurs
a gradient correction along the (weighted) projection direction, which keeps
both sub-learners' feedback within their promised hint ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import OnlineLearner, as_vector, norm
from .mirror_descent import MirrorDescentLearner, SolverError

_PROJ_RTOL = 1e-12
_PROJ_MAX_ITER = 300


@dataclass(frozen=True)
class EpigraphPoint:
    w: np.ndarray
    y: float


@dataclass
class QuadWeights:
    """Event-driven quadratic penalty weights.

    The clipping-threshold weight fires at full strength gamma_alpha on every
    filter doubling; the magnitude weight gamma_beta is attenuated by the
    running count of tracker doublings (including the current round's), so
    its total stays logarithmic in the iterate growth.
    """

    gamma_alpha: float
    gamma_beta: float
    beta_denominator: int = field(init=False, default=1)

    def __post_init__(self):
        if self.gamma_alpha < 0 or self.gamma_beta < 0:
            raise ValueError("penalty weights must be nonnegative")

    @property
    def gamma(self) -> float:
        return self.gamma_alpha + self.gamma_beta

    def step(self, filter_doubled: bool, tracker_doubled: bool) -> tuple[float, float]:
        alpha_t = self.gamma_alpha if filter_doubled else 0.0
        if tracker_doubled:
            self.beta_denominator += 1
            beta_t = self.gamma_beta / self.beta_denominator
        else:
            beta_t = 0.0
        return alpha_t, beta_t

    def reset(self) -> None:
        self.beta_denominator = 1


def weighted_project(point: EpigraphPoint, h: float, gamma: float) -> EpigraphPoint:
    """Minimize h^2||w - w_hat||^2 + gamma^2(y - y_hat)^2 over y >= ||w||^2.

    Interior points are returned unchanged. Boundary solutions lie along the
    input direction at radius s, the unique nonnegative root of
    s*(h^2 + 2 gamma^2 (s^2 - y_hat)) = h^2 ||w_hat||; the root is found by
    bisection (the cubic is below the target before the crossing and above it
    after, even when it dips negative first).
    """
    if h <= 0 or gamma <= 0:
        raise ValueError("projection weights must be positive")
    nw = norm(point.w)
    if point.y >= nw * nw:
        return point
    if nw == 0.0:
        return EpigraphPoint(np.zeros_like(point.w), 0.0)

    target = h * h * nw
    y_hat = point.y
    two_g2 = 2.0 * gamma * gamma

    def residual(s: float) -> float:
        return s * (h * h + two_g2 * (s * s - y_hat)) - target

    lo, hi = 0.0, max(nw, math.sqrt(max(y_hat, 0.0))) + 1.0
    tol = _PROJ_RTOL * max(1.0, target)
    s = hi
    for _ in range(_PROJ_MAX_ITER):
        s = 0.5 * (lo + hi)
        r = residual(s)
        if abs(r) <= tol:
            break
        if r < 0:
            lo = s
        else:
            hi = s
    else:
        raise SolverError(f"epigraph projection did not converge for {point}")

    w = (s / nw) * point.w
    y = max(s * s, float(np.vdot(w, w)))  # clamp: feasibility holds exactly
    return EpigraphPoint(w, y)


def correction_direction(
    hat: EpigraphPoint,
    proj: EpigraphPoint,
    h: float,
    gamma: float,
    g_clipped: np.ndarray,
    a_t: float,
) -> tuple[np.ndarray, float]:
    """Feedback correction steering an exterior prediction back toward the set.

    The direction is the weighted displacement (h^2 dw, gamma^2 dy) normalized
    to unit dual form ||.||^2/h^2 + (.)^2/gamma^2 = 1, scaled by the dual form
    of the fed pair (g_clipped, a_t). Interior predictions need no correction.
    """
    nw = norm(hat.w)
    if hat.y >= nw * nw:
        return np.zeros_like(hat.w), 0.0
    dw = hat.w - proj.w
    dy = hat.y - proj.y
    dist2 = h * h * float(np.vdot(dw, dw)) + gamma * gamma * dy * dy
    if dist2 == 0.0:
        return np.zeros_like(hat.w), 0.0
    scale = float(np.vdot(g_clipped, g_clipped)) / (h * h) + (a_t * a_t) / (gamma * gamma)
    root = math.sqrt(dist2)
    delta_w = (scale * h * h / root) * dw
    delta_y = scale * gamma * gamma * dy / root
    return delta_w, delta_y


class EpigraphLearner(OnlineLearner):
    """Composite learner pairing a vector and a scalar sub-learner on the lift.

    The scalar side reuses the mirror descent learner with its Huber penalty
    disabled and a constant hint of 1.5*gamma, which is exactly the magnitude
    bound of the corrected scalar feedback. The vector side receives hints of
    twice the clipping threshold for the same reason.
    """

    def __init__(
        self,
        dim: int,
        epsilon: float,
        gamma: float,
        tau_G: float,
        c: float,
        p: float | None = None,
        alpha: float = 1.0,
    ):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if tau_G <= 0:
            raise ValueError("initial threshold tau_G must be positive")
        self.dim = dim
        self.gamma = gamma
        self.tau_G = tau_G
        self.learner_w = MirrorDescentLearner(
            dim, epsilon, initial_hint=2.0 * tau_G, c=c, p=p, alpha=alpha
        )
        self.learner_y = MirrorDescentLearner(
            1, epsilon, initial_hint=1.5 * gamma, c=0.0, p=p, alpha=1.0
        )
        self.h = tau_G
        self._hat: EpigraphPoint | None = None
        self._played: EpigraphPoint | None = None

    def _refresh(self) -> EpigraphPoint:
        if self._played is None:
            hat = EpigraphPoint(
                self.learner_w.predict(), float(self.learner_y.predict()[0])
            )
            self._hat = hat
            self._played = weighted_project(hat, self.h, self.gamma)
        return self._played

    def predict(self) -> np.ndarray:
        return self._refresh().w.copy()

    def played_point(self) -> EpigraphPoint:
        """The feasible lifted point backing the current prediction."""
        return self._refresh()

    def observe(
        self,
        gradient: np.ndarray,
        hint: float,
        alpha_t: float = 0.0,
        beta_t: float = 0.0,
    ) -> None:
        g = as_vector(gradient, self.dim)
        a_t = alpha_t + beta_t
        if a_t > self.gamma * (1.0 + 1e-12):
            raise ValueError(f"penalty weight {a_t} exceeds gamma {self.gamma}")
        proj = self._refresh()
        delta_w, delta_y = correction_direction(
            self._hat, proj, self.h, self.gamma, g, a_t
        )
        self.learner_w.observe(0.5 * (g + delta_w), 2.0 * hint)
        self.learner_y.observe(
            np.array([0.5 * (a_t + delta_y)]), 1.5 * self.gamma
        )
        self.h = hint
        self._hat = None
        self._played = None

    def reset(self) -> None:
        self.learner_w.reset()
        self.learner_y.reset()
        self.h = self.tau_G
        self._hat = None
        self._played = None
