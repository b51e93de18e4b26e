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
from typing import NamedTuple

import numpy as np

from .core import NonFiniteError, OnlineLearner, as_vector, dot
from .mirror_descent import MirrorDescentLearner, SolverError

_PROJ_RTOL = 1e-12
_PROJ_MAX_ITER = 300
_PROJ_COLLAPSE = 4e-16  # relative bracket width of a few ulps


class EpigraphPoint(NamedTuple):
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


def weighted_project(
    point: EpigraphPoint, h: float, gamma: float, w_norm: float
) -> EpigraphPoint:
    """Minimize h^2||w - w_hat||^2 + gamma^2(y - y_hat)^2 over y >= ||w||^2.

    w_norm must be norm(point.w), which the caller already has. Interior
    points are returned unchanged, as the same object. Boundary solutions
    lie along the input direction at radius s, the unique nonnegative root of
    s*(h^2 + 2 gamma^2 (s^2 - y_hat)) = h^2 ||w_hat||; the root is found by
    bisection (the cubic is below the target before the crossing and above it
    after, even when it dips negative first). The bisection stops when the
    residual is within 1e-12 * max(1, h^2 ||w_hat||) or the bracket has
    collapsed to a few ulps (hi - lo <= 4e-16 * hi): the residual's rounding
    error grows with the cubic term 2 gamma^2 s^3, so on well-posed input it
    can stay above the first bound at every representable radius.
    """
    if h <= 0 or gamma <= 0:
        raise ValueError("projection weights must be positive")
    if point.y >= w_norm * w_norm:
        return point
    if w_norm == 0.0:
        return EpigraphPoint(np.zeros_like(point.w), 0.0)

    h2 = h * h
    target = h2 * w_norm
    y_hat = point.y
    two_g2 = 2.0 * gamma * gamma

    def residual(s: float) -> float:
        # kept nested: the solver count pass (perfbench/layers.py) counts
        # the calls of this code object as the projection's evaluations
        return s * (h2 + two_g2 * (s * s - y_hat)) - target

    lo, hi = 0.0, max(w_norm, math.sqrt(max(y_hat, 0.0))) + 1.0
    tol = _PROJ_RTOL * max(1.0, target)
    s = hi
    for _ in range(_PROJ_MAX_ITER):
        s = 0.5 * (lo + hi)
        r = residual(s)
        if abs(r) <= tol or hi - lo <= _PROJ_COLLAPSE * hi:
            break
        if r < 0:
            lo = s
        else:
            hi = s
    else:
        raise SolverError(
            f"epigraph projection did not converge for {point} (h={h}, gamma={gamma})"
        )

    w = (s / w_norm) * point.w
    # clamp: feasibility holds exactly; np.vdot, not core.dot, because
    # callers check feasibility against the BLAS sum of squares (w @ w)
    y = max(s * s, float(np.vdot(w, w)))
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
    of the fed pair (g_clipped, a_t). An interior prediction is its own
    projection, so its displacement, and with it the correction, is zero
    (EpigraphLearner.observe does not call this for one).
    """
    dw = hat.w - proj.w
    dy = hat.y - proj.y
    dist2 = h * h * dot(dw, dw) + gamma * gamma * dy * dy
    if dist2 == 0.0:
        return np.zeros_like(hat.w), 0.0
    scale = dot(g_clipped, g_clipped) / (h * h) + (a_t * a_t) / (gamma * gamma)
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
        p: float,
        alpha: float = 1.0,
    ):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if tau_G <= 0:
            raise ValueError("initial threshold tau_G must be positive")
        self.dim = dim
        self.gamma = gamma
        self.learner_w = MirrorDescentLearner(
            dim, epsilon, initial_hint=2.0 * tau_G, c=c, p=p, alpha=alpha
        )
        # c = 0 disables the scalar side's penalty, so its exponent is never read
        self.learner_y = MirrorDescentLearner(
            1, epsilon, initial_hint=1.5 * gamma, c=0.0, p=1.0, alpha=1.0
        )
        self.h = tau_G
        self._project()

    def _project(self) -> None:
        """Lift the sub-learners' predictions and project them onto the set."""
        self._hat = EpigraphPoint(
            self.learner_w.predict(), float(self.learner_y.predict()[0])
        )
        self._played = weighted_project(
            self._hat, self.h, self.gamma, self.learner_w.w_norm
        )

    def predict(self) -> np.ndarray:
        return self._played.w

    def observe(self, gradient: np.ndarray, hint: float, a_t: float = 0.0) -> None:
        """Consume one round; a_t is its quadratic penalty weight, at most gamma.

        An interior prediction is its own projection, so its correction is
        zero and is not built: the sub-learners get 0.5 * (g + 0.0) and
        0.5 * (a_t + 0.0), the bits the zero correction gave. The added 0.0
        turns a -0.0 entry into 0.0, which learner_w's dual update can tell
        apart where its mirror-map gradient holds -0.0 (a zero mirror part
        times a negative dual entry). learner_w coerces and checks the
        gradient; a non-finite one is reported as given, not halved.
        """
        if a_t > self.gamma * (1.0 + 1e-12):
            raise ValueError(f"penalty weight {a_t} exceeds gamma {self.gamma}")
        if self._played is self._hat:
            g_w = np.add(gradient, 0.0)
            g_w *= 0.5
            try:
                self.learner_w.observe(g_w, 2.0 * hint)
            except NonFiniteError:
                as_vector(gradient, self.dim)  # raises for the caller's vector
                raise
            self.learner_y.observe([0.5 * (a_t + 0.0)], 1.5 * self.gamma)
        else:
            g = as_vector(gradient, self.dim)
            delta_w, delta_y = correction_direction(
                self._hat, self._played, self.h, self.gamma, g, a_t
            )
            self.learner_w.observe(0.5 * (g + delta_w), 2.0 * hint)
            self.learner_y.observe([0.5 * (a_t + delta_y)], 1.5 * self.gamma)
        self.h = hint
        self._project()
