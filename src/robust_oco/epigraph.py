"""Epigraph-space composition for quadratic penalties with unknown gradient bound.

A d-dimensional learner and a scalar learner jointly predict a lifted point
(w, y); projecting onto the paraboloid set {y >= ||w||^2} under the weighted
metric h^2||.||^2 + gamma^2(.)^2 makes the quadratic penalty a_t ||w||^2 act
linearly through the y coordinate. An exterior prediction additionally incurs
a gradient correction along the (weighted) projection direction, which keeps
both sub-learners' feedback within their promised hint ranges. At d = 1
the lifted point, the correction and the projection are Python floats, as
the vector sub-learner's iterate is, and each function reads the form from
its input.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import check_positive, ensure_finite, kernels_of
from .mirror_descent import MirrorDescentLearner, SolverError

_PROJ_RTOL = 1e-12
_PROJ_MAX_ITER = 300
_PROJ_COLLAPSE = 4e-16  # relative bracket width of a few ulps


class EpigraphPoint(NamedTuple):
    w: np.ndarray | float  # a float in the d = 1 representation
    y: float


def weighted_project(
    point: EpigraphPoint, h: float, gamma: float, w_norm: float
) -> EpigraphPoint:
    """Minimize h^2||w - w_hat||^2 + gamma^2(y - y_hat)^2 over y >= ||w||^2.

    w_norm must be norm(point.w), which the caller already has; point.w is
    a float64 array or, in the d = 1 form, a float. Interior points are
    returned unchanged, as the same object. Boundary solutions
    lie along the input direction at radius s, the unique nonnegative root of
    s*(h^2 + 2 gamma^2 (s^2 - y_hat)) = h^2 ||w_hat||; the root is found by
    bisection (the cubic is below the target before the crossing and above it
    after, even when it dips negative first). The bisection stops when the
    residual is within 1e-12 * max(1, h^2 ||w_hat||) or the bracket has
    collapsed to a few ulps (hi - lo <= 4e-16 * hi): the residual's rounding
    error grows with the cubic term 2 gamma^2 s^3, so on well-posed input it
    can stay above the first bound at every representable radius.
    """
    if not (0.0 < h < math.inf and 0.0 < gamma < math.inf):  # NaN fails too
        raise ValueError(f"projection weights must be positive and finite: h={h}, gamma={gamma}")
    if point.y >= w_norm * w_norm:
        return point
    if w_norm == 0.0:
        # every entry of point.w is a signed zero: abs gives the origin
        return tuple.__new__(EpigraphPoint, (abs(point.w), 0.0))

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
    # clamp: feasibility holds exactly; the BLAS sum of squares, not
    # core.dot, because callers check feasibility against w @ w
    y = max(s * s, kernels_of(w).squared_norm(w))
    return tuple.__new__(EpigraphPoint, (w, y))


def correction_direction(
    hat: EpigraphPoint,
    proj: EpigraphPoint,
    h: float,
    gamma: float,
    g_clipped: np.ndarray | float,
    a_t: float,
) -> tuple[np.ndarray | float, float]:
    """Feedback correction steering an exterior prediction back toward the set.

    The direction is the weighted displacement (h^2 dw, gamma^2 dy) normalized
    to unit dual form ||.||^2/h^2 + (.)^2/gamma^2 = 1, scaled by the dual form
    of the fed pair (g_clipped, a_t). An interior prediction is its own
    projection, so its displacement, and with it the correction, is zero
    (EpigraphLearner.observe does not call this for one). The vectors are
    float64 arrays or, in the d = 1 form, floats, as for weighted_project.
    """
    kernels = kernels_of(hat.w)
    dw = hat.w - proj.w
    dy = hat.y - proj.y
    dist2 = h * h * kernels.dot(dw, dw) + gamma * gamma * dy * dy
    if dist2 == 0.0:
        return kernels.zeros(np.size(hat.w)), 0.0
    scale = kernels.dot(g_clipped, g_clipped) / (h * h) + (a_t * a_t) / (gamma * gamma)
    root = math.sqrt(dist2)
    delta_w = (scale * h * h / root) * dw
    delta_y = scale * gamma * gamma * dy / root
    return delta_w, delta_y


class EpigraphLearner:
    """Composite learner pairing a vector and a scalar sub-learner on the lift.

    The vector side is the mirror descent learner, fed hints of twice the
    clipping threshold: the magnitude bound of its corrected feedback. The
    scalar side is the same learner at d = 1 with the Huber penalty
    disabled, so in Python floats, under a constant hint of 1.5*gamma,
    exactly the magnitude bound of the corrected scalar feedback.
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
        check_positive("gamma", gamma)
        check_positive("initial threshold tau_G", tau_G)
        self.gamma = gamma
        self.learner_w = MirrorDescentLearner(
            dim, epsilon, initial_hint=2.0 * tau_G, c=c, p=p, alpha=alpha
        )
        self.learner_y = MirrorDescentLearner(1, epsilon, 1.5 * gamma, c=0.0, p=p)
        self.h = tau_G
        self._hat = tuple.__new__(EpigraphPoint, (self.learner_w.w, self.learner_y.w))
        self._played = weighted_project(self._hat, tau_G, gamma, self.learner_w.w_norm)
        # the played iterate in the learner's form (a float at d = 1), and its norm
        self.w, self.w_norm = self._played.w, self.learner_w.w_norm

    def observe(self, gradient, hint: float, a_t: float = 0.0, g_norm: float | None = None) -> None:
        """Consume one round; a_t is its quadratic penalty weight, in [0, gamma].

        The gradient is a float64 array (a float at d = 1), a list or a tuple,
        coerced on entry unless its norm is passed as g_norm, which promises it
        finite and in the learner's form, as for MirrorDescentLearner.update.
        An interior prediction is its own projection, so its correction is
        zero and is not built; adding its 0.0 still turns a -0.0 entry into
        0.0, which learner_w's dual update can tell apart where its mirror-map
        gradient holds -0.0 (a zero mirror part times a negative dual entry).
        Nothing commits until both updates, the projection and the check of
        the played point's norm have succeeded.
        """
        if not 0.0 <= a_t <= self.gamma * (1.0 + 1e-12):
            raise ValueError(f"penalty weight {a_t} outside [0, gamma {self.gamma}]")
        k = self.learner_w.kernels
        if g_norm is None:
            gradient = k.coerce(gradient, self.learner_w.dim)[0]
        delta_w = delta_y = 0.0
        if self._played is not self._hat:
            delta_w, delta_y = correction_direction(
                self._hat, self._played, self.h, self.gamma, gradient, a_t
            )
        update_w = self.learner_w.update(0.5 * (gradient + delta_w), 2.0 * hint)
        update_y = self.learner_y.update(0.5 * (a_t + delta_y), 1.5 * self.gamma)
        hat = tuple.__new__(EpigraphPoint, (update_w.w, update_y.w))
        played = weighted_project(hat, hint, self.gamma, update_w.w_norm)
        w_norm = update_w.w_norm if played is hat else k.norm(played.w)
        if not math.isfinite(w_norm):  # NaN only: a projected point stays far inside float range
            ensure_finite(np.atleast_1d(played.w), "epigraph iterate")
        self.learner_w.commit(update_w)
        self.learner_y.commit(update_y)
        self.h, self._hat, self._played = hint, hat, played
        self.w, self.w_norm = played.w, w_norm
