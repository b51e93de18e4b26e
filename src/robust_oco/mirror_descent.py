"""Centered mirror descent with a composite Huber penalty (known-bound base learner).

The learner keeps a dual accumulator theta and maps it back to an iterate by
inverting a scalar monotone link: the radial derivative of the mirror map
plus the radial subgradient of the Huber penalty. The link inversion is a
safeguarded Newton iteration in log-radius space: the link and its slope are
closed form, and any step that leaves the current bracket falls back to the
bracket midpoint, which keeps the iteration count bounded even when the
bracket spans hundreds of orders of magnitude (parameter-free iterates are
exponential in the dual norm).
"""

from __future__ import annotations

import math

import numpy as np

from .core import OnlineLearner, as_vector, ensure_finite, norm
from .regularizer import HuberRegularizer

DEFAULT_POWER = math.log(1e6)  # fallback exponent when no horizon is declared

_SOLVE_RTOL = 1e-9
_SOLVE_UTOL = 1e-10  # bound on the estimated error in log radius
_SOLVE_MAX_ITER = 200
_LOG_TINY = math.log(5e-324)


class SolverError(RuntimeError):
    """The monotone link inversion failed to converge; state is corrupt."""


def psi_prime(x: float, V: float, h: float, a: float) -> float:
    """Radial derivative of the mirror map: min over eta <= 1/h of F/eta + eta*V.

    With F = log(1 + x/a) the unconstrained minimum 2*sqrt(V*F) applies while
    its minimizer respects eta <= 1/h, i.e. while h*sqrt(F) <= sqrt(V); past
    that the constraint binds and the value is h*F + V/h. Continuous and
    nondecreasing in x.
    """
    if x < 0:
        raise ValueError("radius must be nonnegative")
    F = math.log1p(x / a)
    if h * math.sqrt(F) <= math.sqrt(V):
        return 2.0 * math.sqrt(V * F)
    return h * F + V / h


def branch_threshold(V: float, h: float, a: float, reg: HuberRegularizer) -> float:
    """Dual-norm value at which the link switches from its root to its linear form.

    The switch point is x* = a*(exp(V/h^2) - 1); the threshold is the link
    value there, 6V/h + R(x*), with R evaluated in log space because x*
    overflows a double once V/h^2 passes ~700.
    """
    z = V / (h * h)  # >= 1 since V >= h^2
    log_x_star = math.log(a) + z + math.log1p(-math.exp(-z))
    return 6.0 * V / h + reg.radial_subgradient_log(log_x_star)


def link_value(
    x: float, V: float, h: float, a: float, reg: HuberRegularizer, low_branch: bool
) -> float:
    """The scalar link L(x) mapping an iterate radius to a dual norm."""
    F = math.log1p(x / a)
    r = reg.radial_subgradient(x)
    if low_branch:
        return 6.0 * math.sqrt(V * F) + r
    return 3.0 * h * F + 3.0 * V / h + r


def _mirror_part_inverse(
    y: float, V: float, h: float, a: float, low_branch: bool
) -> float:
    """Radius where the mirror-map summand of the link alone reaches y."""
    if low_branch:
        q = (y / 6.0) ** 2 / V
    else:
        q = (y - 3.0 * V / h) / (3.0 * h)
        if q <= 0.0:
            return 0.0
    try:
        return a * math.expm1(q) if q < 709.0 else math.inf
    except OverflowError:
        return math.inf


def link_inverse_solve(
    theta_norm: float, V: float, h: float, a: float, reg: HuberRegularizer
) -> float:
    """Solve L(x) = theta_norm for the unique nonnegative radius x.

    The residual is driven below 1e-9 * max(1, theta_norm). With the penalty
    disabled the link is the mirror-map part alone and inverts in closed
    form; otherwise the bracket comes from inverting each summand
    separately: either summand at the full target bounds the root from
    above, and the smaller summand inverse at half the target bounds it from
    below (there the whole link is at most the target). Newton steps on
    log L(u) - log theta in u = log x start from the upper end; a step that
    leaves the bracket is replaced by the bracket midpoint.
    """
    if theta_norm < 0:
        raise ValueError("dual norm must be nonnegative")
    if theta_norm == 0.0:
        return 0.0
    threshold = branch_threshold(V, h, a, reg)
    low_branch = theta_norm <= threshold

    if reg.c == 0.0:
        x = _mirror_part_inverse(theta_norm, V, h, a, low_branch)
        if not math.isfinite(x):
            raise SolverError(
                f"no representable radius reaches dual norm {theta_norm}"
            )
        return x

    if low_branch:
        # subgradient absorption at the origin: only possible at p = 1 where
        # the penalty slope jumps to c immediately
        r0 = reg.c if reg.p == 1.0 else 0.0
        if theta_norm <= r0:
            return 0.0

    hi = min(
        _mirror_part_inverse(theta_norm, V, h, a, low_branch),
        reg.radial_subgradient_inverse(theta_norm),
    )
    lo = min(
        _mirror_part_inverse(0.5 * theta_norm, V, h, a, low_branch),
        reg.radial_subgradient_inverse(0.5 * theta_norm),
    )
    if not math.isfinite(lo):
        lo = 0.0
    if hi == 0.0:
        # the upper bound underflowed: the root lies below the smallest
        # positive double and rounds to zero
        return 0.0

    if not math.isfinite(hi):
        # neither summand alone reaches theta at a representable radius; the
        # root can still be representable because the penalty contributes up
        # to its asymptote c*p, putting the root just above the mirror-part
        # inverse at theta - c*p
        floor = _mirror_part_inverse(
            max(theta_norm - reg.c * reg.p, 0.0), V, h, a, low_branch
        )
        if not math.isfinite(floor):
            raise SolverError(
                f"no representable radius reaches dual norm {theta_norm} "
                f"(V={V}, h={h}, a={a}); the iterate has left float range"
            )
        lo = max(lo, floor)
        hi = max(floor, math.exp(reg.log_S / reg.p), 1.0)
        for _ in range(1100):
            if link_value(hi, V, h, a, reg, low_branch) >= theta_norm:
                break
            hi *= 2.0
    else:
        # the closed-form bracket is exact in reals; absorb rounding slack
        while math.isfinite(hi) and link_value(hi, V, h, a, reg, low_branch) < theta_norm:
            hi *= 2.0
    if not math.isfinite(hi):
        raise SolverError(
            f"no representable radius reaches dual norm {theta_norm} "
            f"(V={V}, h={h}, a={a}); the iterate has left float range"
        )

    # link value and slope dL/du in log-radius space, constants hoisted
    p, log_S = reg.p, reg.log_S
    log_cp = math.log(reg.c * p)
    pm1, om = p - 1.0, 1.0 - 1.0 / p
    six_sqrt_v = 6.0 * math.sqrt(V)
    three_sqrt_v = 3.0 * math.sqrt(V)
    three_h = 3.0 * h
    lin_base = 3.0 * V / h
    log, log1p, exp, sqrt = math.log, math.log1p, math.exp, math.sqrt

    def link_at(u: float, x: float) -> tuple[float, float]:
        # ls = log(S + x^p); S / (S + x^p) = exp(log_S - ls)
        pu = p * u
        ls = log_S + log1p(exp(pu - log_S)) if pu <= log_S else (
            pu + log1p(exp(log_S - pu))
        )
        r = exp(log_cp + pm1 * u - om * ls)
        dr = r * pm1 * exp(log_S - ls)
        F = log1p(x / a)
        xa = x / (a + x)
        if low_branch:
            sf = sqrt(F)
            mirror_slope = three_sqrt_v * xa / sf if sf > 0.0 else 0.0
            return six_sqrt_v * sf + r, mirror_slope + dr
        return three_h * F + lin_base + r, three_h * xa + dr

    # Newton on log L(u) - log theta from the upper end; a step that leaves
    # the bracket [u_lo, u_hi] is replaced by the bracket midpoint
    tol = _SOLVE_RTOL * max(1.0, theta_norm)
    log_theta = math.log(theta_norm)
    u_lo = math.log(lo) if lo > 0.0 else _LOG_TINY
    u_hi = math.log(hi)
    if u_lo > u_hi:
        u_lo = _LOG_TINY
    u = u_hi
    for _ in range(_SOLVE_MAX_ITER):
        x = math.exp(u)
        value, slope = link_at(u, x)
        resid = value - theta_norm
        # converged when the residual is small and the root is pinned in u,
        # by the Newton error estimate or by a bracket that has collapsed
        # (the closed-form lower end is exact only in real arithmetic)
        if abs(resid) <= tol and (
            abs(resid) <= _SOLVE_UTOL * slope or u_hi - u_lo <= _SOLVE_UTOL
        ):
            return x
        if resid < 0:
            u_lo = u
        else:
            u_hi = u
        # a flat link (slope 0) sends u_next to u_hi, forcing the midpoint
        u_next = u - (log(value) - log_theta) * value / slope if slope > 0.0 else u_hi
        if not u_lo < u_next < u_hi:
            u_next = 0.5 * (u_lo + u_hi)
        u = u_next
    raise SolverError(
        f"link inversion did not converge: theta={theta_norm}, V={V}, h={h}, a={a}"
    )


class MirrorDescentLearner(OnlineLearner):
    """Hint-driven unconstrained learner with built-in composite Huber penalty.

    Plays the origin first. Each observe() call consumes a gradient whose
    norm is at most the current hint, plus the (nondecreasing) hint for the
    next round. Setting c = 0 disables the penalty and leaves the plain
    parameter-free mirror descent update.
    """

    def __init__(
        self,
        dim: int,
        epsilon: float,
        initial_hint: float,
        c: float = 0.0,
        p: float | None = None,
        alpha: float = 1.0,
    ):
        if epsilon <= 0:
            raise ValueError("wealth scale epsilon must be positive")
        if initial_hint <= 0:
            raise ValueError("initial hint must be positive")
        self.dim = dim
        self.epsilon = epsilon
        self.initial_hint = initial_hint
        self._reg_params = (c, p if p is not None else DEFAULT_POWER, alpha)
        self.reset()

    def reset(self) -> None:
        c, p, alpha = self._reg_params
        self.reg = HuberRegularizer(c=c, p=p, alpha=alpha)
        self.theta = np.zeros(self.dim)
        self.w = np.zeros(self.dim)
        self.h = self.initial_hint
        self.C = 0.0
        self.N = 4.0
        self.B = 16.0  # 4 * N at initialization
        self.V = self.h * self.h + self.C
        self.a = self._wealth_scale(self.B)
        self.t = 0

    def _wealth_scale(self, B: float) -> float:
        """The scale a = epsilon / (sqrt(B) ln(B)^2) inside the mirror map's log.

        Raises ValueError when a underflows to 0 (the link takes log(a)): at
        construction for a subnormal epsilon, or later as B grows.
        """
        ln_b = max(math.log(B), 1.0)
        a = self.epsilon / (math.sqrt(B) * ln_b * ln_b)
        if a == 0.0:
            raise ValueError(
                f"mirror descent wealth scale underflows to 0 at epsilon="
                f"{self.epsilon}, B={B}; epsilon is too small"
            )
        return a

    def _grad_psi(self) -> np.ndarray:
        n = norm(self.w)
        if n == 0.0:
            return np.zeros(self.dim)
        return (3.0 * psi_prime(n, self.V, self.h, self.a) / n) * self.w

    def predict(self) -> np.ndarray:
        return self.w.copy()

    def observe(self, gradient: np.ndarray, hint: float) -> None:
        g = as_vector(gradient, self.dim)
        # from the exact norm: no overflow warning, and g_norm * g_norm is
        # bit-identical to the squared entry at d = 1
        g_norm = norm(g)
        g2 = g_norm * g_norm
        if g2 > (self.h * self.h) * (1.0 + 1e-9) + 1e-300:
            raise ValueError(
                f"gradient norm {g_norm} exceeds the promised hint {self.h}"
            )
        if hint < self.h:
            raise ValueError(f"hints must be nondecreasing: {hint} < {self.h}")

        theta = self._grad_psi() - g
        # a NaN or Inf entry makes the norm NaN or Inf, so the entrywise
        # check only runs when it is going to fail
        theta_norm = norm(theta)
        if not math.isfinite(theta_norm):
            ensure_finite(theta, "dual accumulator")

        # scalar bookkeeping: the dual-magnitude budget B folds in the
        # pre-update normalized sum N; the wealth scale is checked first so a
        # failure leaves the state unchanged
        B = self.B + 4.0 * self.N
        self.a = self._wealth_scale(B)
        self.B = B
        self.N += g2 / (self.h * self.h)
        self.C += g2
        self.h = hint
        self.V = self.h * self.h + self.C

        if theta_norm == 0.0:
            w_next = np.zeros(self.dim)
            radius = 0.0
        else:
            radius = link_inverse_solve(theta_norm, self.V, self.h, self.a, self.reg)
            w_next = (radius / theta_norm) * theta

        ensure_finite(w_next, "mirror descent iterate")
        self.theta = theta
        self.w = w_next
        self.reg.advance(radius)
        self.t += 1
