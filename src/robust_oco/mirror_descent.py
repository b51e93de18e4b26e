"""Centered mirror descent with a composite Huber penalty (known-bound base learner).

The learner keeps a dual accumulator theta and maps it back to an iterate by
inverting a scalar monotone link: the radial derivative of the mirror map
plus the radial subgradient of the Huber penalty. The link is a function of
the radius alone, evaluated with its slope by one function, link_terms. Its
inversion is a safeguarded Newton iteration in log-radius space: any step
that leaves the current bracket falls back to the bracket midpoint, which
keeps the iteration count bounded even when the bracket spans hundreds of
orders of magnitude (parameter-free iterates are exponential in the dual
norm). The solve also returns the mirror part of the link at its root, which
the dual update reuses as the next round's mirror-map gradient.

One update serves every dimension: at d = 1 the iterate, the dual
accumulator and the mirror-map gradient are Python floats, above that
float64 arrays (core.kernels picks the form from dim), and the same
subtraction, scaling and norm run on either, with the bits the 1-entry
array gave. The epigraph learner's scalar side is this learner at d = 1
with the penalty off. The update computes the whole new state before
commit() assigns any of it, so an observe() that raises changes nothing.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

import numpy as np

from .core import check_positive, ensure_finite, kernels
from .regularizer import HuberRegularizer

_SOLVE_RTOL = 1e-9
_SOLVE_UTOL = 1e-10  # bound on the estimated error in log radius
_SOLVE_MAX_ITER = 200
_LOG_TINY = math.log(5e-324)
_LOG_MAX = math.log(sys.float_info.max)


class SolverError(RuntimeError):
    """The link inversion or the epigraph projection found no usable root.

    Either no representable radius solves it or the iteration did not
    converge. Raised from observe(), it leaves the learner as it was.
    """


def link_terms(
    u: float, x: float, V: float, h: float, a: float, reg: HuberRegularizer
) -> tuple[float, float, float]:
    """The link at radius x = e^u: (mirror part, penalty part, slope dL/du).

    With F = log(1 + x/a) the mirror part is 3 min over eta <= 1/h of
    F/eta + eta*V: 6*sqrt(V*F) while the unconstrained minimizer respects the
    cap, i.e. while h*sqrt(F) <= sqrt(V), and 3hF + 3V/h past that. The two
    pieces meet with equal value 6V/h and equal slope at x* = a(e^(V/h^2) - 1),
    so the radius alone picks the piece. The penalty part is the Huber radial
    subgradient.
    """
    F = math.log1p(x / a)
    sf = math.sqrt(F)
    sv = math.sqrt(V)
    xa = x / (a + x)
    r, dr = reg.radial_subgradient_log(u)
    if h * sf <= sv:
        return 6.0 * sv * sf, r, (3.0 * sv * xa / sf if sf > 0.0 else 0.0) + dr
    return 3.0 * h * F + 3.0 * V / h, r, 3.0 * h * xa + dr


def link_value(x: float, V: float, h: float, a: float, reg: HuberRegularizer) -> float:
    """The scalar link L(x) mapping an iterate radius to a dual norm."""
    if x == 0.0:
        return 0.0
    mirror, penalty, _ = link_terms(math.log(x), x, V, h, a, reg)
    return mirror + penalty


def _mirror_part_inverse(y: float, V: float, h: float, a: float) -> float:
    """Radius where the mirror part of the link alone reaches y.

    The piece is picked by y against 6V/h, the mirror part's value at x*.
    """
    if y <= 6.0 * V / h:
        q = (y / 6.0) ** 2 / V
    else:
        q = (y - 3.0 * V / h) / (3.0 * h)
    return a * math.expm1(q) if q < 709.0 else math.inf


def _bracket_end(y: float, V: float, h: float, a: float, reg: HuberRegularizer) -> float:
    """The smaller of the two summand inverses at y, each summand alone reaching y.

    At y = theta it bounds the link's root from above; at y = theta / 2 from
    below, since there the whole link is at most theta.
    """
    return min(_mirror_part_inverse(y, V, h, a), reg.radial_subgradient_inverse(y))


def _out_of_range(theta_norm: float, V: float, h: float, a: float) -> SolverError:
    return SolverError(
        f"no representable radius reaches dual norm {theta_norm} "
        f"(V={V}, h={h}, a={a}); the iterate has left float range"
    )


def link_inverse_solve(
    theta_norm: float, V: float, h: float, a: float, reg: HuberRegularizer
) -> tuple[float, float]:
    """Solve L(x) = theta_norm for the unique nonnegative radius x.

    Returns x and the link's mirror part at x, which the learner reuses. The
    residual is driven below 1e-9 * max(1, theta_norm). At p > 1 the link
    tends to 0 at the origin: no positive theta_norm is absorbed there. With
    the penalty disabled the link is the mirror part alone and inverts in
    closed form; otherwise the bracket comes from inverting each summand
    separately (_bracket_end): either summand at the full target bounds the
    root from above, and the smaller summand inverse at half the target
    bounds it from below. Newton steps on log L(u) - log theta in u = log x
    start from the upper end; a step that leaves the bracket is replaced by
    the bracket midpoint, and an upper end that rounding left short of the
    root moves up. The lower end is computed only when the first evaluation,
    at the upper end, fails the slope test: most solves converge there and
    never read it.
    """
    if theta_norm < 0:
        raise ValueError("dual norm must be nonnegative")
    if theta_norm == 0.0:
        return 0.0, 0.0

    if reg.c == 0.0:
        x = _mirror_part_inverse(theta_norm, V, h, a)
        if not math.isfinite(x):
            raise _out_of_range(theta_norm, V, h, a)
        return x, theta_norm

    hi = _bracket_end(theta_norm, V, h, a, reg)
    floor = 0.0  # a known lower bound on the root
    if hi == 0.0:
        # the upper bound underflowed: the root lies below the smallest
        # positive double and rounds to zero
        return 0.0, 0.0

    if not math.isfinite(hi):
        # neither summand alone reaches theta at a representable radius; the
        # root can still be representable because the penalty contributes up
        # to its asymptote c*p, putting the root just above the mirror-part
        # inverse at theta - c*p; past float range it leaves hi infinite
        floor = _mirror_part_inverse(max(theta_norm - reg.c * reg.p, 0.0), V, h, a)
        hi = max(floor, math.exp(reg.log_S / reg.p), 1.0)
        while math.isfinite(hi) and link_value(hi, V, h, a, reg) < theta_norm:
            hi *= 2.0
        if not math.isfinite(hi):
            raise _out_of_range(theta_norm, V, h, a)

    def link_at(u: float, x: float) -> tuple[float, float, float]:
        # kept nested: the per-layer count pass (perfbench/layers.py) counts
        # the calls of this code object as the solve's link evaluations
        return link_terms(u, x, V, h, a, reg)

    # Newton on log L(u) - log theta from the upper end; a step that leaves
    # the bracket [u_lo, u_hi] is replaced by the bracket midpoint
    tol = _SOLVE_RTOL * max(1.0, theta_norm)
    log_theta = math.log(theta_norm)
    u = u_hi = math.log(hi)
    u_lo = None  # set after the first evaluation, unless that one converges
    for _ in range(_SOLVE_MAX_ITER):
        x = math.exp(u)
        mirror, penalty, slope = link_at(u, x)
        value = mirror + penalty
        resid = value - theta_norm
        # converged when the residual is small and the root is pinned in u,
        # by the Newton error estimate or by a bracket that has collapsed
        # (the closed-form lower end is exact only in real arithmetic)
        small = abs(resid) <= tol
        if small and abs(resid) <= _SOLVE_UTOL * slope:
            return x, mirror
        if u_lo is None:
            # u_hi is still the initial upper end here
            lo = max(_bracket_end(0.5 * theta_norm, V, h, a, reg), floor)
            u_lo = math.log(lo) if lo > 0.0 else _LOG_TINY
            if u_lo > u_hi:
                u_lo = _LOG_TINY
        if small and u_hi - u_lo <= _SOLVE_UTOL:
            return x, mirror
        if resid < 0:
            u_lo = u
            if u >= u_hi:
                # rounding left the upper end short of the root: move it up
                # by a factor e and evaluate there
                if u >= _LOG_MAX:
                    raise _out_of_range(theta_norm, V, h, a)
                u = u_hi = min(u + 1.0, _LOG_MAX)
                continue
        else:
            u_hi = u
        # a flat link (slope 0) sends u_next to u_hi, forcing the midpoint
        u_next = u - (math.log(value) - log_theta) * value / slope if slope > 0.0 else u_hi
        if not u_lo < u_next < u_hi:
            u_next = 0.5 * (u_lo + u_hi)
        u = u_next
    raise SolverError(
        f"link inversion did not converge: theta={theta_norm}, V={V}, h={h}, a={a}"
    )


# one round's new learner state, computed before any of it is assigned; w
# and mirror_grad are in the learner's form, radius is the solved iterate norm
Update = namedtuple("Update", "w w_norm mirror_grad radius h C N B")


class MirrorDescentLearner:
    """Hint-driven unconstrained learner with built-in composite Huber penalty.

    Plays the origin first. Each observe() call consumes a gradient whose
    norm is at most the current hint, plus the (nondecreasing) hint for the
    next round. Setting c = 0 disables the penalty and leaves the plain
    parameter-free mirror descent update.

    The hint h bounds the next gradient's norm; C sums the squared gradient
    norms, N the same squares over the hint in force, and B adds 4N each
    round; update() derives the link's V = hint^2 + C and wealth scale a
    (from B). A round is update(), which runs every check and the solve on
    locals, then commit(), which assigns the result.

    w and mirror_grad are held in the form core.kernels(dim) picks: floats
    at d = 1, float64 arrays above, bit for bit the learner on 1-entry
    arrays at d = 1.
    """

    def __init__(
        self,
        dim: int,
        epsilon: float,
        initial_hint: float,
        c: float = 0.0,
        *,
        p: float,
        alpha: float = 1.0,
    ):
        check_positive("wealth scale epsilon", epsilon)
        check_positive("initial hint", initial_hint)
        self.epsilon = epsilon
        self.h = initial_hint
        self.C = 0.0
        self.N = 4.0
        self.B = 16.0  # 4 * N at initialization
        self._wealth_scale(self.B)  # rejects a subnormal epsilon here
        self.t = 0
        self.dim = dim
        self.kernels = kernels(dim)
        self.reg = HuberRegularizer(c=c, p=p, alpha=alpha)
        self.w = self.kernels.zeros(dim)
        self.w_norm = 0.0  # norm(self.w), kept from the check in update
        self.mirror_grad = self.kernels.zeros(dim)  # mirror-map gradient at w

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

    def observe(self, gradient, hint: float, g_norm: float | None = None) -> None:
        """Consume one gradient and the next round's hint: update, then commit."""
        self.commit(self.update(gradient, hint, g_norm))

    def update(self, gradient, hint: float, g_norm: float | None = None) -> Update:
        """The round's new state, every check and the solve run, nothing assigned.

        A caller that already holds the gradient in the learner's own form
        (a finite float at d = 1, a finite float64 vector of its dimension
        above) passes its norm as g_norm, and the coercion is skipped. The
        gradient norm must be within the hint in force, and the next hint
        finite and no smaller; the dual-magnitude budget B folds in the
        pre-update N.
        """
        k = self.kernels
        if g_norm is None:
            gradient, g_norm = k.coerce(gradient, self.dim)
        theta = self.mirror_grad - gradient
        # a NaN or Inf entry makes the norm NaN or Inf, so the entrywise
        # check only runs when it is going to fail
        theta_norm = k.norm(theta)
        if not math.isfinite(theta_norm):
            ensure_finite(np.atleast_1d(theta), "dual accumulator")
        h = self.h
        # g_norm * g_norm is bit-identical to the squared entry at d = 1
        g2 = g_norm * g_norm
        if g2 > (h * h) * (1.0 + 1e-9) + 1e-300:
            raise ValueError(f"gradient norm {g_norm} exceeds the promised hint {h}")
        if not math.isfinite(hint):
            raise ValueError(f"hint must be finite, got {hint}")
        if hint < h:
            raise ValueError(f"hints must be nondecreasing: {hint} < {h}")
        B = self.B + 4.0 * self.N
        a = self._wealth_scale(B)
        N = self.N + g2 / (h * h)
        C = self.C + g2
        V = hint * hint + C

        if theta_norm == 0.0:
            # every entry of theta is a signed zero: abs gives the origin
            w = mirror_grad = abs(theta)
            radius = w_norm = 0.0
        else:
            radius, mirror = link_inverse_solve(theta_norm, V, hint, a, self.reg)
            w = (radius / theta_norm) * theta
            mirror_grad = (mirror / theta_norm) * theta
            # as for theta: a finite norm proves the iterate finite
            w_norm = k.norm(w)
            if not math.isfinite(w_norm):
                ensure_finite(np.atleast_1d(w), "mirror descent iterate")
                raise _out_of_range(theta_norm, V, hint, a)
        return Update(w, w_norm, mirror_grad, radius, hint, C, N, B)

    def commit(self, update: Update) -> None:
        """Assign the state that update() computed and fold the new radius into the penalty."""
        if self.reg.c != 0.0:  # a penalty-free link never reads the penalty state
            self.reg.advance(update.radius)
        (self.w, self.w_norm, self.mirror_grad, _,
         self.h, self.C, self.N, self.B) = update
        self.t += 1
