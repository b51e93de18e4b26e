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
the dual update reuses as the next round's mirror-map gradient, and its
root's offset from the bracket's upper end in log radius, which moves so
smoothly on a long horizon that the learner extrapolates its next start.

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

from .core import check_integer, check_positive, ensure_finite, kernels
from .regularizer import HuberRegularizer

_SOLVE_RTOL = 1e-9
_SOLVE_UTOL = 1e-10  # bound on the estimated error in log radius
# one Newton step from the upper end reaches a root closer than this: no warm start
_WARM_OFFSET = -math.sqrt(_SOLVE_UTOL)
_SOLVE_MAX_ITER = 200
_NO_OFFSETS = (0.0, 0.0, 0.0)  # no warm offsets before the last one
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
    if F > _LOG_MAX:  # x/a past float range, where log1p(x/a) - F < a/x
        F = u - math.log(a)
    sf = math.sqrt(F)
    sv = math.sqrt(V)
    xa = x / (a + x)
    r, dr = reg.radial_subgradient_log(u)
    if h * sf <= sv:
        if F < 2.2250738585072014e-308:  # a subnormal x/a holds few bits: sqrt(F) from logs
            sf = math.exp(0.5 * (u - math.log(a)))
            return 6.0 * sv * sf, r, 3.0 * sv * sf + dr
        return 6.0 * sv * sf, r, 3.0 * sv * xa / sf + dr
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
        q = (y / 6.0) * (y / 6.0) / V  # a product: ** 2 is libm's pow, not correctly rounded
    else:
        q = (y - 3.0 * V / h) / (3.0 * h)
    if q < 709.0:
        return a * math.expm1(q)
    log_x = math.log(a) + q  # a*(e^q - 1) is e^(log a + q) to within e^-709
    return math.exp(log_x) if log_x <= _LOG_MAX else math.inf


def _out_of_range(theta_norm: float, V: float, h: float, a: float) -> SolverError:
    return SolverError(
        f"no representable radius reaches dual norm {theta_norm} "
        f"(V={V}, h={h}, a={a}); the iterate has left float range"
    )


def link_inverse_solve(
    theta_norm: float, V: float, h: float, a: float, reg: HuberRegularizer,
    offset: float = 0.0,
) -> tuple[float, float, float]:
    """Solve L(x) = theta_norm for the unique nonnegative radius x.

    Returns x, the link's mirror part at x (the learner reuses it) and the
    offset log x - log(upper end), from which the learner predicts its next
    start: 0.0 if a cold solve ran no Newton step, one Newton step past a
    warm start that passes at its first evaluation. At p > 1 no positive
    theta_norm is absorbed at the origin. Without the penalty the link is
    the mirror part, inverted in closed form. Otherwise the smaller of the
    summand inverses, the mirror part's M and the penalty's P, bounds the
    root from above at theta and from below at theta / 2. A cold solve with
    M finite and positive evaluates at M and computes P only if the penalty
    part there exceeds theta / 2: it grows with x, so else P lies above M,
    far beyond either inverse's rounding. Newton steps on log L(u) - log
    theta in u = log x start at the upper end or, when the bracket is finite
    and offset is below -sqrt(1e-10), at the upper end plus offset (at least
    the smallest positive double). A step that leaves the bracket goes to
    its midpoint, except that a warm start's first step past the unread
    upper end goes to it; an upper end that rounding left short of the root
    moves up. The lower end is computed only when the first evaluation fails
    the slope test above the root (a warm start below it is the lower end):
    most cold solves converge at the upper end and never read it. An iterate
    returns when its residual is within 1e-9 * max(1, theta_norm) and the
    root is pinned: in u, by the Newton error estimate or a bracket
    collapsed below 1e-10 (the closed-form lower end is exact only in
    reals), or in x, by repeating the last radius (a subnormal root). Once
    no step moves u, or after 200 iterations, a bracket closed to two
    neighbouring doubles in x returns the one with the smaller |residual|;
    any other bracket raises.
    """
    if not theta_norm >= 0.0:  # NaN fails too
        raise ValueError(f"dual norm must be nonnegative, got {theta_norm}")
    if theta_norm == 0.0:
        return 0.0, 0.0, 0.0

    if reg.c == 0.0:
        x = _mirror_part_inverse(theta_norm, V, h, a)
        if not math.isfinite(x):
            raise _out_of_range(theta_norm, V, h, a)
        return x, theta_norm, 0.0

    def link_at(u: float, x: float) -> tuple[float, float, float]:
        # kept nested: the per-layer count pass (perfbench/layers.py) counts
        # the calls of this code object as the solve's link evaluations
        return link_terms(u, x, V, h, a, reg)

    hi = _mirror_part_inverse(theta_norm, V, h, a)
    warm = offset < _WARM_OFFSET
    first = None  # a cold solve's evaluation at M, its loop's first if M stays the upper end
    if not warm and 0.0 < hi < math.inf:
        u = math.log(hi)
        x = math.exp(u)
        first = link_at(u, x)
    if first is None or first[1] > 0.5 * theta_norm:
        top = reg.radial_subgradient_inverse(theta_norm)
        if top < hi:
            hi, first = top, None
    floor = 0.0  # a known lower bound on the root
    if hi == 0.0:  # M or P underflowed: the root rounds to zero, below the smallest double
        return 0.0, 0.0, 0.0

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
        warm = False  # the doubling search is not the bracket the offset was taken in

    tol = _SOLVE_RTOL * max(1.0, theta_norm)
    log_theta = math.log(theta_norm)
    u = u_top = u_hi = math.log(hi) if first is None else u
    if warm:
        u = max(u + offset, _LOG_TINY)
    u_lo = None  # set after the first evaluation, unless that one converges
    x_prev = None
    for _ in range(_SOLVE_MAX_ITER):
        x = math.exp(u) if first is None else x  # the evaluation at M has its x
        (mirror, penalty, slope), first = first or link_at(u, x), None
        value = mirror + penalty
        resid = value - theta_norm
        small = abs(resid) <= tol
        if small and (abs(resid) <= _SOLVE_UTOL * slope or x == x_prev):
            if warm and x_prev is None and value > 0.0 and slope > 0.0:  # refine the offset
                u -= (math.log(value) - log_theta) * value / slope
            return x, mirror, u - u_top
        x_prev = x
        if u_lo is None and warm and resid < 0:
            u_lo = u  # a warm start below the root is the lower end
        elif u_lo is None:
            lo = max(min(_mirror_part_inverse(0.5 * theta_norm, V, h, a),
                         reg.radial_subgradient_inverse(0.5 * theta_norm)), floor)
            u_lo = math.log(lo) if lo > 0.0 else _LOG_TINY
        if small and u_hi - u_lo <= _SOLVE_UTOL:
            return x, mirror, u - u_top
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
        if warm and u_next >= u_hi == u_top:
            # a warm start below the root steps past the upper end, which no
            # evaluation has read: go there once, as a cold solve starts
            u_next, warm = u_hi, False
        elif not u_lo < u_next < u_hi:
            u_next = 0.5 * (u_lo + u_hi)
            if u_next == u and not small:  # the bracket has collapsed: no step moves u
                break
        u = u_next
    ends = (math.exp(u_lo), math.exp(u_hi))
    if ends[1] <= math.nextafter(ends[0], math.inf):
        x = min(ends, key=lambda y: abs(link_value(y, V, h, a, reg) - theta_norm))
        u = math.log(x)
        return x, link_terms(u, x, V, h, a, reg)[0], u - u_top
    raise SolverError(
        f"link inversion did not converge: theta={theta_norm}, V={V}, h={h}, a={a}"
    )


# one round's new learner state, computed before any of it is assigned; w
# and mirror_grad are in the learner's form, radius is the solved iterate norm.
# It, RoundRecord and EpigraphPoint are built by tuple.__new__, a C call, in field order
Update = namedtuple("Update", "w w_norm mirror_grad radius h C N B root_offset earlier_offsets")


class MirrorDescentLearner:
    """Hint-driven unconstrained learner with built-in composite Huber penalty.

    Plays the origin first. Each observe() call consumes a gradient whose
    norm is at most the current hint, plus the (nondecreasing) hint for the
    next round. Setting c = 0 disables the penalty and leaves the plain
    parameter-free mirror descent update. penalty is the HuberRegularizer
    the link reads and the played point pays, advanced with each solved radius.

    The hint h bounds the next gradient's norm; C sums the squared gradient
    norms, N the same squares over the hint in force, and B adds 4N each
    round; update() derives the link's V = hint^2 + C and wealth scale a
    (from B). root_offset o1 is the last solve's root offset and
    earlier_offsets the warm ones before it since the last cold start,
    newest first, zero-padded to three; the next solve (link_inverse_solve)
    starts at 4(o1 + o3) - 6 o2 - o4 when all four are warm, else at o1. A
    round is update(), which runs every check and the solve on locals, then
    commit(), which assigns the result.

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
        self.dim = dim = check_integer("dim", dim, 1)
        self.kernels = kernels(dim)
        self.penalty = HuberRegularizer(c=c, p=p, alpha=alpha)
        self.w = self.kernels.zeros(dim)
        self.w_norm = 0.0  # norm(self.w), kept from the check in update
        self.mirror_grad = self.kernels.zeros(dim)  # mirror-map gradient at w
        self.root_offset = 0.0
        self.earlier_offsets = _NO_OFFSETS

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
            root_offset, earlier = self.root_offset, self.earlier_offsets
        else:
            start = o1 = self.root_offset
            earlier = _NO_OFFSETS  # a cold start ends the run of warm offsets
            if o1 < _WARM_OFFSET:
                o2, o3, o4 = self.earlier_offsets
                if o4 < _WARM_OFFSET:  # filled newest first: four warm solves in a row
                    start = 4.0 * (o1 + o3) - 6.0 * o2 - o4
                earlier = (o1, o2, o3)
            radius, mirror, root_offset = link_inverse_solve(
                theta_norm, V, hint, a, self.penalty, start)
            w = (radius / theta_norm) * theta
            mirror_grad = (mirror / theta_norm) * theta
            # as for theta: a finite norm proves the iterate finite
            w_norm = k.norm(w)
            if not math.isfinite(w_norm):
                ensure_finite(np.atleast_1d(w), "mirror descent iterate")
                raise _out_of_range(theta_norm, V, hint, a)
        return tuple.__new__(
            Update, (w, w_norm, mirror_grad, radius, hint, C, N, B, root_offset, earlier))

    def commit(self, update: Update) -> None:
        """Assign the state that update() computed and fold the new radius into the penalty."""
        if self.penalty.c != 0.0:  # a penalty-free link never reads the penalty state
            self.penalty.advance(update.radius)
        (self.w, self.w_norm, self.mirror_grad, _,
         self.h, self.C, self.N, self.B, self.root_offset, self.earlier_offsets) = update
        self.t += 1
