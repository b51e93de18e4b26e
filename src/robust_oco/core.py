"""Shared domain types: vector kernels, gradient clipping, and the ledgers.

Vectors are measured in the Euclidean norm. Corruption experiments
intentionally drive exponential blow-ups, so any NaN/Inf is treated as a
fatal state-corruption signal rather than silently propagated.

The per-round vector kernels (norm, inner product, finiteness check, ledger
equality) never warn, on subnormal and near-overflow input alike. norm and
dot skip numpy reductions up to SMALL_DIM entries: a Python-level pass over
``tolist()`` costs a fraction of one numpy dispatch at that size.

Inside the package a d = 1 vector is a Python float and a longer one a
float64 array: kernels(dim) is the one place that picks the form, FLOAT or
ARRAY, each with the same coerce, norm, dot and clip, and the float kernels
give the bits the 1-entry array gave. The learners, the protocol, the run
loop, the adversaries and the ledgers run one code path on either form.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np


SMALL_DIM = 16  # vectors up to this size skip numpy reductions
# below this squared norm, np.vdot may have lost digits to underflow
_SQUARED_NORM_FLOOR = 1e-280
_FLOAT_MIN = sys.float_info.min  # smallest normal double


class NonFiniteError(RuntimeError):
    """A NaN or Inf entered the computation; the run is invalid."""


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float64 array, optionally checking dimension."""
    return as_vector_norm(x, dim)[0]


def as_array(x, dim: int | None = None) -> np.ndarray:
    """x as an unreduced 1-d float64 array of dim entries (any size if dim is None).

    None, which numpy reads as a NaN scalar, is a ValueError that says so.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        if x is None:
            raise ValueError("missing vector input: got None")
        v = v.reshape(1)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


def as_vector_norm(x, dim: int | None = None) -> tuple[np.ndarray, float]:
    """as_vector(x, dim) and its norm, from one reduction.

    A finite norm proves every entry finite; only a non-finite one (a NaN or
    Inf entry, or a finite vector whose norm overflows) runs the entrywise
    ensure_finite, which raises for the first and passes the second, whose
    norm is then inf.
    """
    v = as_array(x, dim)
    n = norm(v)
    if not math.isfinite(n):
        ensure_finite(v, "vector input")
    return v, n


def check_positive(name: str, value: float) -> None:
    """Every positive setting's test: raise ValueError naming it unless 0 < value < inf."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_integer(name: str, value, low: int) -> int:
    """Every integer setting's test: value as an int if it is an integer-valued real (not a
    bool) in [low, 2**53), where every integer is a float; else ValueError naming it."""
    if (isinstance(value, (int, numbers.Real)) and not isinstance(value, bool)  # int skips the ABC
            and low <= value < 2**53 and value == int(value)):
        return int(value)
    raise ValueError(f"{name} must be an integer in [{low}, 2**53), got {value!r}")


def ensure_finite(x, context: str) -> None:
    """Abort with a diagnostic if any entry of x is NaN or Inf.

    Per-round callers run it only after a norm came out non-finite: a finite
    norm already proves every entry finite, and a non-finite one decides
    nothing (the norm of a finite [1.7e308, 1.7e308] overflows).
    """
    arr = np.asarray(x)
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite value in {context}: {arr!r}")


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, exact to a few ulps and never warning.

    Up to SMALL_DIM entries this is math.hypot, which scales internally and
    is within one ulp over the whole float range, subnormals included.
    Larger vectors, where one numpy reduction costs less than a Python-level
    pass, take np.vdot: unlike np.dot, np.inner and @, it does not warn on
    overflow, at the same cost. Its square root is used when the squared
    norm s is finite and above 1e-280, where underflowed squares shift s by
    at most d * 2**-1074; otherwise they take math.hypot too. Either way the
    relative error is at most (d/2 + 2) * 2**-53, plus one subnormal unit
    when the norm is subnormal. A NaN or Inf entry gives NaN or Inf, and a
    finite vector whose norm exceeds the float range gives Inf, also when
    it does so by less than an ulp.
    """
    if v.size > SMALL_DIM:
        s = float(np.vdot(v, v))
        if math.isfinite(s) and s > _SQUARED_NORM_FLOOR:
            return math.sqrt(s)
    return math.hypot(*v.tolist())


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two vectors of equal size, as a Python float.

    Up to SMALL_DIM entries Python's sum() adds the products, within
    d * 2**-53 * sum(|a_i b_i|) of the exact value and, at d = 1, equal to
    np.vdot up to the sign of a zero; above that it is np.vdot (which never
    warns). math.fsum is not used: it raises on overflow. Here a sum past
    float range gives +-inf and a NaN entry gives NaN, so callers'
    finiteness checks see the failure.
    """
    if a.size <= SMALL_DIM:
        return sum(map(operator.mul, a.tolist(), b.tolist()))
    return float(np.vdot(a, b))


def clip_gradient(g_tilde: np.ndarray, h: float, g_norm: float) -> np.ndarray:
    """Rescale g_tilde, whose norm is g_norm, to norm at most h, preserving direction.

    g_norm must be norm(g_tilde), which the caller already has. An input of
    norm at most h, the zero vector included, is returned itself, not a
    copy, so a caller can tell a pass from a clip by identity.
    When the scale h/n would underflow, or the norm n of a finite input
    overflows, the direction is normalised by the largest magnitude first,
    so the result still has norm h, not 0.
    Rescaling repeats if rounding leaves the result an ulp above the
    threshold (subnormal entries step toward zero one unit at a time), so
    clipping is exactly idempotent and the result never exceeds h.
    """
    if not h > 0.0:  # NaN fails too
        raise ValueError(f"clipping threshold must be positive, got {h}")
    if g_norm <= h:
        return g_tilde
    return _rescale(
        g_tilde, h, g_norm, norm, lambda v: float(np.max(np.abs(v))), np.nextafter
    )


def _rescale(g, h: float, n: float, norm, max_abs, nextafter):
    """clip_gradient's rescaling of g, of norm n > h, in either representation.

    norm, max_abs and nextafter are the representation's own: for a float
    they are abs, abs and math.nextafter, the bits the 1-entry array gave.
    """
    scale = h / n
    if scale < _FLOAT_MIN:
        u = g / max_abs(g)
        out = u * (h / norm(u))
    else:
        out = g * scale
    n = norm(out)
    while n > h:
        out_next = out * (h / n)
        n_next = norm(out_next)
        if n_next >= n:
            # subnormal entries can round back to themselves: step each one
            # toward zero instead, so the loop always terminates
            out_next = nextafter(out, 0.0)
            n_next = norm(out_next)
        out, n = out_next, n_next
    return out


def _coerce_float(x, dim: int) -> tuple[float, float]:
    """x as a float, with its norm; anything but a float passes as_vector_norm's checks."""
    v = x if type(x) is float else as_array(x, dim).item()
    n = abs(v)
    if not math.isfinite(n):
        as_vector_norm(x, dim)  # raises as the array coercion does
    return v, n


def _clip_float(g: float, h: float, g_norm: float) -> float:
    if not h > 0.0:
        raise ValueError(f"clipping threshold must be positive, got {h}")
    if g_norm <= h:
        return g
    return _rescale(g, h, g_norm, abs, abs, math.nextafter)


# The per-round kernels of one representation. squared_norm is the BLAS sum
# of squares a caller's v @ v gives; same_shape(u, a, b, c) checks that a
# round's vectors match the comparator u.
Kernels = namedtuple("Kernels", "coerce zeros norm dot squared_norm clip same_shape")

# float64 arrays: the form above d = 1, and of any array a caller hands a
# ledger; norm and clip look the module functions up per call, so a tracer
# that rebinds them here sees every call
ARRAY = Kernels(
    coerce=as_vector_norm,
    zeros=np.zeros,
    norm=lambda v: norm(v),
    dot=dot,
    squared_norm=lambda v: float(np.vdot(v, v)),
    clip=lambda g, h, g_norm: clip_gradient(g, h, g_norm),
    same_shape=lambda u, a, b, c: a.shape == u.shape == b.shape == c.shape,
)

# Python floats, the d = 1 representation, with the bits the 1-entry array
# gave: hypot of one entry is abs, sum() from int 0 turned a -0.0 product
# into 0.0 as adding 0.0 does, np.vdot of one entry is x * x, and the clip
# steps with math.nextafter
FLOAT = Kernels(
    coerce=_coerce_float,
    zeros=lambda dim: 0.0,
    norm=abs,
    dot=lambda a, b: a * b + 0.0,
    squared_norm=lambda x: x * x,
    clip=_clip_float,
    same_shape=lambda u, a, b, c: True,
)


def kernels(dim: int) -> Kernels:
    """The representation of a dim-vector inside the package: the one choice of it.

    A 1-vector is a float (FLOAT), anything longer a float64 array (ARRAY).
    """
    return FLOAT if dim == 1 else ARRAY


def kernels_of(v) -> Kernels:
    """The kernels of a vector already in one of the two forms: FLOAT for a float."""
    return FLOAT if type(v) is float else ARRAY


@dataclass
class CorruptionLedger:
    """Running corruption-budget accounting for a (true, observed) pair stream.

    big_rounds counts rounds whose deviation reaches the Lipschitz bound G;
    deviation_sum accumulates min(deviation, G). Both are dominated by
    count_corrupted: big_rounds <= count_corrupted and
    deviation_sum / G <= count_corrupted hold after every update.
    """

    lipschitz_G: float
    count_corrupted: int = 0
    big_rounds: int = 0
    deviation_sum: float = 0.0

    def __post_init__(self):
        check_positive("lipschitz_G", self.lipschitz_G)

    def update(self, g_true: np.ndarray | float, g_tilde: np.ndarray | float) -> bool:
        """Account one round; return True when it was corrupted (g_tilde != g_true).

        Equality is entrywise float equality (-0.0 equals 0.0, NaN equals
        nothing) of equal 1-d shapes, as np.array_equal; a float pair is a
        pair of 1-entry arrays. The deviation is the norm of the entrywise
        difference, where an equal entry, an equal pair of infinities
        included, contributes 0; it is inf (a big round, adding G) when an
        unequal entry is NaN or Inf or a difference overflows. A finite
        inner product of a pair of equal shapes proves every entry finite
        and every difference within float range, so the pair is subtracted
        once and a zero deviation means equal. Any other pair is compared,
        and its differences taken, in Python floats, which never warn.
        """
        if type(g_true) is float:
            if g_true == g_tilde:
                return False
            dev = abs(g_true - g_tilde)
        elif (
            g_true.shape == g_tilde.shape
            and math.isfinite(float(np.vdot(g_true, g_tilde)))
        ):
            dev = norm(g_true - g_tilde)
            if dev == 0.0:
                return False
        else:
            true, tilde = g_true.tolist(), g_tilde.tolist()
            if true == tilde:
                return False
            diff = [x - y if x != y else 0.0 for x, y in zip(true, tilde, strict=True)]
            dev = norm(np.array(diff))
        if math.isnan(dev):  # a NaN entry, and no Inf difference
            dev = math.inf
        self.count_corrupted += 1
        if dev >= self.lipschitz_G:
            self.big_rounds += 1
        self.deviation_sum += min(dev, self.lipschitz_G)
        return True


@dataclass
class RegretLedger:
    """Cumulative linearized regret against a fixed comparator.

    true_regret_linear uses the true gradients, observed_regret_linear the
    corrupted ones. A round whose regret totals would leave float range
    raises NonFiniteError and leaves both totals unchanged.
    The comparator and every vector of a round share one representation: a
    float (the protocol's d = 1 form) or float64 arrays of equal shape. A
    round in another form raises ValueError naming each form, before either
    total moves.
    """

    comparator: np.ndarray | float
    true_regret_linear: float = 0.0
    observed_regret_linear: float = 0.0

    def __post_init__(self):
        self._kernels = kernels_of(self.comparator)

    def update(
        self,
        diff: np.ndarray | float,
        g_true: np.ndarray | float,
        g_observed: np.ndarray | float,
    ) -> None:
        """Account one round; diff is the played point minus the comparator."""
        k = self._kernels
        try:  # a round in the wrong form fails here, at no cost to a good round
            same = k.same_shape(self.comparator, diff, g_true, g_observed)
            if same:
                # a non-finite increment makes its total non-finite too
                true_total = self.true_regret_linear + k.dot(g_true, diff)
                observed_total = self.observed_regret_linear + k.dot(g_observed, diff)
                finite = math.isfinite(true_total) and math.isfinite(observed_total)
        except (AttributeError, TypeError):
            same = False
        if not same:
            forms = (f"{type(x).__name__} {np.shape(x)}"
                     for x in (self.comparator, diff, g_true, g_observed))
            raise ValueError("regret ledger round in the wrong form: comparator {}, "
                             "w - u {}, g {}, g_obs {}".format(*forms))
        if not finite:
            raise NonFiniteError(
                f"non-finite value in regret ledger: true {true_total}, "
                f"observed {observed_total}"
            )
        self.true_regret_linear = true_total
        self.observed_regret_linear = observed_total

