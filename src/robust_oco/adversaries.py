"""Gradient-stream generators and the fragile wealth-based baseline learner.

Interactive adversaries receive the played iterate before emitting the round's
(true, observed) gradient pair; the lower-bound constructions are oblivious
and pre-materialized. A stream's AdversarySpec checks its kind's rules and
declares the corruption budget the stream satisfies, so the harness configures
protocols without building it; each kind's class in STREAMS declares its gradient bound.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .core import FLOAT, NonFiniteError, check_integer, check_positive
from .protocol import RoundRecord

Vector = np.ndarray | float  # a dim-vector in the package's form: a float at dim = 1
_NORM_BLOCK = 256  # rows of an iid draw squared at a time to take their norms


@dataclass(frozen=True)
class AdversarySpec:
    """Declarative description of a gradient stream, serializable by the harness.

    No run or sweep reads seed: the runner passes its own seed to make_adversary.

    Checked when built, then frozen: a known kind; integers T >= 1, k >= 0,
    window_start >= 0 and dim >= 1; positive finite G and epsilon; finite D.
    Per kind: sign_flip_window needs D = 1, dim = 1 and its window inside T;
    lb_theorem2 k < T; lb_origin T <= LBOriginAdversary.MAX_T, k <= T and a
    finite comparator 2*epsilon*e^T; dro_reweight T >= 2k; iid_random k = 0.
    """

    kind: str
    T: int
    k: int = 0
    window_start: int = 1
    D: float = 1.0
    seed: int = 0
    dim: int = 1
    G: float = 1.0
    epsilon: float = 1.0

    def __post_init__(self):
        if self.kind not in STREAMS:
            raise ValueError(f"[adversary] kind: unknown adversary kind {self.kind!r}")
        for name, low in (("T", 1), ("k", 0), ("window_start", 0), ("dim", 1)):
            object.__setattr__(self, name, check_integer(
                f"[adversary] {name}", getattr(self, name), low))
        check_positive("[adversary] G", self.G)
        check_positive("[adversary] epsilon", self.epsilon)
        if not math.isfinite(self.D):
            raise ValueError(f"[adversary] D must be finite, got {self.D}")
        kind, T, k = self.kind, self.T, self.k
        if kind == "sign_flip_window" and self.D != 1.0:  # the stream is |w - 1|
            raise ValueError(f"[adversary] D: sign_flip_window is centred at 1, not at {self.D}")
        if kind == "sign_flip_window" and self.dim != 1:
            raise ValueError(f"[adversary] dim = {self.dim}: sign_flip_window is one-dimensional")
        if kind == "sign_flip_window" and k > 0 and not 1 <= self.window_start <= T - k + 1:
            raise ValueError(f"[adversary] window_start: the corruption window must fit inside "
                             f"the horizon, so 1 to {T - k + 1}; got {self.window_start}")
        if kind == "lb_theorem2" and k >= T:
            raise ValueError("[adversary] k: the budget must be smaller than the horizon T")
        if kind == "lb_origin" and T > LBOriginAdversary.MAX_T:
            raise ValueError(
                f"[adversary] T = {T} exceeds the overflow guard {LBOriginAdversary.MAX_T}")
        if kind == "lb_origin" and k > T:
            raise ValueError("[adversary] k: the budget cannot exceed the horizon T")
        if kind == "lb_origin" and math.isinf(2.0 * self.epsilon * math.exp(T)):
            raise ValueError(
                f"[adversary] epsilon {self.epsilon} overflows the comparator 2*epsilon*e^{T}")
        if kind == "dro_reweight" and T < 2 * k:
            raise ValueError("[adversary] k: the reweighting construction needs T >= 2k")
        if kind == "iid_random" and k != 0:  # the stream corrupts nothing
            raise ValueError(f"[adversary] k: iid_random is uncorrupted, so k must be 0, got {k}")

    @property
    def budget(self) -> int:
        """The stream's corruption budget: reweighting k rounds deviates by up to 2k."""
        return 2 * self.k if self.kind == "dro_reweight" else self.k


class Adversary(ABC):
    """One corrupted gradient stream, built as cls(spec, seed) from a checked spec of its kind."""

    comparator: np.ndarray | None = None
    constructs_comparator = True  # False for a class whose streams leave comparator None
    lipschitz_bound: float = 1.0

    @abstractmethod
    def round(self, t: int, w: Vector) -> tuple[Vector, Vector]:
        """Return (g_true, g_observed) for round t (1-indexed), in the form of w."""

    def loss_gap(self, w: Vector, u: Vector) -> float:
        """Per-round loss difference l(w) - l(u); 0.0 for a stream without a loss."""
        return 0.0


class SignFlipAdversary(Adversary):
    """Absolute-loss stream |w - 1| with the observed sign flipped in a window.

    The subgradient at the kink w = 1 is fixed to -1 so runs are reproducible.
    """

    def __init__(self, spec: AdversarySpec, seed):
        self.flipped = range(spec.window_start, spec.window_start + spec.k)
        self.comparator = np.array([1.0])

    def round(self, t, w):
        g = 1.0 if w > 1.0 else -1.0
        return g, (-g if t in self.flipped else g)

    def loss_gap(self, w, u):
        return abs(w - 1.0) - abs(u - 1.0)


class IIDRandomAdversary(Adversary):
    """Uncorrupted stream of random gradients drawn from the radius-G ball."""

    constructs_comparator = False

    def __init__(self, spec: AdversarySpec, seed):
        T, G = spec.T, spec.G
        rng = np.random.default_rng(seed)
        directions = rng.standard_normal((T, spec.dim))
        # row norms as np.linalg.norm takes them, sqrt(add.reduce(x * x,
        # axis=1)), bit for bit, but squaring _NORM_BLOCK rows at a time:
        # the draw, its normalisation and the kept stream are one (T, dim)
        # array, and no temporary is larger than one block of it
        norms = np.empty((T, 1))
        squares = np.empty_like(directions[:_NORM_BLOCK])
        for start in range(0, T, _NORM_BLOCK):
            block = directions[start:start + _NORM_BLOCK]
            rows = np.multiply(block, block, out=squares[:block.shape[0]])
            np.add.reduce(rows, axis=1, keepdims=True, out=norms[start:start + _NORM_BLOCK])
        np.sqrt(norms, out=norms)
        norms[norms == 0.0] = 1.0
        radii = G * rng.uniform(0.0, 1.0, size=(T, 1))
        directions /= norms
        directions *= radii
        self._g = _stream(directions)
        self.lipschitz_bound = G

    def round(self, t, w):
        g = self._g[t - 1]
        return g, g


class LBTheorem2Adversary(Adversary):
    """Matched lower-bound stream: k zeroed-out rounds aligned against random signs.

    The observed stream hides the first k gradients (reports zero); the true
    gradients there all point along the sign of the remaining random-sign sum,
    making the constructed comparator pay D per hidden round in expectation.
    Ties of the random-sign sum break toward +1.
    """

    def __init__(self, spec: AdversarySpec, seed):
        rng = np.random.default_rng(seed)
        z_tail = rng.integers(0, 2, size=spec.T - spec.k) * 2 - 1
        tail_sign = 1.0 if z_tail.sum() >= 0 else -1.0
        z = np.concatenate([np.full(spec.k, tail_sign), z_tail.astype(np.float64)])
        q = np.zeros(spec.dim)
        q[0] = 1.0
        g = z[:, None] * q[None, :]
        g_tilde = g.copy()
        g_tilde[:spec.k] = 0.0
        self._g, self._g_tilde = _stream(g), _stream(g_tilde)
        self.comparator = -spec.D * tail_sign * q

    def round(self, t, w):
        return self._g[t - 1], self._g_tilde[t - 1]


class LBOriginAdversary(Adversary):
    """Log-factor lower-bound stream built around an exponentially far comparator.

    The observed stream is the constant first basis vector; on the last k
    rounds the true gradient subtracts the unit comparator direction. The
    comparator magnitude 2*epsilon*e^T overflows quickly, hence the spec's
    hard horizon cap.
    """

    MAX_T = 30

    def __init__(self, spec: AdversarySpec, seed):
        e1 = np.zeros(spec.dim)
        e1[0] = 1.0
        g_tilde = np.tile(e1, (spec.T, 1))
        g = g_tilde.copy()
        g[spec.T - spec.k:] -= e1  # unit comparator direction equals e1
        self._g, self._g_tilde = _stream(g), _stream(g_tilde)
        self.comparator = 2.0 * spec.epsilon * math.exp(spec.T) * e1

    def round(self, t, w):
        return self._g[t - 1], self._g_tilde[t - 1]


class DROReweightAdversary(IIDRandomAdversary):
    """The iid stream with importance-reweighting corruption: observed gradients are (p_t/q_t) g_t.

    The weight vector boosts k random coordinates to 2/T and shaves the rest,
    keeping total variation to uniform exactly k/T; the normalized deviation
    budget of the emitted stream is then at most 2k.
    """

    def __init__(self, spec: AdversarySpec, seed):
        # one splittable root stream: independent child streams for the
        # gradients and the reweighting draw
        gradient_stream, weight_stream = np.random.default_rng(seed).spawn(2)
        super().__init__(spec, gradient_stream)
        T, k = spec.T, spec.k
        rng = np.random.default_rng(weight_stream)
        weights = np.full(T, 1.0 / T)
        if k > 0:
            boosted = rng.choice(T, size=k, replace=False)
            weights[:] = 1.0 / T - k / (T * (T - k))
            weights[boosted] = 2.0 / T
        self.weights = weights
        self._scale = (weights * T).tolist()  # p_t / q_t, one float per round

    def round(self, t, w):
        g = self._g[t - 1]
        return g, self._scale[t - 1] * g


def _stream(g: np.ndarray) -> np.ndarray | list[float]:
    """A (T, dim) stream in the package's form: at dim = 1 its column's floats, bit for bit."""
    return g[:, 0].tolist() if g.shape[1] == 1 else g


STREAMS: dict[str, type[Adversary]] = {
    "sign_flip_window": SignFlipAdversary,
    "lb_theorem2": LBTheorem2Adversary,
    "lb_origin": LBOriginAdversary,
    "dro_reweight": DROReweightAdversary,
    "iid_random": IIDRandomAdversary,
}


def make_adversary(spec: AdversarySpec, seed: int | None = None) -> Adversary:
    """Instantiate the stream described by spec, optionally overriding its seed."""
    return STREAMS[spec.kind](spec, spec.seed if seed is None else seed)


class KTBettor:
    """Classical wealth-based parameter-free learner (the fragile baseline).

    Bets a fraction of accumulated wealth proportional to the sign average of
    past gradients. Requires |g| <= 1; the wealth stays positive under that
    contract and going nonpositive is treated as a hard error.

    It is also a player under the protocol's round contract (g_true
    required). It sees the observed gradient unclipped and has no
    regularizer, so it has no regret split (decomposition is None) and
    keeps no ledger: the runner keeps its score. It runs on floats: w is
    a float, and observe() admits each gradient as one.
    """

    decomposition = None

    def __init__(self, epsilon: float = 1.0):
        check_positive("initial wealth epsilon", epsilon)
        self.epsilon = epsilon
        self.sum_neg_grad = 0.0
        self.reward = 0.0
        self.t = 0
        self.w = 0.0

    def observe(self, gradient, g_norm: float | None = None) -> None:
        """Consume one gradient, admitted as a float unless its norm is given.

        A caller that passes g_norm promises a finite float, as for
        MirrorDescentLearner.update. The round, its iterate checked finite,
        is computed on locals and assigned last, so a raise moves nothing.
        """
        if g_norm is None:
            gradient, g_norm = FLOAT.coerce(gradient, 1)
        if g_norm > 1.0 + 1e-12:
            raise ValueError(f"KT bettor requires |g| <= 1, got {gradient}")
        reward = self.reward + -gradient * self.w
        sum_neg_grad = self.sum_neg_grad + -gradient
        t = self.t + 1
        wealth = self.epsilon + reward
        if wealth <= 0.0:
            raise RuntimeError(f"KT wealth went nonpositive ({wealth}) at t={t}")
        w = sum_neg_grad / (t + 1) * wealth
        if not -math.inf < w < math.inf:
            raise NonFiniteError(f"non-finite value in KT iterate at t={t}: {w}")
        self.reward, self.sum_neg_grad, self.t, self.w = reward, sum_neg_grad, t, w

    def round(self, g_tilde, g_true) -> RoundRecord:
        """One round: both gradients are coerced before observe() moves anything."""
        w = self.w  # the played scalar; its norm is |w|
        g_tilde, g_tilde_norm = FLOAT.coerce(g_tilde, 1)
        g_true, g_norm = FLOAT.coerce(g_true, 1)
        self.observe(g_tilde, g_tilde_norm)
        return tuple.__new__(RoundRecord, (
            abs(w), g_norm, g_tilde_norm, g_tilde_norm, 0.0, 0.0, 0.0, 0.0,
        ))
