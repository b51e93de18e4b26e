"""Doubling-threshold automata for adaptive clipping and iterate tracking.

GradientFilter maintains a clipping threshold that doubles only after k+1
observed exceedances, so a budget of k wildly corrupted gradients can never
force the threshold above 4x the true gradient bound. MagnitudeTracker
maintains a doubling estimate of the running iterate magnitude, whose
doubling rounds define the epochs used by the attenuated quadratic weights.

Both automata use constant space: no per-round sets are materialized. The
property checkers reconstruct epoch structure from externally recorded
traces instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import clip_gradient


@dataclass
class GradientFilter:
    """k-lag adaptive thresholding and clipping automaton.

    The exceedance counter resets on every doubling, and the doubling trigger
    is the (k+1)-th exceedance since the last doubling. A tie (input norm
    exactly at the threshold) counts as a pass.
    """

    k: int
    tau_G: float
    h: float = field(init=False)
    n: int = field(init=False, default=0)
    pass_rounds: int = field(init=False, default=0)
    clip_rounds: int = field(init=False, default=0)
    doublings: int = field(init=False, default=0)

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("corruption budget k must be nonnegative")
        if self.tau_G <= 0:
            raise ValueError("initial threshold tau_G must be positive")
        self.h = self.tau_G

    def step(self, g_tilde: np.ndarray, g_norm: float) -> tuple[np.ndarray, float, bool]:
        """Process one observed gradient, whose norm is g_norm.

        Returns (clipped gradient, threshold for the next round, doubled flag).
        """
        h_t = self.h
        clipped = clip_gradient(g_tilde, h_t, g_norm)
        if clipped is g_tilde:
            self.pass_rounds += 1
            return g_tilde, h_t, False
        self.clip_rounds += 1
        self.n += 1
        doubled = False
        if self.n == self.k + 1:
            self.h = 2.0 * h_t
            self.n = 0
            self.doublings += 1
            doubled = True
        return clipped, self.h, doubled


@dataclass
class MagnitudeTracker:
    """Iterate-magnitude doubling automaton defining regularization epochs."""

    tau_D: float
    z: float = field(init=False)
    epoch_index: int = field(init=False, default=0)

    def __post_init__(self):
        if self.tau_D <= 0:
            raise ValueError("initial magnitude guess tau_D must be positive")
        self.z = self.tau_D

    def step(self, w_norm: float) -> tuple[float, bool]:
        """Process one iterate norm; returns (next threshold, doubled flag).

        Doubling requires a strict exceedance; the new threshold is twice the
        triggering norm, so it is always either the old value or 2*||w_t||.
        """
        if not math.isfinite(w_norm) or w_norm < 0:
            raise ValueError(f"invalid iterate norm {w_norm}")
        if w_norm > self.z:
            self.z = 2.0 * w_norm
            self.epoch_index += 1
            return self.z, True
        return self.z, False


def check_filter_properties(
    trace,
    tau_G: float,
    k: int,
    G: float,
) -> tuple[bool, str | None]:
    """Validate a recorded GradientFilter run against its guarantees.

    trace rows are (input_norm, output_norm, h_t, h_next). Assumes the
    replayed stream satisfied the big-round budget k at gradient bound G;
    without that precondition the guarantees simply need not hold.

    Checks:
      (1) thresholds are nondecreasing and start at tau_G,
      (2) every output norm is at most the round's threshold,
      (3) the final threshold is at most max(tau_G, 4G),
      (4) clipped rounds number at most (k+1)*max(ceil(log2(8G/tau_G)), 1).
    """
    if not trace:
        return True, None
    prev_next = None
    clip_rounds = 0
    for input_norm, output_norm, h_t, h_next in trace:
        if prev_next is not None and h_t != prev_next:
            return False, "threshold_continuity"
        if h_next < h_t:
            return False, "threshold_nondecreasing"
        if output_norm > h_t * (1.0 + 1e-12):
            return False, "output_within_threshold"
        if input_norm > h_t:
            clip_rounds += 1
        prev_next = h_next
    if trace[0][2] != tau_G:
        return False, "initial_threshold"
    final_h = trace[-1][3]
    if final_h > max(tau_G, 4.0 * G) * (1.0 + 1e-12):
        return False, "final_threshold_cap"
    cap = (k + 1) * max(math.ceil(math.log2(8.0 * G / tau_G)), 1)
    if clip_rounds > cap:
        return False, "clip_round_budget"
    return True, None


def check_tracker_properties(trace, tau_D: float) -> tuple[bool, str | None]:
    """Validate a recorded MagnitudeTracker run against its guarantees.

    trace rows are (w_norm, z_t, z_next, doubled). Epochs are reconstructed
    from the doubled flags; every round must land in exactly one epoch.

    Checks:
      (1) the number of epochs is at most max(0, log2(2*max||w||/tau_D)),
      (2) within epoch 0 the norms stay at or below tau_D,
      (3) within epoch n >= 1 the norms stay at or below twice the norm at
          the epoch's opening round,
      (4) the final threshold is at most max(tau_D, 2*max||w||) and every
          update is either a hold or a doubling to 2*||w_t||.
    """
    if not trace:
        return True, None
    max_norm = max(row[0] for row in trace)
    doubles = sum(1 for row in trace if row[3])
    if max_norm > 0:
        bound = max(0.0, math.log2(2.0 * max_norm / tau_D))
        if doubles > bound + 1e-12:
            return False, "epoch_count_bound"
    elif doubles != 0:
        return False, "epoch_count_bound"

    epoch_open_norm = None  # None while still in epoch 0
    prev_next = None
    for w_norm, z_t, z_next, doubled in trace:
        if prev_next is not None and z_t != prev_next:
            return False, "threshold_continuity"
        if doubled:
            if z_next != 2.0 * w_norm:
                return False, "doubling_value"
            epoch_open_norm = w_norm
        else:
            if z_next != z_t:
                return False, "hold_value"
            if epoch_open_norm is None:
                if w_norm > tau_D:
                    return False, "epoch0_norm_bound"
            elif w_norm > 2.0 * epoch_open_norm:
                return False, "epoch_norm_bound"
        prev_next = z_next
    if trace[0][1] != tau_D:
        return False, "initial_threshold"
    if trace[-1][2] > max(tau_D, 2.0 * max_norm):
        return False, "final_threshold_cap"
    return True, None
