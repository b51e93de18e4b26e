"""Doubling-threshold automata for adaptive clipping and iterate tracking.

GradientFilter maintains a clipping threshold that doubles only after k+1
observed exceedances, so a budget of k wildly corrupted gradients can never
force the threshold above 4x the true gradient bound; the caller clips, and
the filter counts the clips. MagnitudeTracker maintains a doubling estimate
of the running iterate magnitude, whose epoch_index the protocol's penalty
weights read.

Both automata use constant space: no per-round sets are materialized. The
property checkers in harness.checks reconstruct epoch structure from
externally recorded traces instead. A round is step(), which computes the
automaton's outputs and assigns nothing, then commit(), which moves its
state: a caller whose own round fails between the two leaves it as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import check_integer, check_positive


@dataclass
class GradientFilter:
    """k-lag adaptive thresholding automaton over the caller's clips.

    The exceedance counter resets on every doubling, and the doubling trigger
    is the (k+1)-th clip at h since the last doubling. A tie (input norm
    exactly at the threshold) is passed by the clip, so it counts as a pass.
    """

    k: int
    tau_G: float
    h: float = field(init=False)
    n: int = field(init=False, default=0)
    pass_rounds: int = field(init=False, default=0)
    clip_rounds: int = field(init=False, default=0)
    doublings: int = field(init=False, default=0)

    def __post_init__(self):
        self.k = check_integer("corruption budget k", self.k, 0)
        check_positive("initial threshold tau_G", self.tau_G)
        self.h = self.tau_G

    def step(self, clipped: bool) -> tuple[float, bool]:
        """(threshold for the next round, doubled flag) of a clip or a pass at h.

        Nothing is assigned: commit(clipped, doubled) then counts the round.
        """
        if clipped and self.n == self.k:
            return 2.0 * self.h, True
        return self.h, False

    def commit(self, clipped: bool, doubled: bool) -> None:
        """Count the round step() processed: a pass, a clip, or a doubling clip."""
        if not clipped:
            self.pass_rounds += 1
            return
        self.clip_rounds += 1
        if doubled:
            self.h = 2.0 * self.h
            self.n = 0
            self.doublings += 1
        else:
            self.n += 1


@dataclass
class MagnitudeTracker:
    """Iterate-magnitude doubling automaton defining regularization epochs."""

    tau_D: float
    z: float = field(init=False)
    epoch_index: int = field(init=False, default=0)

    def __post_init__(self):
        check_positive("initial magnitude guess tau_D", self.tau_D)
        self.z = self.tau_D

    def step(self, w_norm: float) -> tuple[float, bool]:
        """Process one iterate norm; returns (next threshold, doubled flag).

        Doubling requires a strict exceedance; the new threshold is twice the
        triggering norm, so it is always either the old value or 2*||w_t||.
        Nothing is assigned: commit(*step(w_norm)) moves the tracker.
        """
        if not math.isfinite(w_norm) or w_norm < 0:
            raise ValueError(f"invalid iterate norm {w_norm}")
        if w_norm > self.z:
            return 2.0 * w_norm, True
        return self.z, False

    def commit(self, z_next: float, doubled: bool) -> None:
        """Take the threshold step() returned, opening an epoch when it doubled."""
        self.z = z_next
        if doubled:
            self.epoch_index += 1

