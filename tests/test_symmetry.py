"""Exact relations between two runs: reflecting every gradient reflects every iterate.

Negating every gradient, the true and the observed one, and the comparator
maps each player's run onto its mirror image: the clip, the filter and the
tracker read norms only, and the learners' updates are odd in the dual
accumulator. The relation is exact, bit for bit, up to the sign of a zero
(both runs start at the origin, +0.0). The oblivious streams are recorded
once and replayed negated; the sign-flip stream |w - 1| is adaptive, and its
mirror, |w + 1| with the subgradient +1 at its kink, is replayed against the
negated run.
"""

import numpy as np
import pytest

from robust_oco.adversaries import AdversarySpec, KTBettor, make_adversary
from robust_oco.protocol import MODES, ProtocolConfig, RobustProtocol

T = 400
FAR = np.array([1.0, -0.5, 0.25])  # the comparator of the streams that construct none


def iterate_bits(w) -> bytes:
    """The iterate's bytes with a -0.0 entry read as +0.0."""
    return (np.atleast_1d(np.asarray(w, dtype=np.float64)) + 0.0).tobytes()


def spec(kind: str, dim: int) -> AdversarySpec:
    if kind == "sign_flip_window":
        return AdversarySpec(kind=kind, T=T, k=20, window_start=300)
    if kind == "lb_origin":  # its comparator 2 e^T caps its horizon
        return AdversarySpec(kind=kind, T=30, k=5, dim=dim)
    if kind == "iid_random":
        return AdversarySpec(kind=kind, T=T, dim=dim)
    return AdversarySpec(kind=kind, T=T, k=10, dim=dim, G=0.5)


def player(algorithm: str, stream: AdversarySpec, comparator):
    if algorithm == "kt_bettor":
        return KTBettor(1.0)
    config = ProtocolConfig(mode=algorithm, T=stream.T, k=max(stream.budget, 1),
                            G=1.0 if algorithm == "known_g" else None, dim=stream.dim)
    return RobustProtocol(config, comparator=comparator)


def reflected_runs(algorithm: str, kind: str, dim: int):
    """The run and its mirror, round by round: (t, w, mirrored w, records)."""
    stream = spec(kind, dim)
    adversary = make_adversary(stream, seed=47)
    u = adversary.comparator if adversary.constructs_comparator else FAR[:dim]
    one, two = player(algorithm, stream, u), player(algorithm, stream, -np.asarray(u))
    for t in range(1, stream.T + 1):
        w, w_mirror = one.w, two.w
        if kind == "sign_flip_window":
            g_true, g_tilde = adversary.round(t, w)
            mirror = -1.0 if w_mirror < -1.0 else 1.0  # the gradient of |w + 1|
            flipped = -mirror if t in adversary.flipped else mirror
        else:
            g_true, g_tilde = adversary.round(t, None)
            mirror, flipped = -np.asarray(g_true), -np.asarray(g_tilde)
        records = one.round(g_tilde, g_true=g_true), two.round(flipped, g_true=mirror)
        yield t, w, w_mirror, records


CASES = (
    [(mode, kind, dim) for mode in MODES for dim in (1, 3)
     for kind in ("lb_theorem2", "lb_origin", "dro_reweight", "iid_random")]
    + [(mode, "sign_flip_window", 1) for mode in MODES]
    + [("kt_bettor", kind, 1) for kind in ("lb_theorem2", "iid_random", "sign_flip_window")]
)


@pytest.mark.parametrize("algorithm, kind, dim", CASES)
def test_negated_gradients_negate_every_iterate(algorithm, kind, dim):
    moved = 0
    for t, w, w_mirror, (record, record_mirror) in reflected_runs(algorithm, kind, dim):
        assert iterate_bits(w_mirror) == iterate_bits(-np.asarray(w)), f"first differs at round {t}"
        # the round's norms, thresholds and penalty weights are the same
        assert iterate_bits(record) == iterate_bits(record_mirror), f"round {t}"
        moved += bool(np.any(np.asarray(w) != 0.0))
    assert moved > 0  # the run left the origin, so the relation was tested
