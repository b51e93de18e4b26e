"""Relations between two runs: a symmetry of the gradients maps every iterate alike.

Negating every gradient, the true and the observed one, and the comparator
maps each player's run onto its mirror image: the clip, the filter and the
tracker read norms only, and the learners' updates are odd in the dual
accumulator. The relation is exact, bit for bit, up to the sign of a zero
(both runs start at the origin, +0.0). The oblivious streams are recorded
once and replayed negated; the sign-flip stream |w - 1| is adaptive, and its
mirror, |w + 1| with the subgradient +1 at its kink, is replayed against the
negated run.

On the recorded oblivious streams three more relations hold. Flipping the
sign of one coordinate of every gradient flips it in every iterate, bit for
bit, in every robust mode: no norm reads a sign. Permuting the coordinates
permutes every iterate, within PERMUTED of its norm (bit for bit, as
measured on Python 3.11). Scaling G and every gradient by a power of two
leaves every known_g iterate as it was: bit for bit without the penalty
([protocol] k = 0), where every step scales exactly, and within SCALED of
its norm with it (k = 5). There the link solve's Newton step reads
log L - log theta, whose two roundings do not scale: 8 of the 32 scalings
(lb_origin, at d = 1 and 3) move 178 of 9,840 iterates, by 2.1e-14 at
worst, as measured; with the step on log(L / theta) none moves.
"""

import numpy as np
import pytest

from robust_oco.adversaries import AdversarySpec, KTBettor, make_adversary
from robust_oco.protocol import MODES, ProtocolConfig, RobustProtocol

T = 400
FAR = np.array([1.0, -0.5, 0.25])  # the comparator of the streams that construct none
OBLIVIOUS = ("lb_theorem2", "lb_origin", "dro_reweight", "iid_random")
PERMUTED = 1e-12  # relative to the iterate's norm
SCALED = 1e-12


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


def recorded(kind: str, dim: int):
    """An oblivious stream's spec, comparator and (g_true, g_tilde) rounds, drawn once."""
    stream = spec(kind, dim)
    adversary = make_adversary(stream, seed=47)
    u = adversary.comparator if adversary.constructs_comparator else FAR[:dim]
    return stream, u, [adversary.round(t, None) for t in range(1, stream.T + 1)]


def mapped_runs(one, two, rounds, image):
    """one plays the rounds and two their image: (t, w, two's w, both records)."""
    for t, (g_true, g_tilde) in enumerate(rounds, 1):
        w, w_image = one.w, two.w
        record = one.round(g_tilde, g_true=g_true)
        yield t, w, w_image, (record, two.round(image(g_tilde), g_true=image(g_true)))


def relative_gap(w, w_image) -> float:
    """|w_image - w| over |w|, 0.0 for two origins."""
    gap = np.linalg.norm(np.atleast_1d(w_image) - np.atleast_1d(w))
    return gap / np.linalg.norm(np.atleast_1d(w)) if gap else 0.0


@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("algorithm, kind", [(mode, kind) for mode in MODES for kind in OBLIVIOUS])
def test_a_coordinate_sign_flip_flips_it_in_every_iterate(algorithm, kind, axis):
    flip = np.ones(3)
    flip[axis] = -1.0
    stream, u, rounds = recorded(kind, 3)
    one, two = player(algorithm, stream, u), player(algorithm, stream, flip * u)
    for t, w, w_image, (record, record_image) in mapped_runs(one, two, rounds, lambda g: flip * g):
        assert iterate_bits(w_image) == iterate_bits(flip * w), f"first differs at round {t}"
        assert iterate_bits(record) == iterate_bits(record_image), f"round {t}"


@pytest.mark.parametrize("order", [(1, 0, 2), (0, 2, 1), (1, 2, 0)])
@pytest.mark.parametrize("algorithm, kind", [(mode, kind) for mode in MODES for kind in OBLIVIOUS])
def test_a_coordinate_permutation_permutes_every_iterate(algorithm, kind, order):
    order = list(order)
    stream, u, rounds = recorded(kind, 3)
    one, two = player(algorithm, stream, u), player(algorithm, stream, u[order])
    moved = 0
    for t, w, w_image, (record, record_image) in mapped_runs(
            one, two, rounds, lambda g: g[order]):
        assert relative_gap(w[order], w_image) <= PERMUTED, f"round {t}"
        assert relative_gap(np.array(record), np.array(record_image)) <= PERMUTED, f"round {t}"
        moved += bool(np.any(w != 0.0))
    assert moved > 0


def scaled_runs(kind: str, dim: int, k: int, j: int):
    """known_g at G = 1 on the stream, and at G = 2**j on the stream scaled by 2**j."""
    stream, u, rounds = recorded(kind, dim)
    one, two = (RobustProtocol(ProtocolConfig(mode="known_g", T=stream.T, k=k, G=G, dim=dim),
                               comparator=u) for G in (1.0, 2.0**j))
    return mapped_runs(one, two, rounds, lambda g: 2.0**j * g)


SCALINGS = [(kind, dim, j) for kind in OBLIVIOUS for dim in (1, 3) for j in (1, -1, 20, -20)]


@pytest.mark.parametrize("kind, dim, j", SCALINGS)
def test_power_of_two_scaling_keeps_every_iterate_without_the_penalty(kind, dim, j):
    moved = 0
    for t, w, w_image, (record, record_image) in scaled_runs(kind, dim, 0, j):
        assert iterate_bits(w_image) == iterate_bits(w), f"first differs at round {t}"
        # the played norm stays, and every gradient norm and the threshold scale
        scaled = np.array([record[0], *(2.0**j * x for x in record[1:])])
        assert iterate_bits(record_image) == iterate_bits(scaled), f"round {t}"
        moved += bool(np.any(w != 0.0))
    assert moved > 0


@pytest.mark.parametrize("kind, dim, j", SCALINGS)
def test_power_of_two_scaling_keeps_every_iterate_near_with_the_penalty(kind, dim, j):
    for t, w, w_image, _ in scaled_runs(kind, dim, 5, j):
        assert relative_gap(w, w_image) <= SCALED, f"round {t}"

