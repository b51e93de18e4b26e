"""Sample the link inversion over wide parameter spans and tally how each solve ends.

    python3 tools/link_sampler.py

Draws every parameter of SAMPLES = 300,000 solves with
``numpy.random.default_rng(0)``: the wealth scale a = e^U(-700, 10), the
dual norm theta = e^U(-745, 700), the hint h = e^U(-20, 20),
V = h^2 e^U(0, 20), the penalty's c = e^U(-20, 40), p = 1 + e^U(-3, 5)
and alpha = e^U(-700, 700), then 0 to 3 advances of the penalty with radii
e^U(-700, 700). Each draw runs one ``link_inverse_solve``
under a tracer that records the lines of that function it executes.

Prints how many solves left at each exit line (a return, or the line that
raised, with the error's first words); how many cold solves read the
penalty's inverse P after their first evaluation, at the mirror part's
inverse M (their penalty part there exceeded theta / 2), and how many of
those restarted from a smaller P (7,932 and 7,895 of them, 4,750 at an
underflowed P of 0); then every line of the function that fewer than 1%
of the solves ran, with its count. Then every solve that raised is
checked at 50 digits: a raise where the link reaches theta at a
representable radius is a failure of the solve. They are counted, and the
first SHOW = 5 are printed with their inputs and their 50-digit roots. The
roots come from ``tests/link_oracle.py``, the oracle the solver's tests
use. Two populations of returns are checked against their roots, each by
its worst relative error over its normal roots: the first ORACLE = 2,000
solves that returned a positive radius, and the first ORACLE whose offset
lies below ABOVE_WARM = -sqrt(1e-10) - ABOVE (1,304 of them). Both are solved
again warm-started, as the learner starts its next solve from a
predicted offset that can miss the root either way: the first from
NEAR = 1e-3 and FAR = 20 below each return's own offset in log radius,
the second from JUST_ABOVE = 1e-9 and ABOVE = 1e-3 above it, so that
every start above the root is warm (a shifted offset at or above
-sqrt(1e-10) is a cold start). Each pass prints how many started warm,
how many raised and its worst relative error. Last, every positive return
below the smallest normal double (a subnormal radius, 3,368 of them) is
checked against its root: how many lie farther than
max(WORST * root, one double) from it, by which exit line they left, and
the worst relative error among those. The run takes about a minute on one
core (45 to 71 s, Python 3.11). It imports the package from ``src/`` beside
this file and writes nothing.

Exits 1 if any raise has a representable root, if either population's
worst relative error exceeds WORST = 1e-10, cold or in any warm pass, if
a warm solve raises (its cold solve returned), if any subnormal return
lies farther than max(WORST * root, one double) from its root, in the
warm passes too, or if no solve restarted from a smaller P, which would
leave that path ungated; otherwise 0.
"""

from __future__ import annotations

import collections
import inspect
import math
import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from link_oracle import mp_link, mp_link_root  # noqa: E402
from robust_oco import mirror_descent  # noqa: E402
from robust_oco.regularizer import HuberRegularizer  # noqa: E402

SAMPLES, SEED, ORACLE, SHOW, WORST = 300_000, 0, 2000, 5, 1e-10
NEAR, FAR, JUST_ABOVE, ABOVE = 1e-3, 20.0, 1e-9, 1e-3
SHIFTS = (-NEAR, -FAR, JUST_ABOVE, ABOVE)  # warm starts, from each return's own offset
ABOVE_WARM = mirror_descent._WARM_OFFSET - ABOVE  # an offset both passes above start warm from


def draw(rng):
    """One solve's arguments (theta, V, h, a, reg), or None if the penalty rejects them."""
    e = lambda lo, hi: math.exp(rng.uniform(lo, hi))  # noqa: E731
    a, theta, h = e(-700, 10), e(-745, 700), e(-20, 20)
    V = h * h * e(0, 20)
    c, p, alpha = e(-20, 40), 1.0 + e(-3, 5), e(-700, 700)
    advances = [e(-700, 700) for _ in range(int(rng.integers(0, 4)))]
    try:
        reg = HuberRegularizer(c=c, p=p, alpha=alpha)
        for radius in advances:
            reg.advance(radius)
    except ValueError:
        return None
    return theta, V, h, a, reg


def main() -> int:
    code = mirror_descent.link_inverse_solve.__code__
    source, first = inspect.getsourcelines(mirror_descent.link_inverse_solve)
    text = {first + i: line.strip() for i, line in enumerate(source)}
    ran: list[int] = []

    def local(frame, event, arg):
        if event == "line":
            ran.append(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    # the cold solve's lines that evaluate at M, read P there and restart from a smaller P
    at_m, read_p_line, restart_line = (next(n for n, t in text.items() if t == line) for line in (
        "u = math.log(hi)", "top = reg.radial_subgradient_inverse(theta_norm)",
        "hi, first = top, None"))

    rng = np.random.default_rng(SEED)
    exits, line_solves = collections.Counter(), collections.Counter()
    raised, returned, subnormal, below = [], [], [], []
    solves = read_p = restarted = restarted_to_zero = 0
    while solves < SAMPLES:
        drawn = draw(rng)
        if drawn is None:
            continue
        solves += 1
        ran.clear()
        sys.settrace(tracer)
        try:
            x, _, offset = mirror_descent.link_inverse_solve(*drawn)
            error = None
        except (mirror_descent.SolverError, ValueError, OverflowError) as exc:
            error = exc
        finally:
            sys.settrace(None)
        line_solves.update(set(ran))
        if at_m in ran and read_p_line in ran:
            read_p += 1
            restarted += restart_line in ran
            restarted_to_zero += restart_line in ran and error is None and x == 0.0
        if error is None:
            exits[f"{ran[-1]}: {text[ran[-1]]}"] += 1
            if x > 0.0 and len(returned) < ORACLE:
                returned.append((drawn, x, offset))
            if x > 0.0 and offset < ABOVE_WARM and len(below) < ORACLE:
                below.append((drawn, x, offset))
            if 0.0 < x < sys.float_info.min:
                subnormal.append((drawn, x, ran[-1]))
        else:
            words = " ".join(str(error).split(":")[0].split()[:6])
            exits[f"{ran[-1]}: {type(error).__name__}: {words}"] += 1
            raised.append((drawn, error))

    print(f"{solves} solves, seed {SEED}")
    for exit_line, count in sorted(exits.items(), key=lambda kv: int(kv[0].split(":")[0])):
        print(f"  exit {exit_line}: {count}")
    print(f"cold solves that read P after their first evaluation, at M: {read_p}; "
          f"restarted from a smaller P: {restarted} ({restarted_to_zero} at P = 0)")
    print("lines run by fewer than 1% of the solves:")
    for line in sorted(text):
        if 0 < line_solves[line] < solves / 100:
            print(f"  {line}: {line_solves[line]}  {text[line]}")

    representable = 0
    for (theta, V, h, a, reg), error in raised:
        with mpmath.workdps(50):  # does the link reach theta at or below the largest double?
            reaches = mp_link(mpmath.log(sys.float_info.max), V, h, a, reg) >= theta
        if reaches:
            representable += 1
            if representable > SHOW:
                continue
            with mpmath.workdps(50):
                root = mp_link_root(theta, V, h, a, reg)
            print(f"  raise with a representable root {mpmath.nstr(root, 17)}: {error}; "
                  f"link_inverse_solve({theta!r}, {V!r}, {h!r}, {a!r}, "
                  f"HuberRegularizer(c={reg.c!r}, p={reg.p!r}, alpha={reg.alpha!r}), "
                  f"log_S={reg.log_S!r}, last={reg.last_iterate_norm!r})")
    print(f"raises: {len(raised)}, with a representable root: {representable}")
    def error(x, root):
        """Relative error, or for a subnormal root 0 within max(WORST * root, one double)."""
        if root >= sys.float_info.min:
            return float(abs(x - root) / root)
        # a subnormal root is pinned to the grid, not relatively
        return 0.0 if abs(x - root) <= max(WORST * root, math.ulp(0.0)) else math.inf

    worst = {"returns": 0.0, "below": 0.0}  # each population's, over its normal roots
    far_cold = collections.Counter()  # and how many of those lie farther than WORST
    warm_worst, warm_raised = dict.fromkeys(SHIFTS, 0.0), dict.fromkeys(SHIFTS, 0)
    warm_starts, warm_solves = collections.Counter(), collections.Counter()
    for population, solved, shifts in (("returns", returned, SHIFTS[:2]),
                                       ("below", below, SHIFTS[2:])):
        for drawn, x, offset in solved:
            with mpmath.workdps(50):
                root = mp_link_root(*drawn, x)
            if root >= sys.float_info.min:
                worst[population] = max(worst[population], error(x, root))
                far_cold[population] += error(x, root) > WORST
            for shift in shifts:
                warm_solves[shift] += 1
                warm_starts[shift] += offset + shift < mirror_descent._WARM_OFFSET
                try:
                    x_warm = mirror_descent.link_inverse_solve(*drawn, offset + shift)[0]
                except (mirror_descent.SolverError, ValueError, OverflowError):
                    warm_raised[shift] += 1
                    continue
                with mpmath.workdps(50):
                    warm_worst[shift] = max(warm_worst[shift], error(x_warm, root))
    print(f"returns checked: {len(returned)}, worst relative error {worst['returns']:.3g}, "
          f"{far_cold['returns']} farther than {WORST:g}")
    print(f"returns with an offset below {ABOVE_WARM:.6g} checked: {len(below)}, "
          f"worst relative error {worst['below']:.3g}, {far_cold['below']} farther than {WORST:g}")
    for shift in SHIFTS:
        side = "below" if shift < 0 else "above"
        print(f"  started {abs(shift):g} {side} their offsets ({warm_starts[shift]} of "
              f"{warm_solves[shift]} warm): raises {warm_raised[shift]}, "
              f"worst relative error {warm_worst[shift]:.3g}")

    # below one double of the root a relative error says nothing (a root of
    # 2.5e-324 returns 5e-324), so the worst is taken over the far returns
    far, worst_far = collections.Counter(), 0.0
    for (theta, V, h, a, reg), x, exit_line in subnormal:
        with mpmath.workdps(50):
            root = mp_link_root(theta, V, h, a, reg, x)
            if abs(x - root) > max(WORST * root, math.ulp(0.0)):
                far[exit_line] += 1
                worst_far = max(worst_far, float(abs(x - root) / root))
    print(f"subnormal returns checked: {len(subnormal)}, farther than max({WORST:g} * root, "
          f"one double) from the root: {sum(far.values())}, "
          f"their worst relative error {worst_far:.3g}")
    for exit_line, count in sorted(far.items()):
        print(f"  far from the root, exit {exit_line}: {count}  {text[exit_line]}")
    warm_failed = any(warm_raised.values()) or max(warm_worst.values()) > WORST
    return 1 if (representable or max(worst.values()) > WORST or far or warm_failed
                 or not restarted) else 0


if __name__ == "__main__":
    sys.exit(main())
