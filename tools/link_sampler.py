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
raised, with the error's first words), then every line of the function that
fewer than 1% of the solves ran, with its count. Then every solve that
raised is checked at 50 digits: a raise where the link reaches theta at a
representable radius is a failure of the solve. They are counted, and the
first SHOW = 5 are printed with their inputs and their 50-digit roots. The
first ORACLE = 2,000 solves that returned a positive radius are checked
against that root too, and their worst relative error is printed. Then
every positive return below the smallest normal double (a subnormal
radius, 3,368 of them) is checked against its root: how many lie farther
than max(WORST * root, one double) from it, by which exit line they left,
and the worst relative error among those. The roots come from
``tests/link_oracle.py``, the oracle the solver's tests use. Last, the
first ORACLE returns are solved again warm-started, as the learner starts
its next solve, once from NEAR = 1e-3 and once from FAR = 20 below each
return's own offset in log radius, and checked against the same roots:
how many raised, and the worst relative error of each pass. The run takes
just over a minute on one core (71 s, Python 3.11). It imports the package
from ``src/`` beside this file and writes nothing.

Exits 1 if any raise has a representable root, if the first ORACLE
returns' worst relative error exceeds WORST = 1e-10, cold or in either
warm pass, if a warm solve raises (its cold solve returned), or if any
subnormal return lies farther than max(WORST * root, one double) from its
root, in the warm passes too; otherwise 0.
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
NEAR, FAR = 1e-3, 20.0


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

    rng = np.random.default_rng(SEED)
    exits, line_solves = collections.Counter(), collections.Counter()
    raised, returned, subnormal = [], [], []
    solves = 0
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
        if error is None:
            exits[f"{ran[-1]}: {text[ran[-1]]}"] += 1
            if x > 0.0 and len(returned) < ORACLE:
                returned.append((drawn, x, offset))
            if 0.0 < x < sys.float_info.min:
                subnormal.append((drawn, x, ran[-1]))
        else:
            words = " ".join(str(error).split(":")[0].split()[:6])
            exits[f"{ran[-1]}: {type(error).__name__}: {words}"] += 1
            raised.append((drawn, error))

    print(f"{solves} solves, seed {SEED}")
    for exit_line, count in sorted(exits.items(), key=lambda kv: int(kv[0].split(":")[0])):
        print(f"  exit {exit_line}: {count}")
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

    worst, warm_worst, warm_raised = 0.0, {NEAR: 0.0, FAR: 0.0}, {NEAR: 0, FAR: 0}
    for drawn, x, offset in returned:
        with mpmath.workdps(50):
            root = mp_link_root(*drawn, x)
        if root >= sys.float_info.min:
            worst = max(worst, error(x, root))
        for below in (NEAR, FAR):
            try:
                x_warm = mirror_descent.link_inverse_solve(*drawn, offset - below)[0]
            except (mirror_descent.SolverError, ValueError, OverflowError):
                warm_raised[below] += 1
                continue
            with mpmath.workdps(50):
                warm_worst[below] = max(warm_worst[below], error(x_warm, root))
    print(f"returns checked: {len(returned)}, worst relative error {worst:.3g}")
    for below in (NEAR, FAR):
        print(f"  warm-started {below:g} below their offsets: raises {warm_raised[below]}, "
              f"worst relative error {warm_worst[below]:.3g}")

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
    return 1 if representable or worst > WORST or far or warm_failed else 0


if __name__ == "__main__":
    sys.exit(main())
