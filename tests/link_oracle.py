"""The piecewise link and its root at the working mpmath precision, an oracle for the solver.

The tests and ``tools/link_sampler.py`` check ``link_inverse_solve`` against
these; each caller sets the precision (50 digits) with ``mpmath.workdps``.
"""

import math
import sys

import mpmath


def mp_link(u, V, h, a, reg):
    """The piecewise link at radius e^u, its mirror branch chosen by x against x*."""
    mpf = mpmath.mpf
    V, h, a, c, p = mpf(V), mpf(h), mpf(a), mpf(reg.c), mpf(reg.p)
    x = mpmath.exp(u)
    F = mpmath.log1p(x / a)
    mirror = 6 * mpmath.sqrt(V * F) if x <= a * mpmath.expm1(V / (h * h)) else 3 * h * F + 3 * V / h
    if reg.c == 0.0:  # no penalty, whose log_S may be -inf
        return mirror
    S = mpmath.exp(mpf(reg.log_S))
    return mirror + c * p * x ** (p - 1) / (S + x ** p) ** (1 - 1 / p)


def mp_link_root(theta, V, h, a, reg, x0=None):
    """Root of the piecewise link L(x) = theta, bracketed in u = log x.

    The bracket is log x0 +- 1, or without x0 every positive double's log.
    The root solves log L = log theta: a residual in L itself passes
    findroot's absolute tolerance anywhere once theta is tiny.
    """
    if x0 is None:
        bracket = (math.log(5e-324), math.log(sys.float_info.max))
    else:
        u0 = mpmath.log(mpmath.mpf(x0))
        bracket = (u0 - 1, u0 + 1)
    log_theta = mpmath.log(mpmath.mpf(theta))
    return mpmath.exp(mpmath.findroot(
        lambda u: mpmath.log(mp_link(u, V, h, a, reg)) - log_theta, bracket,
        solver="anderson", maxsteps=200,
    ))
