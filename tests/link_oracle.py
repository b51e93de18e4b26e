"""The solvers' roots at the working mpmath precision: oracles for the link and the projection.

The tests and ``tools/link_sampler.py`` check ``link_inverse_solve`` against
the piecewise link and its root, and the tests check the penalty's radial
subgradient against the link's penalty part and ``weighted_project``
against the projection's cubic root; each caller sets the precision (50
digits) with ``mpmath.workdps``.
"""

import math
import sys

import mpmath


def mp_link(u, V, h, a, reg):
    """The piecewise link at radius e^u, its mirror branch chosen by x against x*."""
    mpf = mpmath.mpf
    V, h, a = mpf(V), mpf(h), mpf(a)
    x = mpmath.exp(u)
    F = mpmath.log1p(x / a)
    mirror = 6 * mpmath.sqrt(V * F) if x <= a * mpmath.expm1(V / (h * h)) else 3 * h * F + 3 * V / h
    if reg.c == 0.0:  # no penalty, whose log_S may be -inf
        return mirror
    return mirror + mp_penalty(u, reg)


def mp_penalty(u, reg):
    """The penalty part of the link, c p x^(p-1) / (S + x^p)^(1-1/p) at radius x = e^u."""
    c, p = mpmath.mpf(reg.c), mpmath.mpf(reg.p)
    x, S = mpmath.exp(u), mpmath.exp(mpmath.mpf(reg.log_S))
    return c * p * x ** (p - 1) / (S + x ** p) ** (1 - 1 / p)


def mp_link_root(theta, V, h, a, reg, x0=None):
    """Root of the piecewise link L(x) = theta, bracketed in u = log x.

    The bracket is log x0 +- 1, or without x0 every positive double's log;
    where the narrow bracket defeats the solver (a link that grows 10^4-fold
    within it, at p = 117), the wide one is taken. The root solves
    log L = log theta: a residual in L itself passes findroot's absolute
    tolerance anywhere once theta is tiny.
    """
    if x0 is None:
        bracket = (math.log(5e-324), math.log(sys.float_info.max))
    else:
        u0 = mpmath.log(mpmath.mpf(x0))
        bracket = (u0 - 1, u0 + 1)
    log_theta = mpmath.log(mpmath.mpf(theta))
    try:
        return mpmath.exp(mpmath.findroot(
            lambda u: mpmath.log(mp_link(u, V, h, a, reg)) - log_theta, bracket,
            solver="anderson", maxsteps=200,
        ))
    except ValueError:
        if x0 is None:
            raise
        return mp_link_root(theta, V, h, a, reg)


def mp_project_root(w_norm, y_hat, h, gamma):
    """The boundary radius of weighted_project: the nonnegative real root of the cubic

    s*(h^2 + 2 gamma^2 (s^2 - y_hat)) - h^2 w_norm, which is unique for w_norm > 0.
    """
    mpf = mpmath.mpf
    g2, h2 = 2 * mpf(gamma) ** 2, mpf(h) ** 2
    roots = mpmath.polyroots([g2, 0, h2 - g2 * mpf(y_hat), -h2 * mpf(w_norm)], extraprec=200)
    return max(r.real for r in roots if abs(r.imag) < mpf(10) ** -30)
