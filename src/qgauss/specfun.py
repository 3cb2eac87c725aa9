"""Scalar special functions backing the distribution and generator layers.

The deformed exponential/logarithm pair is written with the exact floating
point expression shapes used by the reference generator, because the chaotic
iteration amplifies single-ulp differences exponentially.  Do not "simplify"
q_exp or q_ln (for example into log1p/expm1 forms): the conformance tests
pin the bit patterns.  They are the pair's one Python copy, which the radial
step's halves (maps._g_inv, maps._g) and distribution.joint_pdf call.

Log-gamma and the complete beta function (the density's normalizing
constant) wrap the platform libm through the math module.  The incomplete
beta and its inverse come from scipy.special, in the distribution layer.
"""

from __future__ import annotations

import math

__all__ = [
    "q_exp",
    "q_ln",
    "log_gamma",
    "beta",
]

# Branch width below which the deformed pair falls back to exp/ln.  The
# deformed expressions lose all precision as q -> 1 (they divide by 1-q),
# while the limit functions are exact there.  The generator, distribution
# and statistics layers use the same width for their Gaussian branches.
_Q_ONE_EPS = 1e-12


def q_exp(q: float, w: float) -> float:
    """Deformed exponential: (1 + (1-q)w)^(1/(1-q)), cut off at zero.

    Returns 0.0 when the base 1 + (1-q)w is not positive, so the function
    is defined on the whole real line and continuous from the right at the
    cutoff.  At q = 1 (within 1e-12) this is the ordinary exponential.
    """
    if abs(q - 1.0) < _Q_ONE_EPS:
        return math.exp(w)
    arg = 1.0 + (1.0 - q) * w
    if arg <= 0.0:
        return 0.0
    return math.exp(math.log(arg) / (1.0 - q))


def q_ln(q: float, w: float) -> float:
    """Deformed logarithm: (w^(1-q) - 1)/(1-q) for w > 0.

    Inverse of q_exp on (0, inf).  At q = 1 (within 1e-12) this is the
    ordinary logarithm.  Raises ValueError unless w > 0, so for nan too.
    """
    if not w > 0.0:
        raise ValueError("q_ln requires w > 0, got %r" % (w,))
    if abs(q - 1.0) < _Q_ONE_EPS:
        return math.log(w)
    return (math.exp(math.log(w) * (1.0 - q)) - 1.0) / (1.0 - q)


def log_gamma(a: float) -> float:
    """Natural log of the gamma function for a > 0.

    Thin validated front over math.lgamma (platform libm, better than
    1 ulp in practice; cross-checked against mpmath in the tests).
    """
    if not a > 0.0:
        raise ValueError("log_gamma requires a > 0, got %r" % (a,))
    return math.lgamma(a)


def beta(a: float, b: float) -> float:
    """Complete beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b)."""
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))
