"""Closed-form density, distribution, and quantile functions of the family.

The family is indexed by the output deformation parameter q_out < 3 and is
always used here at unit shape scale:

* q_out < 1   compact support [-L, L], L = sqrt((3-q_out)/(1-q_out))
* q_out = 1   standard Gaussian
* 1 < q_out < 3  Student-t with nu = (3-q_out)/(q_out-1) degrees of freedom

make_spec(q_out) is the only check of q_out.  Its QSpec record holds
q_int, at which the generator runs its map, nu, and the constants every
closed form below reads instead of deriving them again.

cdf_array is the one cdf implementation: it evaluates the upper tail
probability of |x| through scipy.special, so both tails are computed without
cancellation, and the scalar cdf/ccdf call it.  quantile inverts the family
in closed form through the inverses scipy.special ships; for the
Student-t members it inverts the same tail cdf_array evaluates.

Importing this module does not import scipy.special: the generator, the
Lyapunov estimate and the density need none of it, and it is most of the
package's import time.  _special() imports it on the first cdf_array,
cdf_array_direct or quantile call (so on the first cdf, ccdf, gof_test or
table row), and every later call reuses that module.  Beside it,
_direct_kernels() reads the C addresses of the scalar betainc and ndtr
that cdf_array_direct's ufuncs evaluate from scipy.special.cython_special,
on the first gof_test or table row, for the compiled scorer
(stats._score).
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .maps import _is_real
from .specfun import _Q_ONE_EPS, beta, q_exp

__all__ = [
    "QSpec",
    "make_spec",
    "support",
    "pdf",
    "cdf",
    "ccdf",
    "cdf_array",
    "variance",
    "quantile",
    "joint_pdf",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# y = k*x*x past which cdf_array and quantile use the leading tail term
_Y_FAR = 1e300
_LOG_FAR = math.log(_Y_FAR)
_LOG_MAX = math.log(sys.float_info.max)


@functools.cache
def _special():
    """scipy.special, imported on first use (see the module docstring)."""
    import scipy.special

    return scipy.special


# The scalar kernels of cdf_array_direct's betainc and ndtr ufuncs in
# scipy.special.cython_special's C API: each capsule's name and the C
# signature it must carry, the one _orbit.c's qgauss_bounded_scores
# declares.
_DIRECT_KERNELS = (
    ("__pyx_fuse_0betainc", b"double (double, double, double, int __pyx_skip_dispatch)"),
    ("__pyx_fuse_1ndtr", b"double (double, int __pyx_skip_dispatch)"),
)


@functools.cache
def _direct_kernels() -> Optional[Tuple[int, int]]:
    """The C addresses of scipy's scalar betainc and ndtr, (betainc, ndtr),
    or None where they cannot be read.

    cython_special is scipy's public Cython API, but these fused names are
    generated, so a scipy that renames them, or gives them another
    signature, makes this None, and stats._score then scores through
    cdf_array_direct.  PyCapsule_GetPointer checks each signature: it
    fails unless the capsule's name is the one _DIRECT_KERNELS expects.
    """
    try:
        _special()
        from scipy.special import cython_special

        get = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", ctypes.pythonapi))
        capi = cython_special.__pyx_capi__
        betainc, ndtr = (get(capi[name], signature) for name, signature in _DIRECT_KERNELS)
    except (ImportError, AttributeError, KeyError, ValueError):
        # no scipy or cython_special, no C API, a missing name or
        # (PyCapsule_GetPointer) another signature
        return None
    return betainc, ndtr


@dataclass(frozen=True)
class QSpec:
    """One member of the family, and the constants its closed forms read.

    q_out       the family parameter, finite and < 3
    q_int       internal map deformation (q_out + 1)/(3 - q_out)
    nu          tail index (3 - q_out)/(q_out - 1) for q_out > 1, else None
    gaussian    |q_out - 1| < _Q_ONE_EPS: the closed forms are Gaussian
    a           incomplete-beta parameter (2 - q_out)/(1 - q_out) below 1,
                1/(q_out - 1) - 1/2 above, inf at 1
    k           x**2 scale |1 - q_out|/(3 - q_out)
    half_width  support half-width L = sqrt((3 - q_out)/(1 - q_out)) below 1,
                else inf
    """

    q_out: float
    q_int: float
    nu: Optional[float]
    gaussian: bool
    a: float
    k: float
    half_width: float


def make_spec(q_out: float) -> QSpec:
    """The family member q_out: the one check of q_out and the one place
    its constants are derived."""
    if not (_is_real(q_out) and math.isfinite(q_out) and q_out < 3.0):
        raise ValueError("q_out must be finite and < 3, got %r" % (q_out,))
    if q_out < 1.0:
        a = (2.0 - q_out) / (1.0 - q_out)
    elif q_out > 1.0:
        a = 1.0 / (q_out - 1.0) - 0.5
    else:
        a = math.inf
    return QSpec(
        q_out=q_out,
        q_int=(q_out + 1.0) / (3.0 - q_out),
        nu=(3.0 - q_out) / (q_out - 1.0) if q_out > 1.0 else None,
        gaussian=abs(q_out - 1.0) < _Q_ONE_EPS,
        a=a,
        k=abs(1.0 - q_out) / (3.0 - q_out),
        half_width=math.sqrt((3.0 - q_out) / (1.0 - q_out)) if q_out < 1.0 else math.inf,
    )


def support(q_out: float) -> Tuple[float, float]:
    """Support interval; (-inf, inf) for q_out >= 1."""
    half = make_spec(q_out).half_width
    return (-half, half)


def pdf(q_out: float, x: float) -> float:
    """Probability density at x."""
    spec = make_spec(q_out)
    if spec.gaussian:
        return _INV_SQRT_2PI * math.exp(-0.5 * x * x)
    if q_out < 1.0:
        t = 1.0 - spec.k * x * x
        if t <= 0.0:
            return 0.0
    else:
        t = 1.0 + spec.k * x * x
    # the density at the origin times the deformed kernel
    return math.sqrt(spec.k) / beta(spec.a, 0.5) * t ** (1.0 / (1.0 - q_out))


def cdf(q_out: float, x: float) -> float:
    """Cumulative distribution P(X <= x)."""
    return float(cdf_array(q_out, x))


def ccdf(q_out: float, x: float) -> float:
    """Complementary cumulative P(X > x), accurate deep into the right tail."""
    return float(cdf_array(q_out, -x))


def cdf_array(q_out: float, x: np.ndarray) -> np.ndarray:
    """Vectorized cdf over scipy.special, tail-exact in both directions.

    Evaluates the upper tail probability of |x| directly (never forming
    y/(1+y), which rounds to 1 and erases the tail) and takes the complement
    only for the half where that is exact.  Where y = k*x*x exceeds 1e300
    the tail is the leading term of its incomplete-beta series, so mass is
    kept out to the largest finite double.
    """
    spec = make_spec(q_out)
    a, k = spec.a, spec.k
    sc = _special()
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    if spec.gaussian:
        upper = 0.5 * sc.erfc(ax / _SQRT2)
    elif q_out < 1.0:
        with np.errstate(over="ignore"):
            t = np.clip(1.0 - k * ax * ax, 0.0, 1.0)
        upper = 0.5 * sc.betainc(a, 0.5, t)
    else:
        with np.errstate(over="ignore"):
            y = k * ax * ax
        w = 1.0 / (1.0 + y)
        upper = np.asarray(0.5 * sc.betainc(a, 0.5, w))  # 0-d x: assignable
        far = y > _Y_FAR
        if far.any():
            # I_w(a, 1/2) = w^a / (a B(a, 1/2)) * (1 + O(w)), log w = -log y
            log_w = -(math.log(k) + 2.0 * np.log(ax[far]))
            upper[far] = 0.5 * np.exp(
                a * log_w - math.log(a) - sc.betaln(a, 0.5))
    return np.where(x >= 0.0, 1.0 - upper, upper)


def cdf_array_direct(q_out: float, x: np.ndarray) -> np.ndarray:
    """Vectorized cdf in the direct (non-complement) arrangement.

    Forms the lower incomplete-beta argument y/(1+y) for 1 < q < 3 instead of
    routing through the upper-tail complement.  Once y exceeds roughly 4.5e15
    that intermediate rounds to 1.0 in double precision, so the result
    saturates at exactly 0.0 or 1.0, out to the largest double, while the
    true tail is still of order 1e-4 to 1e-5.  The goodness-of-fit trial
    protocol is calibrated against this arrangement: its sensitivity to
    heavy-tail deformations above q_out = 2.3 comes precisely from those
    saturated values (see stats).  Use cdf_array when tail-exact values are
    wanted instead.
    """
    spec = make_spec(q_out)
    sc = _special()
    x = np.asarray(x, dtype=float)
    if spec.gaussian:
        return sc.ndtr(x)
    if q_out < 1.0:
        with np.errstate(over="ignore"):
            y = np.clip(spec.k * x * x, 0.0, 1.0)
        inner = sc.betainc(0.5, spec.a, y)
        out = 0.5 * (1.0 + np.sign(x) * inner)
        out = np.where(x <= -spec.half_width, 0.0, out)
        out = np.where(x >= spec.half_width, 1.0, out)
        return out
    # where y overflows, y/(1+y) is nan; fmin takes its limit 1 there
    with np.errstate(over="ignore", invalid="ignore"):
        y = spec.k * x * x
        r = np.fmin(y / (1.0 + y), 1.0)
    inner = sc.betainc(0.5, spec.a, r)
    return 0.5 * (1.0 + np.sign(x) * inner)


def variance(q_out: float) -> float:
    """Variance (3-q_out)/(5-3*q_out); finite only for q_out < 5/3."""
    make_spec(q_out)
    if q_out >= 5.0 / 3.0:
        raise ValueError(
            "variance is finite only for q_out < 5/3, got %r" % (q_out,)
        )
    return (3.0 - q_out) / (5.0 - 3.0 * q_out)


def quantile(q_out: float, p: float) -> float:
    """Inverse cdf in closed form through scipy.special.

    ndtri for the Gaussian and betaincinv for the compact members, where
    (X/L + 1)/2 is Beta(a, a) distributed with a = (2-q_out)/(1-q_out).
    For q_out > 1 it inverts the upper tail that cdf_array evaluates,
    P(|X| > x)/2 = I_w(a, 1/2)/2 with w = 1/(1 + k*x*x): w is
    betaincinv(a, 1/2, 2*min(p, 1-p)), and where k*x*x would pass 1e300
    the leading term of the series is inverted in logs instead, as
    cdf_array switches to it there.  Past the largest double the result
    is -inf or inf (for q_out near 3 and small p or 1-p: every p below
    about 5.6e-9 at q_out = 2.95).

    |cdf(result) - p| is a few ulps of 1 away from q_out = 1 and grows to
    about 1e-16/|q_out - 1| near it, where the beta parameters grow like
    1/|q_out - 1|.  For q_out > 1 every finite result also holds the tail,
    within about 1.5e-13 of min(p, 1-p) relative, down to p = 1e-299.
    """
    spec = make_spec(q_out)
    a, k = spec.a, spec.k
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1), got %r" % (p,))
    sc = _special()
    if spec.gaussian:
        return float(sc.ndtri(p))
    if q_out > 1.0:
        tail = 2.0 * min(p, 1.0 - p)
        # log w of the leading term 0.5 * w^a / (a B(a, 1/2)) = tail / 2
        log_w = (math.log(tail) + math.log(a) + float(sc.betaln(a, 0.5))) / a
        if -log_w > _LOG_FAR:
            log_x = -0.5 * (log_w + math.log(k))
            x = math.inf if log_x > _LOG_MAX else math.exp(log_x)
        else:
            w = float(sc.betaincinv(a, 0.5, tail))
            x = math.sqrt((1.0 - w) / (w * k))
        return math.copysign(x, p - 0.5)
    return spec.half_width * (2.0 * float(sc.betaincinv(a, a, p)) - 1.0)


def joint_pdf(q_out: float, xi: float, eta: float) -> float:
    """Joint density of one output pair (both transform and chaotic routes).

    Equals (1/2pi) * q_exp(q_int, -r^2/2)**q_int with r^2 = xi^2 + eta^2;
    its two marginals are the q_out family member.  Zero outside the
    radial support when q_int < 1.
    """
    q_int = make_spec(q_out).q_int
    u = q_exp(q_int, -(xi * xi + eta * eta) * 0.5)
    if u == 0.0:
        return 0.0
    return u ** q_int / (2.0 * math.pi)
