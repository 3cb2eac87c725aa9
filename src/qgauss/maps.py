"""Circle and interval maps that drive the chaotic variate generator.

Three layers:

* chebyshev_pair -- the degree-d angle-multiplying map on the unit circle,
  written as polynomial pairs (P_d, Q_d) in Horner form.  The degree-8 pair
  uses the exact expression shapes of the reference implementation; the
  conformance tests pin its bit patterns, so do not re-associate the
  arithmetic.
* tri_map -- the slope-l piecewise linear fold of [0, 1] onto itself, with
  the slope depressed by a small epsilon so the top of the tent never maps
  exactly onto the fixed point at 1.
* z_map / z_map_derivative -- the fold conjugated by g(u) = sqrt(-2 q_ln u),
  acting on the radial coordinate z.  Its orbit distributes z like the
  radial part of a two dimensional deformed Gaussian.

The radial step is written once in Python, in the private loop
_radial_orbit, with the expression shapes of q_exp, tri_map and q_ln, and
its constants come from _radial_params.  z_map is its argument checks plus
one step of that loop; the Python fallbacks of the generator
(generator._run_python) and of both Lyapunov routes
(stats._lyapunov_python) step whole orbits through it.  The analytic
derivative is written once too, in _fold_derivative, which
z_map_derivative and the Python Lyapunov fallback share.  The compiled
library (_orbit.c) writes the same expressions once in C, as the
conjugation halves that its orbit and both of its Lyapunov routes call,
with the constants _radial_params gives it.  The tests hold every caller
to the same bits: generate/step against z_map step by step and the
compiled orbit against _run_python (tests/test_generator.py), the compiled
Lyapunov loop against _lyapunov_python, and lyapunov against the per-call
composition of the public functions (tests/lyapunov_reference.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Tuple

from .specfun import _Q_ONE_EPS, q_exp, q_ln

__all__ = [
    "CirclePoint",
    "MapConfig",
    "chebyshev_pair",
    "tri_map",
    "z_map",
    "z_map_derivative",
]


def _check_count(name: str, n: int, lo: int) -> None:
    """Reject a count n unless it is an int in lo..2**63-1 (the compiled
    loops count in int64): the one rule of every public count."""
    if not (isinstance(n, int) and lo <= n < 2 ** 63):
        raise ValueError("%s must be an integer in %d..2**63-1, got %r" % (name, lo, n))


def _check_fold(l: int, epsilon: float) -> None:
    """Reject a fold order l below 2 or a slope depression outside [0, 1e-3)."""
    if not isinstance(l, int) or l < 2:
        raise ValueError("l must be an integer >= 2, got %r" % (l,))
    if not 0.0 <= epsilon < 1e-3:
        raise ValueError("epsilon must satisfy 0 <= epsilon < 1e-3, got %r" % (epsilon,))


class CirclePoint(NamedTuple):
    """Point (w, v) = (cos t, sin t) on (or numerically near) the unit circle."""

    w: float
    v: float


@dataclass(frozen=True)
class MapConfig:
    """Static map parameters for one generator instance.

    d        circle map degree, integer in 2..8
    l        interval fold order, integer >= 2
    c        fold applications per step, integer >= 1
    epsilon  slope depression; effective slope is l*(1 - epsilon)
    """

    d: int = 8
    l: int = 2
    c: int = 1
    epsilon: float = 5e-6

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or not 2 <= self.d <= 8:
            raise ValueError("d must be an integer in 2..8, got %r" % (self.d,))
        _check_fold(self.l, self.epsilon)
        _check_count("c", self.c, 1)

    @property
    def slope(self) -> float:
        """Effective fold slope l*(1 - epsilon)."""
        return self.l * (1.0 - self.epsilon)


# Cosine-side polynomials P_d(w) = cos(d t) for w = cos t, Horner form.

def _p1(w: float) -> float:
    return w


def _p2(w: float) -> float:
    return 2.0 * w * w - 1.0


def _p3(w: float) -> float:
    return (4.0 * w * w - 3.0) * w


def _p4(w: float) -> float:
    return (8.0 * w * w - 8.0) * w * w + 1.0


def _p5(w: float) -> float:
    return ((16.0 * w * w - 20.0) * w * w + 5.0) * w


def _p6(w: float) -> float:
    return ((32.0 * w * w - 48.0) * w * w + 18.0) * w * w - 1.0


def _p7(w: float) -> float:
    return (((64.0 * w * w - 112.0) * w * w + 56.0) * w * w - 7.0) * w


def _p8(w: float) -> float:
    return (((128.0 * w * w - 256.0) * w * w + 160.0) * w * w - 32.0) * w * w + 1.0


# Sine-side companions Q_d(w, v) = sin(d t) for v = sin t.

def _q1(w: float, v: float) -> float:
    return v


def _q2(w: float, v: float) -> float:
    return 2.0 * w * v


def _q3(w: float, v: float) -> float:
    return v * (4.0 * w * w - 1.0)


def _q4(w: float, v: float) -> float:
    return v * ((8.0 * w * w - 4.0) * w)


def _q5(w: float, v: float) -> float:
    return v * ((16.0 * w * w - 12.0) * w * w + 1.0)


def _q6(w: float, v: float) -> float:
    return v * (((32.0 * w * w - 32.0) * w * w + 6.0) * w)


def _q7(w: float, v: float) -> float:
    return v * (((64.0 * w * w - 80.0) * w * w + 24.0) * w * w - 1.0)


def _q8(w: float, v: float) -> float:
    return 8 * w * v * (((16.0 * w * w - 24.0) * w * w + 10.0) * w * w - 1.0)


_CHEB: Dict[int, Tuple[Callable[[float], float], Callable[[float, float], float]]] = {
    1: (_p1, _q1),
    2: (_p2, _q2),
    3: (_p3, _q3),
    4: (_p4, _q4),
    5: (_p5, _q5),
    6: (_p6, _q6),
    7: (_p7, _q7),
    8: (_p8, _q8),
}


def chebyshev_pair(d: int, p: CirclePoint, renormalize: bool = True) -> CirclePoint:
    """Apply the degree-d circle map to p = (w, v).

    Computes (P_d(w), Q_d(w, v)), which multiplies the angle of p by d when
    p lies on the unit circle.  With renormalize=True (default) the result
    is divided by its radius, which suppresses the d-fold per-step growth
    of rounding drift; pass renormalize=False to get the raw polynomial
    values.
    """
    try:
        pf, qf = _CHEB[d]
    except (KeyError, TypeError):
        raise ValueError("degree d must be an integer in 1..8, got %r" % (d,)) from None
    w, v = p
    nv = qf(w, v)
    nw = pf(w)
    if renormalize:
        r = math.sqrt(nw * nw + nv * nv)
        nw /= r
        nv /= r
    return CirclePoint(nw, nv)


def tri_map(l: int, epsilon: float, u: float) -> float:
    """One application of the slope-l fold of [0, 1] onto itself.

    Stretches u by s = l*(1 - epsilon) and folds the result back into the
    unit interval, reversing direction on every odd integer cell.  For
    l = 2 this is the classic tent map, written in the same single-
    expression form as the reference implementation so that orbits agree
    bit for bit.
    """
    _check_fold(l, epsilon)
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1], got %r" % (u,))
    s = l * (1.0 - epsilon)
    if l == 2:
        return 1.0 - abs(1.0 - s * u)
    y = s * u
    k = int(y)
    if k & 1:
        r = (k + 1) - y
    else:
        r = y - k
    # guard the cell edges against one-ulp escapes
    if r < 0.0:
        return 0.0
    if r > 1.0:
        return 1.0
    return r


# Lower clamp applied to u = q_exp(q, -z*z/2) before folding (q >= 1 only;
# for q < 1 a vanishing u is the compact support edge and is handled as such).
_U_CLAMP_LO = 1e-300


def _u_floor(q_int: float) -> float:
    """Smallest post-fold u whose deformed log stays inside double range.

    For q > 1 the inverse conjugation evaluates u**(1-q); below
    exp(-709/(q-1)) that power overflows, so the fold output is floored
    there.  The floor only matters for strongly deformed regimes (it is
    about 8e-9 at q = 39) and is unreachable noise otherwise.
    """
    if q_int <= 1.0:
        return _U_CLAMP_LO
    return max(_U_CLAMP_LO, math.exp(-709.0 / (q_int - 1.0)))


def _z_edge(q_int: float) -> float:
    """Support edge sqrt(2/(1 - q_int)) of the radius, for q_int < 1."""
    return math.sqrt(2.0 / (1.0 - q_int))


def _check_start(q_int: float, cfg: MapConfig, z0: float) -> None:
    """Reject an orbit start z0 unless it is finite, > 0 and, for q_int < 1,
    below the support edge and not absorbed by the first radial step
    (_is_absorbed).  A fold output of 0 maps to the edge, and g_inv's
    underflow or the tent fold's rounding of an s*u below about 2**-54 gives
    0 from every z0 above 0.56 z_edge at q' = 0.99."""
    if not (math.isfinite(z0) and z0 > 0.0):
        raise ValueError("z0 must be finite and > 0, got %r" % (z0,))
    if q_int < 1.0 and z0 >= _z_edge(q_int):
        raise ValueError("z0=%r is outside the radial support [0, %r) for q_int=%r"
                         % (z0, _z_edge(q_int), q_int))
    if q_int < 1.0 and _is_absorbed(q_int, cfg, z0):
        raise ValueError("z0=%r is absorbed: its first radial step lands on the "
                         "support edge or on a point the radial map keeps, for "
                         "q_int=%r" % (z0, q_int))


def _is_absorbed(q_int: float, cfg: MapConfig, z0: float) -> bool:
    """Whether the first radial step from z0, inside the support of a
    q_int < 1, lands where the radial map stays for good: on the support
    edge, or on a point that the next step returns unchanged.  Such points
    lie a few ulps below the edge at l = 3 (seen at q' = 0.75 and 0.9 with
    c = 1): g_inv(z) is far below 2**-52 there, and g rounds the folded
    value back to the same z."""
    zs = _radial_orbit(q_int, cfg, z0, 2)[0]
    return zs[0] == _z_edge(q_int) or zs[0] == zs[1]


def _check_support(q_int: float, z: float) -> None:
    """Reject a radius z unless it is finite, >= 0 and, for q_int < 1, at
    most the support edge: the domain of z_map."""
    if not (math.isfinite(z) and z >= 0.0):
        raise ValueError("z must be finite and >= 0, got %r" % (z,))
    if q_int < 1.0 and z > _z_edge(q_int):
        raise ValueError("z=%r is outside the radial support [0, %r] for q_int=%r"
                         % (z, _z_edge(q_int), q_int))


# Steps per _radial_orbit call in the callers that run long orbits, so that
# an orbit of 10**6 steps never holds 10**6 floats per list.
_ORBIT_BLOCK = 4096


class _RadialParams(NamedTuple):
    """Constants of the radial step for one (q_int, cfg), in the order the
    compiled orbit (_orbit.c) takes them after d."""

    gaussian: bool   # |q_int - 1| < _Q_ONE_EPS: the exp/log limit branch
    tent: bool       # l == 2: the single-expression tent fold
    c: int           # folds per step
    one_m_q: float   # 1 - q_int
    u_clamp: float   # lower clamp on the fold input (0 for q_int < 1)
    u_lo: float      # floor on the fold output, _u_floor (0 for q_int < 1)
    z_edge: float    # support edge sqrt(2/(1 - q_int)) (0 for q_int >= 1)
    s: float         # fold slope l*(1 - epsilon)


def _radial_params(q_int: float, cfg: MapConfig) -> _RadialParams:
    """The constants _radial_orbit and the compiled orbit both step with."""
    one_m_q = 1.0 - q_int
    q_ge_1 = q_int >= 1.0
    return _RadialParams(
        gaussian=abs(q_int - 1.0) < _Q_ONE_EPS,
        tent=cfg.l == 2,
        c=cfg.c,
        one_m_q=one_m_q,
        u_clamp=_U_CLAMP_LO if q_ge_1 else 0.0,
        u_lo=_u_floor(q_int) if q_ge_1 else 0.0,
        z_edge=_z_edge(q_int) if q_int < 1.0 else 0.0,
        s=cfg.l * (1.0 - cfg.epsilon),
    )


def _radial_orbit(
    q_int: float, cfg: MapConfig, z: float, n: int
) -> Tuple[List[float], List[float], List[float]]:
    """n steps of the radial map from a valid z: (zs, u0s, us).

    zs are the successive z values, u0s each step's fold input g_inv(z)
    taken before the clamp at u_clamp (z_map_derivative's arithmetic uses
    that value; the chain-rule Lyapunov route applies the clamp itself),
    and us its fold output (after the floor of _u_floor).  The branches and
    expression shapes are those of q_exp, tri_map and q_ln, so each step
    equals their composition bit for bit.  z is not checked; z_map does
    that for a single step.
    """
    exp_ = math.exp
    log_ = math.log
    sqrt_ = math.sqrt
    gaussian, tent, c, one_m_q, u_clamp, u_lo, z_edge, s = _radial_params(q_int, cfg)
    folds = range(c)
    zs: List[float] = []
    u0s: List[float] = []
    us: List[float] = []
    for _ in range(n):
        if gaussian:
            u = exp_(-z * z * 0.5)
        else:
            a = 1.0 + one_m_q * (-z * z * 0.5)
            u = exp_(log_(a) / one_m_q) if a > 0.0 else 0.0
        u0s.append(u)
        if u < u_clamp:
            u = u_clamp
        if tent:
            for _ in folds:
                u = 1.0 - abs(1.0 - s * u)
        else:
            for _ in folds:
                y = s * u
                k = int(y)
                u = (k + 1) - y if k & 1 else y - k
                if u < 0.0:
                    u = 0.0
                elif u > 1.0:
                    u = 1.0
        if u < u_lo:
            u = u_lo
        us.append(u)
        if u == 0.0:
            z = z_edge
        elif gaussian:
            z = sqrt_(-2.0 * log_(u))
        else:
            z = sqrt_(-2.0 * ((exp_(log_(u) * one_m_q) - 1.0) / one_m_q))
        zs.append(z)
    return zs, u0s, us


def z_map(q_int: float, cfg: MapConfig, z: float) -> float:
    """One step of the conjugated radial map: z -> g(T_l^c(g_inv(z))).

    g_inv(z) = q_exp(q_int, -z*z/2) sends z into [0, 1], the fold acts c
    times, and g(u) = sqrt(-2 q_ln(q_int, u)) maps back.  For q_int < 1
    the radius lives on the compact interval [0, sqrt(2/(1-q_int))] and z
    outside it is a domain error; a fold output of exactly 0 maps to the
    support edge.  For q_int >= 1 the fold output is floored (see _u_floor)
    so the returned z is always finite.
    """
    _check_support(q_int, z)
    return _radial_orbit(q_int, cfg, z, 1)[0][0]


def z_map_derivative(q_int: float, z: float) -> float:
    """Derivative of the base radial map (l=2, c=1, zero epsilon) at z.

    The map has a single non-differentiable fold point z* where
    g_inv(z*) = 1/2; requests within 1e-9 of z* are rejected.  Below z*
    the map descends (the fold uses its decreasing arm), above z* it
    ascends, so the sign flips across z*.
    """
    if not (math.isfinite(z) and z > 0.0):
        raise ValueError("z must be finite and > 0, got %r" % (z,))
    _check_support(q_int, z)
    return _fold_derivative(q_int, z, q_exp(q_int, -z * z * 0.5), _fold_point(q_int))


def _fold_point(q_int: float) -> float:
    """The fold point z*, where g_inv(z*) = 1/2."""
    return math.sqrt(-2.0 * q_ln(q_int, 0.5))


def _fold_derivative(q_int: float, z: float, u: float, z_star: float) -> float:
    """z_map_derivative at a valid z > 0, from u = g_inv(z) (before the
    clamp, as _radial_orbit returns it) and the fold point z_star.

    Raises ValueError within 1e-9 of z_star and where q_ln or the square
    root leave their domain, ZeroDivisionError where u == 1 meets the
    power (1 - u)**(-q_int), and OverflowError where that power or q_ln's
    exponential leaves double range.
    """
    if abs(z - z_star) <= 1e-9:
        raise ValueError(
            "derivative undefined within 1e-9 of the fold point z*=%r" % (z_star,)
        )
    scale = 2.0 ** (1.0 - q_int)
    if z > z_star:
        # u < 1/2: increasing arm of the fold
        return scale * z / math.sqrt(-2.0 * q_ln(q_int, 2.0 * u))
    # u > 1/2: decreasing arm; u**q / (1-u)**q restores the conjugation factors
    w = 2.0 * (1.0 - u)
    return (
        -scale
        * (1.0 - u) ** (-q_int)
        * u ** q_int
        * z
        / math.sqrt(-2.0 * q_ln(q_int, w))
    )
