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

Each map's step is written once in Python, as the compiled library
(_orbit.c) writes it once in C: the circle step in _circle_step, which
chebyshev_pair calls, and the radial step in the iterator _radial_steps,
with the expression shapes of q_exp, tri_map and q_ln and the constants of
_radial_params.  z_map is its argument checks plus one step of that
iterator; the Python fallbacks of the generator (generator._run_python)
and of both Lyapunov routes (stats._lyapunov_python) step whole orbits
through the two functions, in the order of the compiled loops.  The
analytic derivative is written once too, in _fold_derivative, which
z_map_derivative and the Python Lyapunov fallback share.  The tests hold
every caller to the same bits: generate/step against z_map step by step
and the compiled orbit against _run_python (tests/test_generator.py), the
compiled Lyapunov loop against _lyapunov_python, and lyapunov against the
per-call composition of the public functions
(tests/lyapunov_reference.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Tuple

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


def _circle_step(d: int, w: float, v: float) -> Tuple[float, float]:
    """(P_d(w), Q_d(w, v)) = (cos(d t), sin(d t)) for (w, v) = (cos t, sin t),
    in Horner form, both from the old w: the circle step of the orbit
    loops.  d is tried from 8, the default, down; it is not checked here,
    chebyshev_pair and MapConfig do that."""
    if d == 8:
        return ((((128.0 * w * w - 256.0) * w * w + 160.0) * w * w - 32.0) * w * w + 1.0,
                8 * w * v * (((16.0 * w * w - 24.0) * w * w + 10.0) * w * w - 1.0))
    if d == 7:
        return ((((64.0 * w * w - 112.0) * w * w + 56.0) * w * w - 7.0) * w,
                v * (((64.0 * w * w - 80.0) * w * w + 24.0) * w * w - 1.0))
    if d == 6:
        return (((32.0 * w * w - 48.0) * w * w + 18.0) * w * w - 1.0,
                v * (((32.0 * w * w - 32.0) * w * w + 6.0) * w))
    if d == 5:
        return (((16.0 * w * w - 20.0) * w * w + 5.0) * w,
                v * ((16.0 * w * w - 12.0) * w * w + 1.0))
    if d == 4:
        return ((8.0 * w * w - 8.0) * w * w + 1.0,
                v * ((8.0 * w * w - 4.0) * w))
    if d == 3:
        return ((4.0 * w * w - 3.0) * w,
                v * (4.0 * w * w - 1.0))
    if d == 2:
        return (2.0 * w * w - 1.0,
                2.0 * w * v)
    return (w, v)  # d == 1


def chebyshev_pair(d: int, p: CirclePoint, renormalize: bool = True) -> CirclePoint:
    """Apply the degree-d circle map to p = (w, v).

    Computes (P_d(w), Q_d(w, v)), which multiplies the angle of p by d when
    p lies on the unit circle.  With renormalize=True (default) the result
    is divided by its radius, which suppresses the d-fold per-step growth
    of rounding drift; pass renormalize=False to get the raw polynomial
    values.
    """
    if d not in range(1, 9):
        raise ValueError("degree d must be an integer in 1..8, got %r" % (d,))
    nw, nv = _circle_step(d, *p)
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
    steps = _radial_steps(q_int, cfg, z0)
    z1 = next(steps)[0]
    return z1 == _z_edge(q_int) or z1 == next(steps)[0]


def _check_support(q_int: float, z: float) -> None:
    """Reject a radius z unless it is finite, >= 0 and, for q_int < 1, at
    most the support edge: the domain of z_map."""
    if not (math.isfinite(z) and z >= 0.0):
        raise ValueError("z must be finite and >= 0, got %r" % (z,))
    if q_int < 1.0 and z > _z_edge(q_int):
        raise ValueError("z=%r is outside the radial support [0, %r] for q_int=%r"
                         % (z, _z_edge(q_int), q_int))


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
    """The constants _radial_steps and the compiled orbit both step with."""
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


def _radial_steps(
    q_int: float, cfg: MapConfig, z: float
) -> Iterator[Tuple[float, float, float]]:
    """The radial map's orbit from a valid z, one (z, u0, u) per step, without end.

    z is the step's new value, u0 its fold input g_inv(z) taken before the
    clamp at u_clamp (z_map_derivative's arithmetic uses that value; the
    chain-rule Lyapunov route applies the clamp itself), and u its fold
    output (after the floor of _u_floor).  The branches and expression
    shapes are those of q_exp, tri_map and q_ln, so each step equals their
    composition bit for bit.  z is not checked; z_map does that for a
    single step.
    """
    exp_ = math.exp
    log_ = math.log
    sqrt_ = math.sqrt
    gaussian, tent, c, one_m_q, u_clamp, u_lo, z_edge, s = _radial_params(q_int, cfg)
    folds = range(c)
    while True:
        if gaussian:
            u = exp_(-z * z * 0.5)
        else:
            a = 1.0 + one_m_q * (-z * z * 0.5)
            u = exp_(log_(a) / one_m_q) if a > 0.0 else 0.0
        u0 = u
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
        if u == 0.0:
            z = z_edge
        elif gaussian:
            z = sqrt_(-2.0 * log_(u))
        else:
            z = sqrt_(-2.0 * ((exp_(log_(u) * one_m_q) - 1.0) / one_m_q))
        yield z, u0, u


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
    return next(_radial_steps(q_int, cfg, z))[0]


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
    clamp, as _radial_steps yields it) and the fold point z_star.

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
