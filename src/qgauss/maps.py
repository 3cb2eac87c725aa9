"""Circle and interval maps that drive the chaotic variate generator.

Three layers:

* chebyshev_pair -- one step of the orbit's circle half: the degree-d
  angle-multiplying map on the unit circle, as polynomial pairs (P_d, Q_d)
  in Horner form, then the renormalization.  The degree-8 pair uses the
  reference implementation's exact expression shapes; the conformance
  tests pin its bits, so do not re-associate the arithmetic.
* tri_map -- the slope-l piecewise linear fold of [0, 1] onto itself, with
  the slope depressed by a small epsilon so the top of the tent never maps
  exactly onto the fixed point at 1.
* z_map / z_map_derivative -- the fold conjugated by g(u) = sqrt(-2 q_ln u),
  acting on the radial coordinate z.  Its orbit distributes z like the
  radial part of a two dimensional deformed Gaussian.

Each map's step is written once in Python, as the compiled library
(_orbit.c) writes it once in C: the circle step, the pair and its
renormalization, in _circle_step, and the radial step in the iterator
_radial_steps, which composes the halves of _orbit.c's radial_step: q_exp,
the clamp, _fold (tri_map's fold too), the floor of _u_floor and q_ln,
with the constants of _radial_params.  chebyshev_pair is its checks plus
one circle step, z_map its checks plus one step of that iterator; the
Python fallbacks of the generator (generator._run_python) and of both
Lyapunov routes (stats._lyapunov_python) step whole orbits through them, in
the order of the compiled loops.  The analytic derivative is written once
too, in _fold_derivative, which z_map_derivative and the Python Lyapunov
fallback share.  The tests hold every caller to the same bits: z_map
against the step written out literally (tests/test_maps.py),
generate/step against chebyshev_pair and z_map and the compiled orbit
against _run_python (tests/test_generator.py), the compiled Lyapunov loop
against _lyapunov_python, and lyapunov against the per-call composition of
the public functions (tests/lyapunov_reference.py).
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
    """Reject a count n unless it is a non-bool int in lo..2**63-1 (the
    compiled loops count in int64): the one rule of every public count."""
    if not (isinstance(n, int) and not isinstance(n, bool) and lo <= n < 2 ** 63):
        raise ValueError("%s must be an integer in %d..2**63-1, got %r" % (name, lo, n))


def _check_degree(d: int) -> None:
    """Reject a circle map degree d unless it is a non-bool int in 2..8:
    the one rule of MapConfig, chebyshev_pair and the compiled orbit."""
    if not (isinstance(d, int) and not isinstance(d, bool) and 2 <= d <= 8):
        raise ValueError("d must be an integer in 2..8, got %r" % (d,))


def _check_fold(l: int, epsilon: float) -> None:
    """Reject a fold order l below 2 or a slope depression outside [0, 1e-3)."""
    if not isinstance(l, int) or l < 2:
        raise ValueError("l must be an integer >= 2, got %r" % (l,))
    if not 0.0 <= epsilon < 1e-3:
        raise ValueError("epsilon must satisfy 0 <= epsilon < 1e-3, got %r" % (epsilon,))


# Circle renormalization threshold on |w*w + v*v - 1|.
_RADIUS_TOL = 1e-10


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
        _check_degree(self.d)
        _check_fold(self.l, self.epsilon)
        _check_count("c", self.c, 1)

    @property
    def slope(self) -> float:
        """Effective fold slope l*(1 - epsilon)."""
        return self.l * (1.0 - self.epsilon)


def _circle_step(d: int, w: float, v: float) -> Tuple[float, float]:
    """(P_d(w), Q_d(w, v)) = (cos(d t), sin(d t)) for (w, v) = (cos t, sin t),
    in Horner form, both from the old w, divided by its radius where r2 is
    more than _RADIUS_TOL from 1: the circle step of the orbit loops.  d is
    tried from 8, the default, down; _check_degree checks it."""
    if d == 8:
        w, v = ((((128.0 * w * w - 256.0) * w * w + 160.0) * w * w - 32.0) * w * w + 1.0,
                8 * w * v * (((16.0 * w * w - 24.0) * w * w + 10.0) * w * w - 1.0))
    elif d == 7:
        w, v = ((((64.0 * w * w - 112.0) * w * w + 56.0) * w * w - 7.0) * w,
                v * (((64.0 * w * w - 80.0) * w * w + 24.0) * w * w - 1.0))
    elif d == 6:
        w, v = (((32.0 * w * w - 48.0) * w * w + 18.0) * w * w - 1.0,
                v * (((32.0 * w * w - 32.0) * w * w + 6.0) * w))
    elif d == 5:
        w, v = (((16.0 * w * w - 20.0) * w * w + 5.0) * w,
                v * ((16.0 * w * w - 12.0) * w * w + 1.0))
    elif d == 4:
        w, v = ((8.0 * w * w - 8.0) * w * w + 1.0,
                v * ((8.0 * w * w - 4.0) * w))
    elif d == 3:
        w, v = ((4.0 * w * w - 3.0) * w,
                v * (4.0 * w * w - 1.0))
    else:  # d == 2
        w, v = (2.0 * w * w - 1.0,
                2.0 * w * v)
    r2 = w * w + v * v
    if abs(r2 - 1.0) > _RADIUS_TOL:
        r = math.sqrt(r2)
        w /= r
        v /= r
    return w, v


def chebyshev_pair(d: int, p: CirclePoint) -> CirclePoint:
    """One step of the orbit's circle half from p = (w, v), as z_map is
    one step of its radial half; d is an integer in 2..8.

    Computes (P_d(w), Q_d(w, v)), which multiplies the angle of p by d when
    p lies on the unit circle, and divides it by its radius where the
    squared radius drifts more than 1e-10 from 1, as the orbit does.
    """
    _check_degree(d)
    return CirclePoint(*_circle_step(d, *p))


def tri_map(l: int, epsilon: float, u: float) -> float:
    """One application of the slope-l fold of [0, 1] onto itself.

    Stretches u by s = l*(1 - epsilon) and folds the result back into the
    unit interval, reversing direction on every odd integer cell: its
    checks plus one _fold.  For l = 2 this is the classic tent map.
    """
    _check_fold(l, epsilon)
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1], got %r" % (u,))
    return _fold(l == 2, l * (1.0 - epsilon), 1, u)


def _fold(tent: bool, s: float, c: int, u: float) -> float:
    """c applications of the slope-s fold to u, without the floor and
    unchecked: tent (l == 2) is the reference's single-expression tent, and
    a higher order stays in [0, 1] unclamped, since y - k and, for odd
    k < 2**53, (k + 1) - y are exact, and every y >= 2**53 is even."""
    if tent:
        while c:
            u = 1.0 - abs(1.0 - s * u)
            c -= 1
        return u
    while c:
        y = s * u
        k = int(y)
        u = (k + 1) - y if k & 1 else y - k
        c -= 1
    return u


# Lower clamp applied to u = q_exp(q, -z*z/2) before folding (q >= 1 only;
# for q < 1 a vanishing u is the compact support edge and is handled as such).
_U_CLAMP_LO = 1e-300


def _u_floor(q_int: float) -> float:
    """Floor on the fold output: 0.0 below q_int = 1 (where 0 is the support
    edge), else at least _U_CLAMP_LO.  For q > 1, g evaluates u**(1-q), which
    overflows below exp(-709/(q-1)), so the floor is raised there; it is
    about 8e-9 at q = 39 and unreachable noise otherwise."""
    if q_int < 1.0:
        return 0.0
    if q_int == 1.0:
        return _U_CLAMP_LO
    return max(_U_CLAMP_LO, math.exp(-709.0 / (q_int - 1.0)))


def _z_edge(q_int: float) -> float:
    """Support edge sqrt(2/(1 - q_int)) of the radius, for q_int < 1."""
    return math.sqrt(2.0 / (1.0 - q_int))


def _check_q_int(q_int: float) -> None:
    """The one q_int rule of the radial entry points: it must be finite."""
    if not math.isfinite(q_int):
        raise ValueError("q_int must be finite, got %r" % (q_int,))


def _check_start(q_int: float, cfg: MapConfig, z0: float) -> None:
    """Reject a non-finite q_int, and an orbit start z0 unless it is finite,
    > 0 and, for q_int < 1, below the support edge and not absorbed by the
    first radial step (_is_absorbed).  A fold output of 0 maps to the edge,
    and g_inv's underflow or the tent fold's rounding of an s*u below about
    2**-54 gives 0 from every z0 above 0.56 z_edge at q' = 0.99."""
    _check_q_int(q_int)
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
    """Reject a non-finite q_int, and a radius z unless it is finite, >= 0
    and, for q_int < 1, at most the support edge: the domain of z_map."""
    _check_q_int(q_int)
    if not (math.isfinite(z) and z >= 0.0):
        raise ValueError("z must be finite and >= 0, got %r" % (z,))
    if q_int < 1.0 and z > _z_edge(q_int):
        raise ValueError("z=%r is outside the radial support [0, %r] for q_int=%r"
                         % (z, _z_edge(q_int), q_int))


class _RadialParams(NamedTuple):
    """Constants of the radial step for one (q_int, cfg): the fields of
    _orbit.c's struct radial, in its order."""

    gaussian: bool   # |q_int - 1| < _Q_ONE_EPS: the exp/log limit branch
    tent: bool       # l == 2: the single-expression tent fold
    c: int           # folds per step
    one_m_q: float   # 1 - q_int
    u_clamp: float   # lower clamp on the fold input (0 for q_int < 1)
    u_lo: float      # floor on the fold output, _u_floor
    z_edge: float    # support edge sqrt(2/(1 - q_int)) (0 for q_int >= 1)
    s: float         # fold slope l*(1 - epsilon)


def _radial_params(q_int: float, cfg: MapConfig) -> _RadialParams:
    """The constants _radial_steps and the compiled orbit both step with."""
    return _RadialParams(
        gaussian=abs(q_int - 1.0) < _Q_ONE_EPS,
        tent=cfg.l == 2,
        c=cfg.c,
        one_m_q=1.0 - q_int,
        u_clamp=_U_CLAMP_LO if q_int >= 1.0 else 0.0,
        u_lo=_u_floor(q_int),
        z_edge=_z_edge(q_int) if q_int < 1.0 else 0.0,
        s=cfg.slope,
    )


def _radial_steps(
    q_int: float, cfg: MapConfig, z: float
) -> Iterator[Tuple[float, float, float]]:
    """The radial map's orbit from a valid z, one (z, u0, u) per step, without end.

    A step is u0 = q_exp(q_int, -z*z/2), the clamp at u_clamp, _fold, the
    floor at u_lo and z = sqrt(-2 q_ln(q_int, u)), or z_edge where u is 0.
    It yields the new z, u0 before the clamp (z_map_derivative's arithmetic
    uses that value; the chain-rule Lyapunov route applies the clamp
    itself) and u after the floor.  z is not checked; z_map does that.
    """
    _, tent, c, _, u_clamp, u_lo, z_edge, s = _radial_params(q_int, cfg)
    q_exp_, q_ln_, sqrt_ = q_exp, q_ln, math.sqrt
    while True:
        u0 = q_exp_(q_int, -z * z * 0.5)
        u = _fold(tent, s, c, u_clamp if u0 < u_clamp else u0)
        if u < u_lo:
            u = u_lo
        z = z_edge if u == 0.0 else sqrt_(-2.0 * q_ln_(q_int, u))
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
