"""Per-call Lyapunov loop: the bit oracle for stats.lyapunov.

stats.lyapunov runs the compiled loop of _orbit.c, or its Python
fallback, which steps the radial map of both routes (and the burn-in)
over one maps._radial_steps iterator.  This module keeps the loop that
composes the public scalar functions (z_map, z_map_derivative, tri_map,
q_exp, q_ln) one call at a time, so the tests can hold both loops to the
same bits.  Do not optimise it;
the package code is tested *against* it.
"""

import math

from qgauss.maps import _U_CLAMP_LO, _u_floor, tri_map, z_map, z_map_derivative
from qgauss.specfun import q_exp, q_ln


def reference_lyapunov(q_int, cfg, z0, t, burn_in=1000):
    if not (isinstance(t, int) and t > 0):
        raise ValueError("t must be a positive integer, got %r" % (t,))
    z = z0
    for _ in range(burn_in):
        z = z_map(q_int, cfg, z)
    acc = 0.0
    used = 0
    if cfg.l == 2 and cfg.c == 1:
        for _ in range(t):
            d = None
            try:
                d = z_map_derivative(q_int, z)
            except ValueError:
                pass
            z = z_map(q_int, cfg, z)
            if d and math.isfinite(d):
                acc += math.log(abs(d))
                used += 1
    else:
        s = cfg.l * (1.0 - cfg.epsilon)
        log_slope = cfg.c * math.log(s)
        q_ge_1 = q_int >= 1.0
        z_edge = math.sqrt(2.0 / (1.0 - q_int)) if q_int < 1.0 else 0.0
        u_lo = _u_floor(q_int) if q_ge_1 else 0.0
        for _ in range(t):
            u0 = q_exp(q_int, -z * z * 0.5)
            if q_ge_1 and u0 < _U_CLAMP_LO:
                u0 = _U_CLAMP_LO
            u = u0
            for _ in range(cfg.c):
                u = tri_map(cfg.l, cfg.epsilon, u)
            if q_ge_1 and u < u_lo:
                u = u_lo
            if u == 0.0:
                z_next = z_edge
            else:
                z_next = math.sqrt(-2.0 * q_ln(q_int, u))
            if u0 > 0.0 and u > 0.0 and z > 0.0 and z_next > 0.0:
                acc += (
                    log_slope
                    + q_int * (math.log(u0) - math.log(u))
                    + math.log(z)
                    - math.log(z_next)
                )
                used += 1
            z = z_next
    if used == 0:
        raise ArithmeticError("no usable steps in the Lyapunov average")
    return acc / used
