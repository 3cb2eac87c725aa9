/* Compiled orbit of the chaotic generator: generator._run in one C loop.
 *
 * Every expression has the shape and evaluation order of the Python loop
 * it replaces (generator._run_python): the circle step of the maps._p<d> /
 * maps._q<d> Horner forms with generator._RADIUS_TOL renormalization, and
 * the radial step of maps._radial_orbit.  The orbit is chaotic, so one ulp
 * anywhere changes every later sample; the build therefore uses
 * -ffp-contract=off (no fused multiply-add) and calls only libm's exp, log
 * and sqrt, the functions Python's math module calls.  The radial constants
 * come from maps._radial_params, so each is defined once, in Python.
 *
 * The fold of order l >= 3 tests the parity of k = trunc(y) with
 * fmod(k, 2.0): y reaches l*(1 - epsilon) and l is unbounded, so an integer
 * cast would overflow where Python's int(y) stays exact.
 */

#include <math.h>
#include <stdint.h>

static double radial_step(double z, int gaussian, int tent, int64_t c,
                          double one_m_q, double u_clamp, double u_lo,
                          double z_edge, double s)
{
    double u;
    if (gaussian) {
        u = exp(-z * z * 0.5);
    } else {
        double a = 1.0 + one_m_q * (-z * z * 0.5);
        u = a > 0.0 ? exp(log(a) / one_m_q) : 0.0;
    }
    if (u < u_clamp)
        u = u_clamp;
    if (tent) {
        for (int64_t j = 0; j < c; j++)
            u = 1.0 - fabs(1.0 - s * u);
    } else {
        for (int64_t j = 0; j < c; j++) {
            double y = s * u;
            double k = trunc(y);
            u = fmod(k, 2.0) != 0.0 ? (k + 1.0) - y : y - k;
            if (u < 0.0)
                u = 0.0;
            else if (u > 1.0)
                u = 1.0;
        }
    }
    if (u < u_lo)
        u = u_lo;
    if (u == 0.0)
        return z_edge;
    if (gaussian)
        return sqrt(-2.0 * log(u));
    return sqrt(-2.0 * ((exp(log(u) * one_m_q) - 1.0) / one_m_q));
}

/* (P_d(w), Q_d(w, v)), both from the old w. */
static void circle_step(int d, double *pw, double *pv)
{
    double w = *pw, v = *pv, nw, nv;
    switch (d) {
    case 2:
        nv = 2.0 * w * v;
        nw = 2.0 * w * w - 1.0;
        break;
    case 3:
        nv = v * (4.0 * w * w - 1.0);
        nw = (4.0 * w * w - 3.0) * w;
        break;
    case 4:
        nv = v * ((8.0 * w * w - 4.0) * w);
        nw = (8.0 * w * w - 8.0) * w * w + 1.0;
        break;
    case 5:
        nv = v * ((16.0 * w * w - 12.0) * w * w + 1.0);
        nw = ((16.0 * w * w - 20.0) * w * w + 5.0) * w;
        break;
    case 6:
        nv = v * (((32.0 * w * w - 32.0) * w * w + 6.0) * w);
        nw = ((32.0 * w * w - 48.0) * w * w + 18.0) * w * w - 1.0;
        break;
    case 7:
        nv = v * (((64.0 * w * w - 80.0) * w * w + 24.0) * w * w - 1.0);
        nw = (((64.0 * w * w - 112.0) * w * w + 56.0) * w * w - 7.0) * w;
        break;
    default: /* 8 */
        nv = 8.0 * w * v * (((16.0 * w * w - 24.0) * w * w + 10.0) * w * w - 1.0);
        nw = (((128.0 * w * w - 256.0) * w * w + 160.0) * w * w - 32.0) * w * w + 1.0;
        break;
    }
    *pw = nw;
    *pv = nv;
}

/* n steps from wvz = {w, v, z}: xi[i] = w_i*z_i, eta[i] = v_i*z_i, and the
 * end state written back to wvz.  The caller checks d in 2..8, c >= 1 and
 * that xi and eta hold n doubles. */
void qgauss_orbit(int d, int gaussian, int tent, int64_t c, double one_m_q,
                  double u_clamp, double u_lo, double z_edge, double s,
                  double radius_tol, double *wvz, int64_t n, double *xi,
                  double *eta)
{
    double w = wvz[0], v = wvz[1], z = wvz[2];
    for (int64_t i = 0; i < n; i++) {
        circle_step(d, &w, &v);
        double r2 = w * w + v * v;
        if (fabs(r2 - 1.0) > radius_tol) {
            double r = sqrt(r2);
            w /= r;
            v /= r;
        }
        z = radial_step(z, gaussian, tent, c, one_m_q, u_clamp, u_lo, z_edge, s);
        xi[i] = w * z;
        eta[i] = v * z;
    }
    wvz[0] = w;
    wvz[1] = v;
    wvz[2] = z;
}
