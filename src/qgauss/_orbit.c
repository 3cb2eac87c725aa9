/* Compiled loops of the chaotic generator, its Lyapunov estimate and the
 * Monte Carlo null.
 *
 * The library has four entry points.  qgauss_orbit is generator._run in
 * one C loop, and qgauss_lyapunov is stats.lyapunov's burn-in and average.
 * qgauss_take fills a block of generator.UniformStream words, and
 * qgauss_scores forms stats._both_statistics' two EDF statistics of rows of
 * sorted values; the null's sort stays in numpy.  Every expression has the
 * shape and evaluation order of the Python or numpy code it replaces
 * (generator._run_python, stats._lyapunov_python, generator._take_numpy,
 * stats._both_statistics_numpy): the circle step of maps._circle_step's
 * Horner forms with generator._RADIUS_TOL renormalization, and the radial
 * step of maps._radial_steps, written once here as its conjugation halves
 * g_inv, clamp, fold (with its floor) and g, which the first two entry
 * points call.  The orbit is chaotic, so one ulp anywhere
 * changes every later sample; the build therefore uses -ffp-contract=off
 * (no fused multiply-add) and calls only libm's exp, log, pow and sqrt, the
 * functions Python's math module and float power call.  The radial
 * constants come from maps._radial_params, so each is defined once, in
 * Python.
 *
 * The fold of order l >= 3 tests the parity of k = trunc(y) with
 * fmod(k, 2.0): y reaches l*(1 - epsilon) and l is unbounded, so an integer
 * cast would overflow where Python's int(y) stays exact.
 *
 * Where the Python Lyapunov loop raises, qgauss_lyapunov returns the status
 * that _orbit.lyapunov turns into the same exception type: a zero base to a
 * negative power and a division by zero are ZeroDivisionError, a float
 * power or math.exp out of double range is OverflowError.  Products, sums
 * and underflow to zero raise nothing in Python and are not checked here.
 */

#include <errno.h>
#include <math.h>
#include <stdint.h>

enum { QG_OK = 0, QG_ZERO_DIVISION = 1, QG_OVERFLOW = 2 };

/* The constants of maps._RadialParams, in its order. */
struct radial {
    int gaussian;
    int tent;
    int64_t c;
    double one_m_q, u_clamp, u_lo, z_edge, s;
};

/* g_inv(z) = q_exp(q_int, -z*z/2): the fold input before its clamp. */
static inline double g_inv(const struct radial *p, double z)
{
    if (p->gaussian)
        return exp(-z * z * 0.5);
    double a = 1.0 + p->one_m_q * (-z * z * 0.5);
    return a > 0.0 ? exp(log(a) / p->one_m_q) : 0.0;
}

static inline double clamp(const struct radial *p, double u)
{
    return u < p->u_clamp ? p->u_clamp : u;
}

/* c folds of the clamped fold input, then the floor at u_lo. */
static inline double fold(const struct radial *p, double u)
{
    if (p->tent) {
        for (int64_t j = 0; j < p->c; j++)
            u = 1.0 - fabs(1.0 - p->s * u);
    } else {
        for (int64_t j = 0; j < p->c; j++) {
            double y = p->s * u;
            double k = trunc(y);
            u = fmod(k, 2.0) != 0.0 ? (k + 1.0) - y : y - k;
            if (u < 0.0)
                u = 0.0;
            else if (u > 1.0)
                u = 1.0;
        }
    }
    return u < p->u_lo ? p->u_lo : u;
}

/* g(u) = sqrt(-2 q_ln(q_int, u)); a fold output of 0 is the support edge. */
static inline double g(const struct radial *p, double u)
{
    if (u == 0.0)
        return p->z_edge;
    if (p->gaussian)
        return sqrt(-2.0 * log(u));
    return sqrt(-2.0 * ((exp(log(u) * p->one_m_q) - 1.0) / p->one_m_q));
}

static inline double radial_step(const struct radial *p, double z)
{
    return g(p, fold(p, clamp(p, g_inv(p, z))));
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
    const struct radial p = {gaussian, tent, c, one_m_q, u_clamp, u_lo, z_edge, s};
    double w = wvz[0], v = wvz[1], z = wvz[2];
    for (int64_t i = 0; i < n; i++) {
        circle_step(d, &w, &v);
        double r2 = w * w + v * v;
        if (fabs(r2 - 1.0) > radius_tol) {
            double r = sqrt(r2);
            w /= r;
            v /= r;
        }
        z = radial_step(&p, z);
        xi[i] = w * z;
        eta[i] = v * z;
    }
    wvz[0] = w;
    wvz[1] = v;
    wvz[2] = z;
}

/* x ** y as Python's float power evaluates it, for finite x >= 0: a zero
 * base to a negative power raises ZeroDivisionError, and a result that libm
 * reports out of range (other than underflow to zero) OverflowError. */
static int py_pow(double x, double y, double *r)
{
    if (x == 0.0 && y < 0.0)
        return QG_ZERO_DIVISION;
    errno = 0;
    *r = pow(x, y);
    if (isinf(*r) || (errno == ERANGE && *r != 0.0))
        return QG_OVERFLOW;
    return QG_OK;
}

/* The Lyapunov average of stats._lyapunov_python: burn_in radial steps from
 * z, then t steps whose log-derivatives are summed into *acc, *used counting
 * the steps not skipped.  l = 2, c = 1 (tent with one fold) averages the
 * analytic derivative of maps.z_map_derivative, taken on each step's u
 * before the clamp; every other map sums the chain-rule terms
 * c*log(s) + q*(log u0 - log u) + log z - log z_next.  Returns QG_OK, or the
 * status of the first step where the Python loop raises (see the header);
 * *acc and *used are then not written.  The caller checks c >= 1 and
 * burn_in, t >= 0. */
int qgauss_lyapunov(int gaussian, int tent, int64_t c, double one_m_q,
                    double u_clamp, double u_lo, double z_edge, double s,
                    double q_int, double z, int64_t burn_in, int64_t t,
                    double *acc, int64_t *used)
{
    const struct radial p = {gaussian, tent, c, one_m_q, u_clamp, u_lo, z_edge, s};
    double sum = 0.0;
    int64_t n = 0;
    for (int64_t i = 0; i < burn_in; i++)
        z = radial_step(&p, z);
    if (tent && c == 1) {
        /* z* = sqrt(-2 q_ln(q_int, 1/2)); infinite where q_ln's math.exp
         * overflows, which Python raises as OverflowError. */
        double z_star = g(&p, 0.5);
        if (isinf(z_star))
            return QG_OVERFLOW;
        double scale = pow(2.0, one_m_q);
        for (int64_t i = 0; i < t; i++) {
            double u = g_inv(&p, z);
            double d = 0.0;
            if (z > 0.0 && fabs(z - z_star) > 1e-9) {
                double num, w;
                if (z > z_star) {
                    num = scale * z;
                    w = 2.0 * u;
                } else {
                    double a, b;
                    int st = py_pow(1.0 - u, -q_int, &a);
                    if (st == QG_OK)
                        st = py_pow(u, q_int, &b);
                    if (st != QG_OK)
                        return st;
                    num = -scale * a * b * z;
                    w = 2.0 * (1.0 - u);
                }
                if (w > 0.0) {
                    double x;
                    if (gaussian) {
                        x = -2.0 * log(w);
                    } else {
                        double e = exp(log(w) * one_m_q);
                        if (isinf(e))
                            return QG_OVERFLOW;
                        x = -2.0 * ((e - 1.0) / one_m_q);
                    }
                    if (x >= 0.0) {
                        double r = sqrt(x);
                        if (r == 0.0)
                            return QG_ZERO_DIVISION;
                        d = num / r;
                    }
                }
            }
            z = g(&p, fold(&p, clamp(&p, u)));
            if (d != 0.0 && isfinite(d)) {
                sum += log(fabs(d));
                n++;
            }
        }
    } else {
        double log_slope = (double)c * log(s);
        for (int64_t i = 0; i < t; i++) {
            double u0 = clamp(&p, g_inv(&p, z));
            double u = fold(&p, u0);
            double z_next = g(&p, u);
            if (u0 > 0.0 && u > 0.0 && z > 0.0 && z_next > 0.0) {
                sum += log_slope + q_int * (log(u0) - log(u)) + log(z) - log(z_next);
                n++;
            }
            z = z_next;
        }
    }
    *acc = sum;
    *used = n;
    return QG_OK;
}

/* SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) as generator.UniformStream
 * draws it: out[k-1] is word k = mix64(state + k*gamma mod 2**64) for
 * k = 1..n, mapped to ((word >> 11) + 0.5) * 2**-53 and clamped at
 * 1 - 2**-53.  word >> 11 has 53 bits, so its conversion to double is
 * exact, and the sum, product and clamp are the IEEE operations numpy
 * performs.  The caller checks that out holds n doubles. */
void qgauss_take(uint64_t state, int64_t n, double *out)
{
    const double u_max = 1.0 - 0x1p-53;
    uint64_t x = state;
    for (int64_t i = 0; i < n; i++) {
        x += UINT64_C(0x9E3779B97F4A7C15);
        uint64_t w = x;
        w ^= w >> 30;
        w *= UINT64_C(0xBF58476D1CE4E5B9);
        w ^= w >> 27;
        w *= UINT64_C(0x94D049BB133111EB);
        w ^= w >> 31;
        double u = ((double)(w >> 11) + 0.5) * 0x1p-53;
        out[i] = u < u_max ? u : u_max;
    }
}

/* The (KS, tail-weighted) statistics of each of rows rows of M sorted
 * values F (row-major), in stats._both_statistics_numpy's expression
 * shapes: dev = max(hi - f, f - lo) over the EDF steps hi = i/M and
 * lo = (i-1)/M; w = f clipped to [1/(2M), 1 - 1/(2M)], then w*(1 - w),
 * its sqrt and dev over the sqrt; ks[r] and ad[r] are the row maxima times
 * sqrt(M).  A row that holds a NaN gives NaN for both, as numpy's max
 * does.  The caller checks M >= 1 and every array's length.
 *
 * The tail-weighted term skips the sqrt and the divide where
 * dev*dev < gate*p, with p = w*(1 - w) and gate = ma*ma*(1 - 1e-9) for the
 * row's running maximum ma.  Each of dev*dev, ma*ma, the product by
 * 1 - 1e-9 and the product by p rounds by at most 2**-53 relative, so a
 * skipped term has dev/sqrt(p) < ma*(1 - 5e-10 + 3e-16); the sqrt and the
 * divide add at most a few ulps (about 3e-16) to it, so its computed value
 * is below ma and cannot change the maximum.  No term is skipped while
 * ma is 0, and no NaN or infinite dev is ever skipped. */
void qgauss_scores(const double *F, int64_t rows, int64_t M, const double *hi,
                   const double *lo, double *ks, double *ad)
{
    const double w_lo = 1.0 / (2.0 * (double)M);
    const double w_hi = 1.0 - 1.0 / (2.0 * (double)M);
    const double root_m = sqrt((double)M);
    for (int64_t r = 0; r < rows; r++, F += M) {
        double mk = 0.0, ma = 0.0, gate = 0.0;
        int has_nan = 0;
        for (int64_t i = 0; i < M; i++) {
            double f = F[i];
            double a = hi[i] - f, b = f - lo[i];
            double dev = a > b ? a : b;
            double w = f < w_lo ? w_lo : f;
            if (w > w_hi)
                w = w_hi;
            double p = w * (1.0 - w);
            has_nan |= f != f;
            if (dev > mk)
                mk = dev;
            if (dev * dev < gate * p)
                continue;
            double t = dev / sqrt(p);
            if (t > ma) {
                ma = t;
                gate = ma * ma * (1.0 - 1e-9);
            }
        }
        ks[r] = has_nan ? NAN : root_m * mk;
        ad[r] = has_nan ? NAN : root_m * ma;
    }
}
