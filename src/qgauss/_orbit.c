/* Compiled loops of the chaotic generator, its Lyapunov estimate, the
 * Monte Carlo null, the transform sampler and the CSV rows.
 *
 * The library has seven entry points.  qgauss_orbit is generator._run in
 * one C loop, over orbits that share a map and q_int, and qgauss_lyapunov
 * is stats.lyapunov's burn-in and average.
 * qgauss_take fills a block of generator.UniformStream words, and
 * qgauss_scores forms stats._both_statistics' two EDF statistics of rows of
 * sorted values; the null's sort stays in numpy.  qgauss_bounded_scores
 * forms the same two statistics of one sample under
 * distribution.cdf_array_direct, stats._score's, from the cdf values of
 * only the samples that can hold a maximum, each block of sorted samples
 * bracketed by the values at its ends; both add each value through one
 * edf_add.  qgauss_gbmm is generator.gbmm_generate's gbmm_sample loop,
 * and qgauss_write_rows formats rows of doubles as cli._format_rows does,
 * in "%.17g".  Every expression has the shape and evaluation order of the
 * Python or numpy code it replaces (generator._run_python,
 * stats._lyapunov_python, generator._take_numpy,
 * stats._both_statistics_numpy, distribution.cdf_array_direct,
 * generator.gbmm_sample): circle_step is maps._circle_step, one
 * maps.chebyshev_pair step with its renormalization, and radial_step one
 * maps._radial_steps step (z, u0, u) of each of up to LANES lanes, of
 * halves g_inv, clamp, fold (floored by floor_u) and g, which every orbit
 * and Lyapunov loop steps through; qgauss_gbmm calls floor_u and g for
 * gbmm_sample's radius.
 * qgauss_orbit steps up to LANES orbits in lockstep: radial_step runs
 * each half over every lane before the next, so the orbits' serial chains
 * of exp and log calls, which wait on each call's latency, overlap.  Each
 * lane takes exactly its own orbit's operations and branches, so the bits
 * are those of the orbit stepped alone; the Lyapunov loops step one lane.
 * The orbit is chaotic, so one ulp anywhere changes every later sample;
 * the build therefore uses -ffp-contract=off (no fused multiply-add) and
 * calls only libm's exp, log, pow, sqrt, cos and sin, the functions
 * Python's math module and float power call.  The radial constants come
 * from maps._radial_params, so each is defined once, in Python, and reach
 * the entry points as one struct radial, by pointer.
 *
 * The cdf values of qgauss_bounded_scores come from scipy's own scalar
 * kernels, which the betainc and ndtr ufuncs evaluate: the caller reads
 * their addresses from scipy.special.cython_special's capsules
 * (distribution._direct_kernels, which checks each capsule's signature)
 * and passes them as typed function pointers, betainc_fn and ndtr_fn
 * below.  This file neither links scipy nor converts between object and
 * function pointers.
 *
 * The row writer forms the 17 digits of a double exactly, in 128-bit
 * integers (Gay, "Correctly Rounded Binary-Decimal and Decimal-Binary
 * Conversions", 1990, and Adams, "Ryu revisited", OOPSLA 2019, treat the
 * general case): m * 10**p >> -e or (m << e) / 10**-p, rounded half to
 * even from the remainder, as Python's dtoa and glibc's printf round.
 * It turns them into text 8 digits at a time in one 64-bit word (SWAR:
 * each multiply divides every lane of the word at once), and stores whole
 * words, counting the bytes that stand after.
 *
 * The fold of order l >= 3 tests the parity of k = trunc(y) with
 * fmod(k, 2.0): y reaches s = l*(1 - epsilon), and l <= 2**63 - 1, but at
 * epsilon = 0 the slope of l = 2**63 - 1 rounds up to 2**63, where an int64
 * cast of trunc(y) would overflow while Python's int(y) stays exact.
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
#include <stdio.h>
#include <string.h>

enum { QG_OK = 0, QG_ZERO_DIVISION = 1, QG_OVERFLOW = 2 };

/* maps._RadialParams: its fields, in its order, as _orbit._Radial has them. */
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

/* u floored at u_lo, maps._u_floor's value: fold's output, gbmm's u1. */
static inline double floor_u(const struct radial *p, double u)
{
    return u < p->u_lo ? p->u_lo : u;
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
        }
    }
    return floor_u(p, u);
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

/* Orbits that qgauss_orbit steps together, at most; _orbit.LANES repeats
 * it.  exp and log take about twice as long to return as to issue, so a
 * few lanes already fill the core, and 8 keeps the lane arrays small. */
enum { LANES = 8 };

/* One radial step of each of k lanes: z_next[j] = g(u[j]), with u0[j] =
 * g_inv(z[j]) before the clamp and u[j] the fold output; z_next may be z.
 * Each half runs over every lane before the next half starts, so the
 * lanes' independent chains of libm calls overlap, and every lane takes
 * exactly the operations, and the branches, of its own orbit. */
static inline void radial_step(const struct radial *p, int k, const double *z,
                               double *u0, double *u, double *z_next)
{
    for (int j = 0; j < k; j++)
        u0[j] = g_inv(p, z[j]);
    for (int j = 0; j < k; j++)
        u[j] = fold(p, clamp(p, u0[j]));
    for (int j = 0; j < k; j++)
        z_next[j] = g(p, u[j]);
}

/* (P_d(w), Q_d(w, v)), both from the old w, divided by its radius where
 * r2 is more than tol from 1. */
static inline void circle_step(int d, double tol, double *pw, double *pv)
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
    double r2 = nw * nw + nv * nv;
    if (fabs(r2 - 1.0) > tol) {
        double r = sqrt(r2);
        nw /= r;
        nv /= r;
    }
    *pw = nw;
    *pv = nv;
}

/* n steps of each of m <= LANES orbits from wvz[3j..3j+2] = {w, v, z} of
 * orbit j, in lockstep, through one radial_step of all m lanes per step;
 * row j of xi and eta (n doubles each, row-major) gets orbit j's outputs
 * and the end state is written back to wvz.  Always inlined, so a call
 * with a constant m is compiled for that m. */
static inline __attribute__((always_inline)) void
orbit_lanes(int d, const struct radial *p, double radius_tol, int m,
            double *wvz, int64_t n, double *xi, double *eta)
{
    double w[LANES], v[LANES], z[LANES], u0[LANES], u[LANES];
    for (int j = 0; j < m; j++) {
        w[j] = wvz[3 * j];
        v[j] = wvz[3 * j + 1];
        z[j] = wvz[3 * j + 2];
    }
    for (int64_t i = 0; i < n; i++) {
        for (int j = 0; j < m; j++)
            circle_step(d, radius_tol, &w[j], &v[j]);
        radial_step(p, m, z, u0, u, z);
        for (int j = 0; j < m; j++) {
            xi[j * n + i] = w[j] * z[j];
            eta[j * n + i] = v[j] * z[j];
        }
    }
    for (int j = 0; j < m; j++) {
        wvz[3 * j] = w[j];
        wvz[3 * j + 1] = v[j];
        wvz[3 * j + 2] = z[j];
    }
}

/* n steps of each of k orbits that share d and p, from wvz[3j..3j+2] =
 * {w, v, z} of orbit j: row j of xi and eta (k rows of n, row-major) gets
 * xi[i] = w_i*z_i and eta[i] = v_i*z_i, and the end state is written back
 * to wvz.  The orbits step LANES at a time (orbit_lanes).  A lone orbit,
 * as generate and step run it, gets orbit_lanes compiled for one lane:
 * its values then stay in registers, and its step costs what a one-orbit
 * loop's does.  The caller checks d in 2..8, p->c >= 1, k >= 0 and that
 * xi and eta hold k*n doubles. */
void qgauss_orbit(int d, const struct radial *p, double radius_tol,
                  int64_t k, double *wvz, int64_t n, double *xi, double *eta)
{
    for (int64_t j0 = 0; j0 < k; j0 += LANES) {
        int m = k - j0 < LANES ? (int)(k - j0) : LANES;
        if (m == 1)
            orbit_lanes(d, p, radius_tol, 1, wvz + 3 * j0, n, xi + j0 * n, eta + j0 * n);
        else
            orbit_lanes(d, p, radius_tol, m, wvz + 3 * j0, n, xi + j0 * n, eta + j0 * n);
    }
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
 * analytic derivative of maps.z_map_derivative, num/g(w), at each step's u0;
 * every other map sums c*log(s) + q*(log u0 - log u) + log z - log z_next,
 * with u0 clamped.  Returns QG_OK, or the status of the first step where the
 * Python loop raises (see the header); *acc and *used are then not written.
 * The caller checks p->c >= 1 and burn_in, t >= 0. */
int qgauss_lyapunov(const struct radial *p, double q_int, double z,
                    int64_t burn_in, int64_t t, double *acc, int64_t *used)
{
    double sum = 0.0, u0, u;
    int64_t n = 0;
    for (int64_t i = 0; i < burn_in; i++)
        radial_step(p, 1, &z, &u0, &u, &z);
    if (p->tent && p->c == 1) {
        /* z* = g(1/2), infinite where Python's math.exp overflows. */
        double z_star = g(p, 0.5);
        if (isinf(z_star))
            return QG_OVERFLOW;
        /* 2**(1 - q_int), whose status is returned where the Python loop
         * first forms it: the first step it calls _fold_derivative at. */
        double scale;
        int scale_st = py_pow(2.0, p->one_m_q, &scale);
        for (int64_t i = 0; i < t; i++) {
            double z_next;
            radial_step(p, 1, &z, &u0, &u, &z_next);
            double d = 0.0;
            if (z > 0.0 && fabs(z - z_star) > 1e-9) {
                double num, w;
                if (scale_st != QG_OK)
                    return scale_st;
                if (z > z_star) {
                    num = scale * z;
                    w = 2.0 * u0;
                } else {
                    double a, b;
                    int st = py_pow(1.0 - u0, -q_int, &a);
                    if (st == QG_OK)
                        st = py_pow(u0, q_int, &b);
                    if (st != QG_OK)
                        return st;
                    num = -scale * a * b * z;
                    w = 2.0 * (1.0 - u0);
                }
                /* g(0) is the edge, where q_ln raises; an inf g(w) is
                 * math.exp's overflow, a nan one math.sqrt's ValueError. */
                if (w > 0.0) {
                    double r = g(p, w);
                    if (isinf(r))
                        return QG_OVERFLOW;
                    if (r == 0.0)
                        return QG_ZERO_DIVISION;
                    d = num / r;
                }
            }
            if (d != 0.0 && isfinite(d)) {
                sum += log(fabs(d));
                n++;
            }
            z = z_next;
        }
    } else {
        double log_slope = (double)p->c * log(p->s);
        for (int64_t i = 0; i < t; i++) {
            double z_next;
            radial_step(p, 1, &z, &u0, &u, &z_next);
            u0 = clamp(p, u0);
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

/* The running maxima of the (KS, tail-weighted) EDF statistics, before
 * their factor sqrt(M): mk of the deviations, ma of the tail-weighted
 * terms, and gate = ma*ma*(1 - 1e-9) (see qgauss_scores). */
struct edf_max {
    double mk, ma, gate;
};

/* Adds the cdf value f at EDF steps hi = i/M and lo = (i-1)/M to m, in
 * stats._both_statistics_numpy's expression shapes: dev = max(hi - f,
 * f - lo); w = f clipped to [w_lo, w_hi], then w*(1 - w), its sqrt and
 * dev over the sqrt.  Both entry points that score add every value
 * through it. */
static inline void edf_add(struct edf_max *m, double f, double hi, double lo,
                           double w_lo, double w_hi)
{
    double a = hi - f, b = f - lo;
    double dev = a > b ? a : b;
    double w = f < w_lo ? w_lo : f;
    if (w > w_hi)
        w = w_hi;
    double p = w * (1.0 - w);
    if (dev > m->mk)
        m->mk = dev;
    if (dev * dev < m->gate * p)
        return;
    double t = dev / sqrt(p);
    if (t > m->ma) {
        m->ma = t;
        m->gate = t * t * (1.0 - 1e-9);
    }
}

/* The (KS, tail-weighted) statistics of each of rows rows of M sorted
 * values F (row-major), added one by one through edf_add against rows
 * hi = i/M and lo = (i-1)/M of steps; rows 0 (KS) and 1 of out are the
 * row maxima times sqrt(M).  A row that holds a NaN gives NaN for both,
 * as numpy's max does.  The caller checks M >= 1 and the shapes.
 *
 * The tail-weighted term skips the sqrt and the divide where
 * dev*dev < gate*p, with p = w*(1 - w) and gate = ma*ma*(1 - 1e-9) for the
 * row's running maximum ma.  Each of dev*dev, ma*ma, the product by
 * 1 - 1e-9 and the product by p rounds by at most 2**-53 relative, so a
 * skipped term has dev/sqrt(p) < ma*(1 - 5e-10 + 3e-16); the sqrt and the
 * divide add at most a few ulps (about 3e-16) to it, so its computed value
 * is below ma and cannot change the maximum.  No term is skipped while
 * ma is 0, and no NaN or infinite dev is ever skipped.  The maxima are
 * therefore those of every term, in any order of the values. */
void qgauss_scores(const double *F, int64_t rows, int64_t M,
                   const double *steps, double *out)
{
    const double w_lo = 1.0 / (2.0 * (double)M);
    const double w_hi = 1.0 - 1.0 / (2.0 * (double)M);
    const double root_m = sqrt((double)M);
    for (int64_t r = 0; r < rows; r++, F += M) {
        struct edf_max m = {0.0, 0.0, 0.0};
        int has_nan = 0;
        for (int64_t i = 0; i < M; i++) {
            double f = F[i];
            edf_add(&m, f, steps[i], steps[M + i], w_lo, w_hi);
            has_nan |= f != f;
        }
        out[r] = has_nan ? NAN : root_m * m.mk;
        out[rows + r] = has_nan ? NAN : root_m * m.ma;
    }
}

/* scipy's scalar kernels as scipy.special.cython_special exports them
 * (__pyx_fuse_0betainc and __pyx_fuse_1ndtr); the last argument is
 * Cython's skip-dispatch flag, passed as 0. */
typedef double (*betainc_fn)(double, double, double, int);
typedef double (*ndtr_fn)(double, int);

/* distribution.cdf_array_direct's branches. */
enum { CDF_GAUSSIAN = 0, CDF_COMPACT = 1, CDF_HEAVY = 2 };

/* Samples per top-level block, and the size at or below which a part of
 * an unordered block that may hold a maximum is evaluated whole.  Block b
 * spans samples b*BLOCK to (b + 1)*BLOCK, both included, so neighbouring
 * blocks share their end sample. */
enum { BLOCK = 64, LEAF = 2 };

/* How far a kernel value may fall as its argument grows: betainc(0.5, a,
 * t) on [0, 1] and ndtr on the reals are monotone to one ulp (the largest
 * descent over 8e5 sorted arguments at 17 q' was 1.1e-16). */
static const double KERNEL_SLACK = 1e-13;

struct direct {
    const double *x, *steps;
    int64_t M;
    int branch;
    double a, half_width, w_lo, w_hi;
    betainc_fn betainc;
    ndtr_fn ndtr;
    double *t;       /* each sample's kernel argument */
    double *v;       /* its kernel value, NaN until evaluated */
    struct edf_max m;
    int has_nan;
    int64_t calls;
};

static inline double sign_of(double x)
{
    return x > 0.0 ? 1.0 : x < 0.0 ? -1.0 : 0.0;
}

/* fmin and fmax without the libm call: the same wherever b is not NaN. */
static inline double min2(double a, double b)
{
    return a < b ? a : b;
}

static inline double max2(double a, double b)
{
    return a > b ? a : b;
}

/* x on the compact support's edges, where cdf_array_direct sets F to 0
 * or 1 whatever the kernel gives. */
static inline int direct_edge(const struct direct *d, double x)
{
    return d->branch == CDF_COMPACT && (x <= -d->half_width || x >= d->half_width);
}

/* F of sample i from its kernel value v: ndtr(x) for the Gaussian, else
 * 0.5*(1 + sign(x)*v), and 0 or 1 on the edges. */
static inline double direct_cdf(const struct direct *d, int64_t i, double v)
{
    double x = d->x[i];
    if (d->branch == CDF_GAUSSIAN)
        return v;
    if (direct_edge(d, x))
        return x < 0.0 ? 0.0 : 1.0;
    return 0.5 * (1.0 + sign_of(x) * v);
}

static inline void direct_add(struct direct *d, int64_t i, double v)
{
    edf_add(&d->m, direct_cdf(d, i, v), d->steps[i], d->steps[d->M + i],
            d->w_lo, d->w_hi);
}

/* Sample i's kernel argument t, formed as cdf_array_direct forms it, its
 * value not yet evaluated, and on the edges its F scored; a NaN x has a
 * NaN F, whatever t is.  Returns t with the sign of x, which ascends
 * along a sorted sample unless rounding breaks its order. */
static inline double direct_start(struct direct *d, double k, int64_t i)
{
    double x = d->x[i], y = k * x * x, t;
    if (d->branch == CDF_GAUSSIAN) {
        t = x;
    } else if (d->branch == CDF_COMPACT) {
        t = y > 1.0 ? 1.0 : y; /* y >= 0 */
    } else {
        t = min2(y / (1.0 + y), 1.0); /* fmin(y/(1 + y), 1), 1 for NaN too */
    }
    d->t[i] = t;
    d->v[i] = NAN;
    d->has_nan |= x != x;
    if (direct_edge(d, x))
        direct_add(d, i, 0.0);
    return copysign(t, x);
}

/* The first sample at or above x = 0 of the ordered block [i0, i1] where
 * x crosses 0 inside it and F takes the sign of x; else 0.  Past the
 * samples with t = 0, x has the sign of the signed t, which ascends. */
static int64_t direct_crossing(const struct direct *d, int64_t i0, int64_t i1)
{
    if (d->branch == CDF_GAUSSIAN || !(d->x[i0] < 0.0 && d->x[i1] >= 0.0))
        return 0;
    while (d->x[i0 + 1] < 0.0)
        i0++;
    return i0 + 1;
}

/* Sample i scored exactly: its kernel value, evaluated on first use.  On
 * the edges the value only brackets others; F stays 0 or 1. */
static double direct_value(struct direct *d, int64_t i)
{
    double v = d->v[i];
    if (v != v) {
        v = d->branch == CDF_GAUSSIAN ? d->ndtr(d->t[i], 0)
                                      : d->betainc(0.5, d->a, d->t[i], 0);
        d->v[i] = v;
        d->calls++;
        d->has_nan |= v != v;
        direct_add(d, i, v);
    }
    return v;
}

/* Every sample of [i0, i1) off the edges and not yet scored given the
 * kernel value v, that of the one argument they share. */
static void direct_fill(struct direct *d, int64_t i0, int64_t i1, double v)
{
    for (int64_t i = i0; i < i1; i++) {
        if (d->v[i] != d->v[i] && !direct_edge(d, d->x[i])) {
            d->v[i] = v;
            direct_add(d, i, v);
        }
    }
}

/* Whether a sample of [i0, i1) whose kernel value lies between v0 and v1,
 * in either order, and whose sign of x lies in [s_lo, s_hi] may raise
 * either maximum.  The bracket is widened by KERNEL_SLACK; rounding is
 * monotone, so it bounds each F, each deviation and (with a relative
 * 1e-12 for the rounding of w*(1 - w), its sqrt and the divide) each
 * tail-weighted term.  Once a value is NaN both statistics are NaN, and
 * nothing more is evaluated. */
static int direct_open(const struct direct *d, int64_t i0, int64_t i1, double v0,
                       double v1, double s_lo, double s_hi)
{
    if (d->has_nan)
        return 0;
    double in_lo = min2(v0, v1) - KERNEL_SLACK, in_hi = max2(v0, v1) + KERNEL_SLACK;
    double f_lo = in_lo, f_hi = in_hi;
    if (d->branch != CDF_GAUSSIAN) {
        /* s*v over s in [s_lo, s_hi], v in [in_lo, in_hi]: the corners */
        double c0 = s_lo * in_lo, c1 = s_lo * in_hi, c2 = s_hi * in_lo, c3 = s_hi * in_hi;
        f_lo = 0.5 * (1.0 + min2(min2(c0, c1), min2(c2, c3)));
        f_hi = 0.5 * (1.0 + max2(max2(c0, c1), max2(c2, c3)));
    }
    double a = d->steps[i1 - 1] - f_lo, b = f_hi - d->steps[d->M + i0];
    double dev = max2(a, b);
    double w0 = min2(max2(f_lo, d->w_lo), d->w_hi);
    double w1 = min2(max2(f_hi, d->w_lo), d->w_hi);
    double p = min2(w0 * (1.0 - w0), w1 * (1.0 - w1));
    double tail = dev / sqrt(p) * (1.0 + 1e-12);
    return !(dev <= d->m.mk && tail <= d->m.ma);
}

/* Scores the samples strictly between a and c that may raise either
 * maximum, where t with the sign of x ascends over [a, c], and x stays
 * on one side of 0 for the non-Gaussian branches (a sample with t = 0
 * has F = 1/2 on either side).  The values at a and c are known and
 * bracket every value between (direct_open); a and c may lie on the
 * edges.  A part whose bound cannot pass the running maxima is dropped,
 * and any other is split at its midpoint, the one new value the two
 * halves need. */
static void direct_refine(struct direct *d, int64_t a, int64_t c)
{
    if (c - a < 2)
        return;
    double va = d->v[a], vc = d->v[c];
    if (d->t[a] == d->t[c]) {
        direct_fill(d, a + 1, c, va); /* one argument between */
        return;
    }
    if (!direct_open(d, a + 1, c, va, vc, sign_of(d->x[a]), sign_of(d->x[c])))
        return;
    int64_t mid = a + (c - a) / 2;
    direct_value(d, mid);
    direct_refine(d, a, mid);
    direct_refine(d, mid, c);
}

/* The samples of [i0, i1) off the edges with the smallest and the largest
 * argument, both -1 if there are none, and the signs of the smallest and
 * the largest of their x. */
static void direct_extremes(const struct direct *d, int64_t i0, int64_t i1,
                            int64_t *lo, int64_t *hi, double *s_lo, double *s_hi)
{
    double x_lo = INFINITY, x_hi = -INFINITY;
    *lo = *hi = -1;
    for (int64_t i = i0; i < i1; i++) {
        double x = d->x[i];
        if (direct_edge(d, x))
            continue;
        if (*lo < 0 || d->t[i] < d->t[*lo])
            *lo = i;
        if (*hi < 0 || d->t[i] > d->t[*hi])
            *hi = i;
        x_lo = x < x_lo ? x : x_lo;
        x_hi = x > x_hi ? x : x_hi;
    }
    *s_lo = sign_of(x_lo);
    *s_hi = sign_of(x_hi);
}

/* direct_refine over [i0, i1) where t breaks order: each part is
 * bracketed by the values at its own smallest and largest argument, which
 * a scan of the part finds, and is halved at its midpoint. */
static void direct_refine_unordered(struct direct *d, int64_t i0, int64_t i1)
{
    int64_t lo, hi;
    double s_lo, s_hi;
    direct_extremes(d, i0, i1, &lo, &hi, &s_lo, &s_hi);
    if (lo < 0)
        return;
    double v_lo = direct_value(d, lo), v_hi = direct_value(d, hi);
    if (d->t[lo] == d->t[hi]) {
        direct_fill(d, i0, i1, v_lo); /* one argument */
        return;
    }
    if (!direct_open(d, i0, i1, v_lo, v_hi, s_lo, s_hi))
        return;
    if (i1 - i0 <= LEAF) {
        for (int64_t i = i0; i < i1; i++)
            if (!direct_edge(d, d->x[i]))
                direct_value(d, i);
        return;
    }
    int64_t mid = i0 + (i1 - i0) / 2;
    direct_refine_unordered(d, i0, mid);
    direct_refine_unordered(d, mid, i1);
}

/* stats._score's two statistics, (KS, tail-weighted) into out[0] and
 * out[1], of the M samples x, with the bits qgauss_scores gives the
 * values of distribution.cdf_array_direct at x, from the values of only
 * the samples that can hold a maximum.  x may come in any order; sorted,
 * which stats._score passes, few blocks survive (bound and prune, Land
 * & Doig, Econometrica 28, 1960).
 *
 * The kernel argument t of each sample is formed as cdf_array_direct
 * forms it: x for the Gaussian (branch CDF_GAUSSIAN, F = ndtr(t)); below
 * q' = 1 (CDF_COMPACT) y = k*x*x clipped to [0, 1]; above (CDF_HEAVY)
 * fmin(y/(1 + y), 1), and F = 0.5*(1 + sign(x)*betainc(0.5, a, t)), set
 * to 0 at x <= -half_width and 1 at x >= half_width below q' = 1.  The
 * kernels come from the caller as typed function pointers.
 *
 * The loop that forms t notes, per block, whether t with the sign of x
 * ascends, as it does along a sorted sample unless rounding breaks its
 * order (y/(1 + y) does near y = 2**53, where it takes 1, 1 - 2**-53 and
 * 1 - 2**-52 out of order).  F of a sample off the edges is monotone in
 * that signed t, so an ordered block is bracketed by its end values once
 * it is split where x crosses 0.  The values at every block's ends, each
 * shared by two blocks, and on both sides of each crossing are evaluated
 * first, so both maxima start high.  Then direct_refine bounds each
 * ordered part from its end values alone, and a block that breaks order
 * falls back to direct_refine_unordered.  No block is scanned twice.
 * Returns the number of kernel calls.  A NaN x, or a NaN among the cdf
 * values it evaluates, gives NaN for both, as qgauss_scores and
 * cdf_array_direct do.  work holds 2*M + M/BLOCK + 1
 * doubles: each sample's argument and kernel value, and each block's
 * crossing (its first sample at or above x = 0, 0 for none, -1 where it
 * breaks order).  The caller checks M >= 1, the branch and the shapes. */
int64_t qgauss_bounded_scores(const double *x, int64_t M, int branch, double k,
                              double a, double half_width, const double *steps,
                              betainc_fn betainc, ndtr_fn ndtr,
                              double *work, double *out)
{
    struct direct d = {
        .x = x, .steps = steps, .M = M, .branch = branch, .a = a,
        .half_width = half_width, .w_lo = 1.0 / (2.0 * (double)M),
        .w_hi = 1.0 - 1.0 / (2.0 * (double)M), .betainc = betainc,
        .ndtr = ndtr, .t = work, .v = work + M,
    };
    double *cross = work + 2 * M;
    const int64_t blocks = (M + BLOCK - 2) / BLOCK;
    double s_prev = direct_start(&d, k, 0);
    for (int64_t b = 0; b < blocks; b++) {
        int64_t i0 = b * BLOCK, i1 = i0 + BLOCK < M - 1 ? i0 + BLOCK : M - 1;
        int ordered = 1;
        for (int64_t i = i0 + 1; i <= i1; i++) {
            double s = direct_start(&d, k, i);
            ordered &= s >= s_prev;
            s_prev = s;
        }
        cross[b] = ordered ? (double)direct_crossing(&d, i0, i1) : -1.0;
    }
    for (int64_t b = 0; b < blocks; b++) {
        int64_t c = (int64_t)cross[b];
        direct_value(&d, b * BLOCK);
        if (c > 0) {
            direct_value(&d, c - 1);
            direct_value(&d, c);
        }
    }
    direct_value(&d, M - 1);
    for (int64_t b = 0; b < blocks; b++) {
        int64_t i0 = b * BLOCK, i1 = i0 + BLOCK < M - 1 ? i0 + BLOCK : M - 1;
        int64_t c = (int64_t)cross[b];
        if (c < 0) {
            direct_refine_unordered(&d, i0 + 1, i1);
        } else if (c > 0) {
            direct_refine(&d, i0, c - 1);
            direct_refine(&d, c, i1);
        } else {
            direct_refine(&d, i0, i1);
        }
    }
    const double root_m = sqrt((double)M);
    out[0] = d.has_nan ? NAN : root_m * d.m.mk;
    out[1] = d.has_nan ? NAN : root_m * d.m.ma;
    return d.calls;
}

/* generator.gbmm_sample over n pairs: xi[i], eta[i] from u1 = u[2i] and
 * u2 = u[2i+1].  The radius is g of u1 floored at p->u_lo, which is
 * gbmm_sample's sqrt(-2 q_ln(q_int, u1)) in the same shapes, and the angle
 * is 2*pi*u2, with pi the double math.pi.  The caller checks that u holds
 * 2n values in (0, 1) and xi and eta n doubles. */
void qgauss_gbmm(const struct radial *p, const double *u, int64_t n,
                 double *xi, double *eta)
{
    for (int64_t i = 0; i < n; i++) {
        double u1 = u[2 * i];
        double r = g(p, floor_u(p, u1));
        double a = 2.0 * 3.141592653589793 * u[2 * i + 1];
        xi[i] = r * cos(a);
        eta[i] = r * sin(a);
    }
}

__extension__ typedef unsigned __int128 u128;

static const uint64_t pow10_u64[20] = {
    UINT64_C(1), UINT64_C(10), UINT64_C(100), UINT64_C(1000),
    UINT64_C(10000), UINT64_C(100000), UINT64_C(1000000),
    UINT64_C(10000000), UINT64_C(100000000), UINT64_C(1000000000),
    UINT64_C(10000000000), UINT64_C(100000000000),
    UINT64_C(1000000000000), UINT64_C(10000000000000),
    UINT64_C(100000000000000), UINT64_C(1000000000000000),
    UINT64_C(10000000000000000), UINT64_C(100000000000000000),
    UINT64_C(1000000000000000000), UINT64_C(10000000000000000000),
};

/* 10**k for 0 <= k <= 38. */
static u128 pow10_u128(int k)
{
    return k < 20 ? pow10_u64[k] : (u128)pow10_u64[19] * pow10_u128(k - 19);
}

/* The 17 significant digits of |x| = m * 2**e (m < 2**53) as an integer
 * in [10**16, 10**17), rounded half to even, and *x10 set to the decimal
 * exponent of its first digit; 0 where the 128-bit quotient does not hold
 * the exact value: p = 16 - *x10 outside -22..22, or a shift out of range.
 * x10 holds an estimate on entry that may be off by one either way. */
static uint64_t digits17(uint64_t m, int e, int *x10)
{
    for (;;) {
        int p = 16 - *x10;
        u128 q, rem, den;
        if (p >= 0 && p <= 22 && e > -128 && e <= 0) {
            /* m * 10**p / 2**-e: m * 10**p < 2**53 * 2**73. */
            u128 n = (u128)m * pow10_u128(p);
            den = (u128)1 << -e;
            q = n >> -e;
            rem = n & (den - 1);
        } else if (p < 0 && p >= -22 && e >= 0 && e <= 74) {
            /* (m << e) / 10**-p: m << e < 2**127. */
            u128 n = (u128)m << e;
            den = pow10_u128(-p);
            q = n / den;
            rem = n - q * den;
        } else if (p >= 0 && p <= 17 && e > 0 && e <= 10) {
            /* An integer from 2**53 up with at most 17 digits:
             * m * 2**e * 10**p < 2**63 * 2**57, exact.  Shifted last: a
             * loop-invariant m << e is hoisted ahead of every value. */
            q = ((u128)m * pow10_u128(p)) << e;
            rem = 0;
            den = 1;
        } else {
            return 0;
        }
        if (q < pow10_u64[16]) {
            --*x10;
            continue;
        }
        if (q >= pow10_u64[17]) {
            ++*x10;
            continue;
        }
        /* Half to even in one comparison: 2 * rem + (d & 1) > den above
         * the half, and at the half only where d is odd.  No branch: the
         * way it goes is as random as the digits. */
        uint64_t d = (uint64_t)q;
        d += 2 * rem + (d & 1) > den;
        if (d == pow10_u64[17]) {
            d = pow10_u64[16];
            ++*x10;
        }
        return d;
    }
}

/* The 8 decimal digits of v < 10**8, each as its value 0..9 in one byte
 * of the result, the first digit in the lowest byte: v splits into two
 * 4-digit halves, one per 32-bit lane, then each lane into two 2-digit
 * quarters, one per 16-bit lane, then each quarter into two digits, one
 * per byte, with every lane's quotient taken by one multiply and shift:
 * (x * 10486) >> 20 is x / 100 for x < 10**4, and (x * 103) >> 10 is
 * x / 10 for x < 100.  No lane's product reaches the next lane, and the
 * bits a shift brings down from a higher lane are masked off. */
static inline uint64_t digits8(uint32_t v)
{
    uint64_t halves = (uint64_t)(v / 10000) | (uint64_t)(v % 10000) << 32;
    uint64_t hundreds = (halves * 10486 >> 20) & UINT64_C(0x0000007f0000007f);
    uint64_t quarters = hundreds | (halves - 100 * hundreds) << 16;
    uint64_t tens = (quarters * 103 >> 10) & UINT64_C(0x000f000f000f000f);
    return tens | (quarters - 10 * tens) << 8;
}

/* The bytes of digits8's word as ASCII, lowest byte first, at s. */
static void put8(char *s, uint64_t digits)
{
    digits += UINT64_C(0x3030303030303030);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    digits = __builtin_bswap64(digits);
#endif
    memcpy(s, &digits, 8);
}

/* x as Python's "%.17g" % x formats it, written at out; returns the number
 * of bytes, at most 24: a sign, 17 digits, a point and "e-308".  The
 * digits go out as 8-byte stores of digits8's words, each layout placing
 * them with no copy of variable length and no scan for trailing zeros,
 * and the count is taken after: a store may reach 26 bytes from out, past
 * the bytes counted, which the next field or separator overwrites.  A nan
 * is "nan" whatever its sign, as Python prints it (glibc prints "-nan"),
 * and is never passed to snprintf.  Finite values outside digits17's
 * range go to snprintf, which glibc rounds exactly, half to even. */
static int format_g17(double x, char *out)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int biased = (int)((bits >> 52) & 0x7ff);
    uint64_t frac = bits & ((UINT64_C(1) << 52) - 1);
    char *p = out;
    if (biased == 0x7ff && frac != 0) {
        memcpy(p, "nan", 3);
        return 3;
    }
    /* The sign is stored always and counted where it is set: a branch on
     * it would be mispredicted on half of a symmetric sample. */
    *p = '-';
    p += bits >> 63;
    if (biased == 0x7ff) {
        memcpy(p, "inf", 3);
        return (int)(p - out) + 3;
    }
    if (biased == 0 && frac == 0) {
        *p++ = '0';
        return (int)(p - out);
    }
    /* floor(k * log10(2)) for 2**k <= |x|, give or take one, which
     * digits17 corrects. */
    int k = biased - 1023;
    int x10 = k >= 0 ? (k * 78913) >> 18 : -((-k * 78913) >> 18) - 1;
    uint64_t d = biased == 0 ? 0 : digits17(frac | (UINT64_C(1) << 52), biased - 1075, &x10);
    if (d == 0) {
        char tmp[32];
        int len = snprintf(tmp, sizeof tmp, "%.17g", x);
        memcpy(out, tmp, (size_t)len);
        return len;
    }
    /* d's first digit, then two words of 8; nd counts the digits up to the
     * last nonzero one, from the zero bytes that end the words. */
    uint32_t hi = (uint32_t)(d / 100000000);
    char first = (char)('0' + hi / 100000000);
    uint64_t mid = digits8(hi % 100000000);
    uint64_t lo = digits8((uint32_t)(d % 100000000));
    int nd = lo ? 17 - (__builtin_clzll(lo) >> 3)
           : mid ? 9 - (__builtin_clzll(mid) >> 3) : 1;
    if (x10 <= 0 && x10 >= -4) {
        /* |x| < 10, the usual case, without a branch on x10: the first
         * digit, or "0." and -x10 - 1 zeros before it, then the rest. */
        int z = -x10;
        memcpy(p, "0.000000", 8);
        p[0] = z ? '0' : first;
        p[1 + z] = first;
        p[1] = '.';
        put8(p + 2 + z, mid);
        put8(p + 10 + z, lo);
        return (int)(p - out) + z + nd + (z || nd > 1);
    }
    if (x10 > 0 && x10 < 16) {
        /* The first x10 + 1 digits, a point, and the rest, if any is
         * nonzero: the word that holds the point is stored again one byte
         * on, from the point's place. */
        int ip = x10 + 1;
        p[0] = first;
        put8(p + 1, mid);
        if (ip <= 8) {
            put8(p + ip + 1, mid >> 8 * (ip - 1));
            put8(p + 10, lo);
        } else {
            put8(p + 9, lo);
            put8(p + ip + 1, lo >> 8 * (ip - 9));
        }
        p[ip] = '.';
        return (int)(p - out) + (nd > ip ? nd + 1 : ip);
    }
    /* 17 digits, or one digit, a point and the rest, if any is nonzero,
     * then the exponent: a sign and at least two digits. */
    p[0] = first;
    if (x10 == 16) {
        put8(p + 1, mid);
        put8(p + 9, lo);
        return (int)(p - out) + 17;
    }
    p[1] = '.';
    put8(p + 2, mid);
    put8(p + 10, lo);
    p += nd > 1 ? nd + 1 : 1;
    *p++ = 'e';
    *p++ = x10 < 0 ? '-' : '+';
    int a = x10 < 0 ? -x10 : x10;
    if (a >= 100)
        *p++ = (char)('0' + a / 100);
    *p++ = (char)('0' + a / 10 % 10);
    *p++ = (char)('0' + a % 10);
    return (int)(p - out);
}

/* The rows rows of cols values of x (row-major) as CSV: each value in
 * "%.17g", the values of a row joined by ',' and each row ended by '\n'.
 * Returns the bytes written to out.  The caller checks cols >= 1 and that
 * out holds 26 bytes per value: format_g17 counts at most 24 and a
 * separator follows, but its stores may reach 26 bytes from the field's
 * start. */
int64_t qgauss_write_rows(const double *x, int64_t rows, int64_t cols, char *out)
{
    char *p = out;
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t j = 0; j < cols; j++) {
            p += format_g17(*x++, p);
            *p++ = j + 1 < cols ? ',' : '\n';
        }
    }
    return p - out;
}
