/* Compiled loops of the chaotic generator, its Lyapunov estimate, the
 * Monte Carlo null, the transform sampler and the CSV rows.
 *
 * The library has six entry points.  qgauss_orbit is generator._run in
 * one C loop, and qgauss_lyapunov is stats.lyapunov's burn-in and average.
 * qgauss_take fills a block of generator.UniformStream words, and
 * qgauss_scores forms stats._both_statistics' two EDF statistics of rows of
 * sorted values; the null's sort stays in numpy.  qgauss_gbmm is
 * generator.gbmm_generate's gbmm_sample loop, and qgauss_write_rows
 * formats rows of doubles as cli._format_rows does, in "%.17g".  Every
 * expression has the shape and evaluation order of the Python or numpy
 * code it replaces (generator._run_python, stats._lyapunov_python,
 * generator._take_numpy, stats._both_statistics_numpy,
 * generator.gbmm_sample): circle_step is maps._circle_step, one
 * maps.chebyshev_pair step with its renormalization, and radial_step one
 * maps.z_map step, written as its halves g_inv, clamp, fold (floored by
 * floor_u) and g; qgauss_gbmm calls floor_u and g for gbmm_sample's radius.
 * The orbit is chaotic, so one ulp anywhere changes every later sample;
 * the build therefore uses -ffp-contract=off (no fused multiply-add) and
 * calls only libm's exp, log, pow, sqrt, cos and sin, the functions
 * Python's math module and float power call.  The radial constants come
 * from maps._radial_params, so each is defined once, in Python, and reach
 * the entry points as one struct radial, by pointer.
 *
 * The row writer forms the 17 digits of a double exactly, in 128-bit
 * integers (Gay, "Correctly Rounded Binary-Decimal and Decimal-Binary
 * Conversions", 1990, and Adams, "Ryu revisited", OOPSLA 2019, treat the
 * general case): m * 10**p >> -e or (m << e) / 10**-p, rounded half to
 * even from the remainder, as Python's dtoa and glibc's printf round.
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

static inline double radial_step(const struct radial *p, double z)
{
    return g(p, fold(p, clamp(p, g_inv(p, z))));
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

/* n steps from wvz = {w, v, z}: xi[i] = w_i*z_i, eta[i] = v_i*z_i, and the
 * end state written back to wvz.  The caller checks d in 2..8, p->c >= 1
 * and that xi and eta hold n doubles. */
void qgauss_orbit(int d, const struct radial *p, double radius_tol,
                  double *wvz, int64_t n, double *xi, double *eta)
{
    double w = wvz[0], v = wvz[1], z = wvz[2];
    for (int64_t i = 0; i < n; i++) {
        circle_step(d, radius_tol, &w, &v);
        z = radial_step(p, z);
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
 * *acc and *used are then not written.  The caller checks p->c >= 1 and
 * burn_in, t >= 0. */
int qgauss_lyapunov(const struct radial *p, double q_int, double z,
                    int64_t burn_in, int64_t t, double *acc, int64_t *used)
{
    double sum = 0.0;
    int64_t n = 0;
    for (int64_t i = 0; i < burn_in; i++)
        z = radial_step(p, z);
    if (p->tent && p->c == 1) {
        /* z* = sqrt(-2 q_ln(q_int, 1/2)); infinite where q_ln's math.exp
         * overflows, which Python raises as OverflowError. */
        double z_star = g(p, 0.5);
        if (isinf(z_star))
            return QG_OVERFLOW;
        double scale = pow(2.0, p->one_m_q);
        for (int64_t i = 0; i < t; i++) {
            double u = g_inv(p, z);
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
                    if (p->gaussian) {
                        x = -2.0 * log(w);
                    } else {
                        double e = exp(log(w) * p->one_m_q);
                        if (isinf(e))
                            return QG_OVERFLOW;
                        x = -2.0 * ((e - 1.0) / p->one_m_q);
                    }
                    if (x >= 0.0) {
                        double r = sqrt(x);
                        if (r == 0.0)
                            return QG_ZERO_DIVISION;
                        d = num / r;
                    }
                }
            }
            z = g(p, fold(p, clamp(p, u)));
            if (d != 0.0 && isfinite(d)) {
                sum += log(fabs(d));
                n++;
            }
        }
    } else {
        double log_slope = (double)p->c * log(p->s);
        for (int64_t i = 0; i < t; i++) {
            double u0 = clamp(p, g_inv(p, z));
            double u = fold(p, u0);
            double z_next = g(p, u);
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
 * shapes: dev = max(hi - f, f - lo) over the EDF steps, rows hi = i/M and
 * lo = (i-1)/M of steps; w = f clipped to [1/(2M), 1 - 1/(2M)], then
 * w*(1 - w), its sqrt and dev over the sqrt; rows 0 (KS) and 1 of out are
 * the row maxima times sqrt(M).  A row that holds a NaN gives NaN for
 * both, as numpy's max does.  The caller checks M >= 1 and the shapes.
 *
 * The tail-weighted term skips the sqrt and the divide where
 * dev*dev < gate*p, with p = w*(1 - w) and gate = ma*ma*(1 - 1e-9) for the
 * row's running maximum ma.  Each of dev*dev, ma*ma, the product by
 * 1 - 1e-9 and the product by p rounds by at most 2**-53 relative, so a
 * skipped term has dev/sqrt(p) < ma*(1 - 5e-10 + 3e-16); the sqrt and the
 * divide add at most a few ulps (about 3e-16) to it, so its computed value
 * is below ma and cannot change the maximum.  No term is skipped while
 * ma is 0, and no NaN or infinite dev is ever skipped. */
void qgauss_scores(const double *F, int64_t rows, int64_t M,
                   const double *steps, double *out)
{
    const double w_lo = 1.0 / (2.0 * (double)M);
    const double w_hi = 1.0 - 1.0 / (2.0 * (double)M);
    const double root_m = sqrt((double)M);
    for (int64_t r = 0; r < rows; r++, F += M) {
        double mk = 0.0, ma = 0.0, gate = 0.0;
        int has_nan = 0;
        for (int64_t i = 0; i < M; i++) {
            double f = F[i];
            double a = steps[i] - f, b = f - steps[M + i];
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
        out[r] = has_nan ? NAN : root_m * mk;
        out[rows + r] = has_nan ? NAN : root_m * ma;
    }
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
            q = n >> -e;
            rem = n - (q << -e);
            den = (u128)1 << -e;
        } else if (p < 0 && p >= -22 && e >= 0 && e <= 74) {
            /* (m << e) / 10**-p: m << e < 2**127. */
            u128 n = (u128)m << e;
            den = pow10_u128(-p);
            q = n / den;
            rem = n - q * den;
        } else if (p >= 0 && p <= 17 && e > 0 && e <= 10) {
            /* An integer from 2**53 up with at most 17 digits:
             * m * 2**e * 10**p < 2**63 * 2**57, exact. */
            q = ((u128)m << e) * pow10_u128(p);
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
        uint64_t d = (uint64_t)q;
        if (2 * rem > den || (2 * rem == den && (d & 1)))
            d++;
        if (d == pow10_u64[17]) {
            d = pow10_u64[16];
            ++*x10;
        }
        return d;
    }
}

static const char two_digits[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The 8 decimal digits of v < 10**8 at s. */
static void put8(char *s, uint32_t v)
{
    for (int i = 6; i >= 0; i -= 2) {
        memcpy(s + i, two_digits + 2 * (v % 100), 2);
        v /= 100;
    }
}

/* x as Python's "%.17g" % x formats it, written at out; returns the number
 * of bytes, at most 24: a sign, 17 digits, a point and "e-308".  A nan is "nan" whatever its sign, as
 * Python prints it (glibc prints "-nan"), and is never passed to snprintf.
 * Finite values outside digits17's range go to snprintf, which glibc
 * rounds exactly, half to even. */
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
    if (bits >> 63)
        *p++ = '-';
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
    char digit[17];
    uint64_t hi = d / 100000000;
    digit[0] = (char)('0' + hi / 100000000);
    put8(digit + 1, (uint32_t)(hi % 100000000));
    put8(digit + 9, (uint32_t)(d % 100000000));
    int nd = 17;
    while (digit[nd - 1] == '0')
        nd--;
    if (x10 < -4 || x10 >= 17) {
        *p++ = digit[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, digit + 1, (size_t)(nd - 1));
            p += nd - 1;
        }
        *p++ = 'e';
        *p++ = x10 < 0 ? '-' : '+';
        int a = x10 < 0 ? -x10 : x10;
        if (a >= 100)
            *p++ = (char)('0' + a / 100);
        *p++ = (char)('0' + a / 10 % 10);
        *p++ = (char)('0' + a % 10);
    } else if (x10 >= 0) {
        memcpy(p, digit, (size_t)(x10 + 1));
        p += x10 + 1;
        if (nd > x10 + 1) {
            *p++ = '.';
            memcpy(p, digit + x10 + 1, (size_t)(nd - x10 - 1));
            p += nd - x10 - 1;
        }
    } else {
        *p++ = '0';
        *p++ = '.';
        for (int i = -1; i > x10; i--)
            *p++ = '0';
        memcpy(p, digit, (size_t)nd);
        p += nd;
    }
    return (int)(p - out);
}

/* The rows rows of cols values of x (row-major) as CSV: each value in
 * "%.17g", the values of a row joined by ',' and each row ended by '\n'.
 * Returns the bytes written to out.  The caller checks cols >= 1 and that
 * out holds 25 bytes per value (format_g17's 24 and a separator). */
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
