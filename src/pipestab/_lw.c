/* The time loop of `pipestab.dynamics`, and the boundary disturbance b(t).
 *
 * `lw_advance` takes two-step Lax-Wendroff (Richtmyer) steps of a batch,
 * one after another, each from one of its two states into the other.  Per
 * step and member it computes the time step min(cfl_dx / speed, t_snap -
 * t), the disturbance b and b_t at t + dt, the CFL test, the predictor, the
 * corrector, both boundary closures, the u update, the guard test on
 * max|u|, t + dt, the next wave speed max|ubar + u| + a, and writes the
 * step's records into the run's records at the step's index and the
 * member's slot: t, max|u|, b, b_t, max|u_x|, max|u_t| and the E1 and H1
 * integrals of the new state.  It returns to Python only when the records
 * are full, a member reaches its next snapshot time or its t_end, or a
 * member fails the CFL test (before the step) or its guard (after it):
 * then no member takes that step, and each failed member's status, value
 * and time are left in `io` for its message.  `lw_sample_b` is the
 * disturbance alone, which `disturbance.sample_b` calls.
 *
 * Every value is computed by the same IEEE operations, in the same order,
 * as the Python and NumPy forms kept in tests/oracles.py and in
 * `lyapunov.energy_E1` and `h1_integrand`, whose sums `lyapunov._dot`
 * adds node after node, as here; so the results are equal bit for bit.
 * The maxima alone are taken in another order, which gives the same
 * result, as `maxima` says.
 * That holds only when the compiler neither contracts a * b + c into a
 * fused multiply-add nor reorders arithmetic, and calls libm's pow, exp,
 * sin and cos as Python's ** and math module do, instead of folding
 * pow(x, 2.0) into x * x or sin and cos into sincos: build with
 * -ffp-contract=off -fno-builtin and without -ffast-math.  The callers
 * check shapes, dtypes, contiguity and indices before they pass pointers.
 *
 * The per-node kernels of a step (`predictor`, `corrector`, `finish` and
 * `maxima`) are branch-free and restrict-qualified, so that the compiler
 * vectorises them: the first three element-wise, `maxima` in independent
 * lanes.  The E1 and H1 sums are added in a serial loop after `finish`, in
 * node order; when the new state holds a NaN, the maxima are taken again
 * in node order (`nan_maxima`), so that the same NaN comes out.  A vector
 * lane adds, multiplies, divides and compares with the rounding of the
 * scalar operation, so the vector width changes no bit.  With GCC on
 * x86-64 Linux each kernel is built twice, for AVX2 and for the baseline
 * ISA, and the loader picks the clone the CPU runs (`CLONES`); the AVX2
 * target has no FMA, and contraction is off.
 *
 * A batch whose `split` m is less than n splits each member's step at
 * node m between the calling thread, which takes nodes [0, m), and one
 * helper thread, which takes [m, n); lw_advance starts the helper and
 * joins it before it returns, so no thread outlives a call.  With m = n
 * the calling thread takes every node, in the same member loop.  Each
 * part runs the same kernels on its own nodes and computes the cells its
 * corrector reads, so the parts need no barrier between predictor and
 * corrector.  The caller sums its nodes' terms from -0.0 and hands over
 * its partial sums; the helper adds its nodes' terms to them, so each sum
 * keeps node order.  The maxima of the two parts are folded, which is
 * exact; the NaN rescan reads the whole member.  Only the caller writes
 * records, tests the guard and decides to stop.  So a split step gives
 * the bits of an unsplit one.
 */
#define _GNU_SOURCE     /* pthreads, sched_yield and CPU affinity, under -std=c99 */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stddef.h>

/* The rows of io, as dynamics.IO names them: each member's loop state, the
 * outcome of a step it failed, its slot, then its disturbance. */
enum { T, T_SNAP, T_END, CFL_DX, GUARD, SPEED, DT, TOP, STATUS, VALUE, AT, SLOT, DISTURBANCE };

/* The records of a step, as dynamics.RECORDS names them. */
enum { R_T, R_MAX_U, R_B, R_B_T, R_MAX_UX, R_MAX_UT, R_E1, R_H1 };

/* The values of STATUS. */
enum { RUNNING, CFL_FAILED, GUARD_FAILED };

/* The parameters of a disturbance, as DisturbanceSpec.parameters orders them;
 * FAMILY is an index into disturbance.FAMILIES. */
enum { FAMILY, AMPLITUDE, FREQUENCY, GAMMA, T_PERIOD, PHASE, T_OFF };
enum { ZERO, DECAYING_BURST, COMPACT_BURST };

#define PI 3.141592653589793    /* math.pi */

/* The per-node kernels' clones: one built for AVX2, one for the baseline ISA,
 * chosen at load time, so that a cached build runs on any x86-64 CPU. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__linux__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CLONES
#endif

typedef struct {
    long members;               /* B */
    long n;                     /* grid nodes per member */
    long runs;                  /* slots of the records */
    long capacity;              /* steps the records hold */
    long split;                 /* m: n for one thread, else 3 <= m <= n - 3 */
    double dx;
    double *states;             /* (2, 3, B, n): u, v, w of the two states */
    double *half;               /* (3, lw_half_row(n)): one member's u, v, w at t + dt/2
                                   on the cells, and its nodes' terms of E1 and H1: see lw_part */
    double *share;              /* (B, SHARE): each member's sums and maxima */
    double *io;                 /* (rows of dynamics.IO, B) */
    const double *weights;      /* (n,): the trapezoid weights */
    const double *two_decay;    /* (n,): 2 exp(-x/L), E1's cross-term weight */
    const double *coefficients; /* (5, B): a, a^2, k, theta, 1.5 theta */
    const double *ubar;         /* (B, n) at the nodes */
    const double *ubar_x;
    const double *ubar_m;       /* (B, n - 1) on the midpoints */
    const double *ubarx_m;
    const double *d_bar_m;      /* (B, n - 1): stationary forcing on the midpoints */
    const double *f_bar_m;
    const double *d_bar_i;      /* (B, n - 2): stationary forcing at the interior nodes */
    const double *f_bar_i;
    double *records;            /* (8, runs, capacity): dynamics.RECORDS by slot and step */
} lw_batch;

/* Quintic smoothstep s(p) on [0, 1] and its first two derivatives: 0 with
 * flat derivatives for p <= 0, 1 with flat derivatives for p >= 1. */
static void smoothstep(double p, double out[3])
{
    if (p <= 0.0) {
        out[0] = out[1] = out[2] = 0.0;
    } else if (p >= 1.0) {
        out[0] = 1.0;
        out[1] = out[2] = 0.0;
    } else {
        out[0] = pow(p, 3.0) * (10.0 + p * (-15.0 + 6.0 * p));
        out[1] = 30.0 * pow(p, 2.0) * (1.0 + p * (-2.0 + p));
        out[2] = 60.0 * p * (1.0 + p * (-3.0 + 2.0 * p));
    }
}

/* (b, b_t, b_tt) at time t >= 0 of the disturbance whose parameters are
 * p[0], p[stride], ...: a decaying carrier A e^(-gamma t) sin(2 pi f t +
 * phase), switched on by a smoothstep over the ramp T_period / 2, so that
 * b, b_t and b_tt vanish at t = 0.  A compact burst is switched off by a
 * second smoothstep over [t_off - ramp, t_off] and is zero from t_off on.
 */
static void disturbance(const double *p, long stride, double t, double out[3])
{
    const double family = p[FAMILY * stride], A = p[AMPLITUDE * stride];
    out[0] = out[1] = out[2] = 0.0;
    if (family == ZERO || A == 0.0)
        return;

    const double ramp = 0.5 * p[T_PERIOD * stride];
    double on[3];
    smoothstep(t / ramp, on);
    const double s = on[0], ds = on[1] / ramp, dds = on[2] / pow(ramp, 2.0);

    const double g_amp = p[GAMMA * stride];
    const double om = 2.0 * PI * p[FREQUENCY * stride];
    const double ph = p[PHASE * stride];
    const double e = exp(-g_amp * t);
    const double sn = sin(om * t + ph);
    const double cs = cos(om * t + ph);
    const double g = e * sn;
    const double dg = e * (-g_amp * sn + om * cs);
    const double ddg = e * ((pow(g_amp, 2.0) - pow(om, 2.0)) * sn - 2.0 * g_amp * om * cs);

    double b = A * s * g;
    double bt = A * (ds * g + s * dg);
    double btt = A * (dds * g + 2.0 * ds * dg + s * ddg);

    if (family == COMPACT_BURST) {
        /* C^2 cutoff descending on [t_off - ramp, t_off], identically zero after */
        const double t_off = p[T_OFF * stride];
        if (t >= t_off)
            return;
        const double r0 = t_off - ramp;
        if (t > r0) {
            double off[3];
            smoothstep((t - r0) / ramp, off);
            const double c = 1.0 - off[0], dc = -off[1] / ramp, ddc = -off[2] / pow(ramp, 2.0);
            const double b0 = b, bt0 = bt;
            b = b0 * c;
            bt = bt0 * c + b0 * dc;
            btt = btt * c + 2.0 * bt0 * dc + b0 * ddc;
        }
    }
    out[0] = b;
    out[1] = bt;
    out[2] = btt;
}

void lw_sample_b(const double *parameters, double t, double *out)
{
    disturbance(parameters, 1, t, out);
}

/* The v of one cell at the end of a half step, from the averages (um, vm,
 * wm) and the differences (dv, dw) of (u, v, w) over the cell:
 *
 *     base_v - c (2 m dv - d dw) + e F,
 *
 * with m = ubar + um, d = a^2 - m^2 and the lower-order term
 * F = F~(m, wm + ubar_x, vm) - (d / d_bar) f_bar.  __builtin_fabs clears
 * the sign bit, as fabs does, where -fno-builtin would make fabs a call.
 */
static inline double half_step_v(double base_v, double um, double vm, double wm,
                                 double dv, double dw, double ubar, double ubar_x,
                                 double d_bar, double f_bar, double a2, double theta,
                                 double theta_1_5, double c, double e)
{
    double m = ubar + um;
    double d = a2 - m * m;
    double x = wm + ubar_x;
    double abs_m = __builtin_fabs(m);
    double two_m = 2.0 * m;
    double f = -2.0 * vm * x;
    f = f - two_m * (x * x);
    f = f - theta_1_5 * m * abs_m * x;
    f = f - theta * abs_m * vm;
    f = f - d / d_bar * f_bar;
    return base_v - c * (two_m * dv - d * dw) + e * f;
}

/* The predictor over `cells` cells, from (u, v, w) at its cells + 1 nodes:
 * each cell's v from its own averages, w = wm + c dv and u = um + e v. */
static CLONES void predictor(long cells, const double *restrict u, const double *restrict v,
                             const double *restrict w, const double *restrict ubar,
                             const double *restrict ubar_x, const double *restrict d_bar,
                             const double *restrict f_bar, double a2, double theta,
                             double theta_1_5, double c, double e, double *restrict out_u,
                             double *restrict out_v, double *restrict out_w)
{
    for (long j = 0; j < cells; j++) {
        const double um = 0.5 * (u[j] + u[j + 1]);
        const double vm = 0.5 * (v[j] + v[j + 1]);
        const double wm = 0.5 * (w[j] + w[j + 1]);
        const double dv = v[j + 1] - v[j];
        const double out = half_step_v(vm, um, vm, wm, dv, w[j + 1] - w[j], ubar[j], ubar_x[j],
                                       d_bar[j], f_bar[j], a2, theta, theta_1_5, c, e);
        out_v[j] = out;
        out_w[j] = wm + c * dv;
        out_u[j] = um + e * out;
    }
}

/* The corrector over `cells` cells, from the half-step values at their
 * cells + 1 ends: v from base_v, w = base_w + c dv. */
static CLONES void corrector(long cells, const double *restrict u, const double *restrict v,
                             const double *restrict w, const double *restrict ubar,
                             const double *restrict ubar_x, const double *restrict d_bar,
                             const double *restrict f_bar, double a2, double theta,
                             double theta_1_5, double c, double e,
                             const double *restrict base_v, const double *restrict base_w,
                             double *restrict out_v, double *restrict out_w)
{
    for (long j = 0; j < cells; j++) {
        const double um = 0.5 * (u[j] + u[j + 1]);
        const double vm = 0.5 * (v[j] + v[j + 1]);
        const double wm = 0.5 * (w[j] + w[j + 1]);
        const double dv = v[j + 1] - v[j];
        out_v[j] = half_step_v(base_v[j], um, vm, wm, dv, w[j + 1] - w[j], ubar[j], ubar_x[j],
                               d_bar[j], f_bar[j], a2, theta, theta_1_5, c, e);
        out_w[j] = base_w[j] + c * dv;
    }
}

/* u at t + dt over n nodes, u + half_dt (v + vn), and each node's terms of
 * the new state's integrals: of k [(a^2 - m^2) u_x^2 + u_t^2] - 2 exp(-x/L)
 * [m u_x^2 + u_t u_x], m = ubar + u, with a squared as a * a (E1), and of
 * u^2 + u_t^2 + u_x^2 (H1), each times its trapezoid weight. */
static CLONES void finish(long n, const double *restrict u, const double *restrict v,
                          const double *restrict vn, const double *restrict wn,
                          const double *restrict ubar, const double *restrict two_decay,
                          const double *restrict weights, double k, double a_a, double half_dt,
                          double *restrict un, double *restrict e1_terms,
                          double *restrict h1_terms)
{
    for (long j = 0; j < n; j++) {
        const double uj = u[j] + half_dt * (v[j] + vn[j]), vj = vn[j], wj = wn[j];
        const double m = ubar[j] + uj, w2 = wj * wj;
        un[j] = uj;
        e1_terms[j] = (k * ((a_a - m * m) * w2 + vj * vj) - two_decay[j] * (m * w2 + vj * wj))
                      * weights[j];
        h1_terms[j] = ((uj * uj + vj * vj) + w2) * weights[j];
    }
}

/* max|u|, max|u_x|, max|u_t| and max|ubar + u| over n >= 1 nodes, into
 * top[0..3], where no value is NaN.  A maximum of magnitudes that are not
 * NaN is the same in any order, and no smaller than +0.0, so each is taken
 * in LANES independent lanes that start at +0.0, and the lanes are folded
 * at the end; the tail of n % LANES nodes goes to lane 0.  The lane loop
 * is the one the compiler vectorises; unrolled first, it would only be
 * vectorised in part. */
enum { LANES = 8 };
static CLONES void maxima(long n, const double *restrict u, const double *restrict ux,
                          const double *restrict ut, const double *restrict ubar,
                          double *restrict top)
{
    double lane[4][LANES] = {{0.0}};
    const long body = n - n % LANES;
    for (long j = 0; j < body; j += LANES) {
#pragma GCC unroll 1
        for (long l = 0; l < LANES; l++) {
            const double x0 = __builtin_fabs(u[j + l]), x1 = __builtin_fabs(ux[j + l]);
            const double x2 = __builtin_fabs(ut[j + l]);
            const double x3 = __builtin_fabs(ubar[j + l] + u[j + l]);
            lane[0][l] = x0 > lane[0][l] ? x0 : lane[0][l];
            lane[1][l] = x1 > lane[1][l] ? x1 : lane[1][l];
            lane[2][l] = x2 > lane[2][l] ? x2 : lane[2][l];
            lane[3][l] = x3 > lane[3][l] ? x3 : lane[3][l];
        }
    }
    for (long j = body; j < n; j++) {
        const double x0 = __builtin_fabs(u[j]), x1 = __builtin_fabs(ux[j]);
        const double x2 = __builtin_fabs(ut[j]), x3 = __builtin_fabs(ubar[j] + u[j]);
        lane[0][0] = x0 > lane[0][0] ? x0 : lane[0][0];
        lane[1][0] = x1 > lane[1][0] ? x1 : lane[1][0];
        lane[2][0] = x2 > lane[2][0] ? x2 : lane[2][0];
        lane[3][0] = x3 > lane[3][0] ? x3 : lane[3][0];
    }
    for (long r = 0; r < 4; r++) {
        top[r] = lane[r][0];
        for (long l = 1; l < LANES; l++)
            top[r] = lane[r][l] > top[r] ? lane[r][l] : top[r];
    }
}

/* The max of np.maximum.reduce: NaN as soon as one value is NaN. */
static double nan_max(double top, double x)
{
    return (x > top || x != x) ? x : top;
}

/* The maxima of `maxima` where a value may be NaN: taken in node order, so
 * that the NaN the serial reduction gives is the one that comes out. */
static void nan_maxima(long n, const double *u, const double *ux, const double *ut,
                       const double *ubar, double *top)
{
    top[0] = top[1] = top[2] = top[3] = -1.0;
    for (long j = 0; j < n; j++) {
        top[0] = nan_max(top[0], __builtin_fabs(u[j]));
        top[1] = nan_max(top[1], __builtin_fabs(ux[j]));
        top[2] = nan_max(top[2], __builtin_fabs(ut[j]));
        top[3] = nan_max(top[3], __builtin_fabs(ubar[j] + u[j]));
    }
}

/* A member's row of `share`, what a step leaves of it for its records:
 * the E1 and H1 sums, then max|u|, max|u_x|, max|u_t| and max|ubar + u| of
 * nodes [0, m), then those of [m, n) when split. */
enum { E1_SUM, H1_SUM, TOP_0, TOP_1 = TOP_0 + 4, SHARE = TOP_1 + 4 };

/* A row of `half` is n doubles rounded up to 4: rows start 32 bytes apart.
 * dynamics.StepWork sizes `share` and `half` by lw_share and lw_half_row;
 * the loop inlines half_row, as a call through the PLT cost several %. */
static inline long half_row(long n) { return (n + 3) & ~3L; }
long lw_half_row(long n) { return half_row(n); }
const long lw_share = SHARE;

/* Nodes [lo, hi) of member i's step from state src into the other, the
 * step recorded at `step`: its time step is io's DT and its boundary value
 * b_t its record's.  Computes the predictor on the cells that these
 * nodes' corrector reads, the corrector, the boundary closures at the
 * ends of the grid in [lo, hi), and u at t + dt and the nodes' terms of
 * the integrals.
 *
 * half holds three rows of cells, u, v and w, and then the terms: those
 * of E1 of node j at j of row u, of H1 at j of row v, where the step no
 * longer reads.  A part with lo > 0 computes the cell lo - 1 itself,
 * which the part before computes too, and keeps cell c at c + 1 of its
 * row: so each part keeps its cells and its nodes' terms at [lo, hi) of
 * rows u and v, and the two parts write no value in common, nor one the
 * other reads. */
static void lw_part(const lw_batch *batch, long i, long src, long step, long lo, long hi)
{
    const long B = batch->members, n = batch->n;
    const long field = B * n, state = 3 * field, stride = batch->runs * batch->capacity;
    const double dt = batch->io[DT * B + i];
    const double b_t = batch->records[(long)batch->io[SLOT * B + i] * batch->capacity + step
                                      + R_B_T * stride];
    const long shift = lo > 0;
    const long c0 = lo - shift, c1 = hi < n ? hi : n - 1;          /* cells [c0, c1) */
    const long j0 = lo > 1 ? lo : 1, j1 = hi < n - 1 ? hi : n - 1;  /* interior nodes [j0, j1) */
    const long row = half_row(n);
    double *uh = batch->half + shift, *vh = uh + row, *wh = vh + row;
    double *e1_terms = batch->half, *h1_terms = e1_terms + row;
    const double *coef = batch->coefficients + i;
    const double a = coef[0], a2 = coef[B], k = coef[2 * B];
    const double theta = coef[3 * B], theta_1_5 = coef[4 * B];
    const double half_dt = dt / 2.0;
    const double *ubar = batch->ubar + i * n, *ubar_x = batch->ubar_x + i * n;
    const double *u = batch->states + src * state + i * n, *v = u + field, *w = v + field;
    double *un = batch->states + (1 - src) * state + i * n, *vn = un + field, *wn = vn + field;

    /* predictor: provisional values at (x_{j+1/2}, t + dt/2) */
    const long mid = i * (n - 1) + c0;
    predictor(c1 - c0, u + c0, v + c0, w + c0, batch->ubar_m + mid, batch->ubarx_m + mid,
              batch->d_bar_m + mid, batch->f_bar_m + mid, a2, theta, theta_1_5,
              dt / (2.0 * batch->dx), half_dt, uh + c0, vh + c0, wh + c0);

    /* corrector at interior nodes, coefficients at the half-time level */
    const long inner = i * (n - 2) + j0 - 1;
    corrector(j1 - j0, uh + j0 - 1, vh + j0 - 1, wh + j0 - 1, ubar + j0, ubar_x + j0,
              batch->d_bar_i + inner, batch->f_bar_i + inner, a2, theta, theta_1_5,
              dt / batch->dx, dt, v + j0, w + j0, vn + j0, wn + j0);

    double c_out, r;
    if (lo == 0) {
        /* left boundary: feedback w = k v plus extrapolated outgoing characteristic */
        c_out = a + (ubar[0] + u[0]);       /* - d / lambda_-, frozen at the boundary speed */
        r = 2.0 * (vn[1] + c_out * wn[1]) - (vn[2] + c_out * wn[2]);
        vn[0] = r / (1.0 + k * c_out);
        wn[0] = k * vn[0];
    }
    if (hi == n) {
        /* right boundary: Dirichlet trace drives v = b_t plus outgoing characteristic */
        c_out = a - (ubar[n - 1] + u[n - 1]);      /* d / lambda_+, frozen at the boundary speed */
        r = 2.0 * (vn[n - 2] - c_out * wn[n - 2]) - (vn[n - 3] - c_out * wn[n - 3]);
        vn[n - 1] = b_t;
        wn[n - 1] = (b_t - r) / c_out;
    }

    finish(hi - lo, u + lo, v + lo, vn + lo, wn + lo, ubar + lo, batch->two_decay + lo,
           batch->weights + lo, k, a * a, half_dt, un + lo, e1_terms + lo, h1_terms + lo);
}

/* max|u|, max|u_x|, max|u_t| and max|ubar + u| over nodes [lo, hi) of member
 * i's new state, the one that the step from state src wrote, into top,
 * where no value is NaN. */
static void part_maxima(const lw_batch *batch, long i, long src, long lo, long hi, double *top)
{
    const long n = batch->n, field = batch->members * n;
    const double *un = batch->states + (1 - src) * 3 * field + i * n + lo;
    maxima(hi - lo, un, un + 2 * field, un + field, batch->ubar + i * n + lo, top);
}

/* Adds the E1 and H1 terms of nodes [lo, hi), node after node, to sums[0]
 * and sums[1]: the sums of a step start from -0.0, so that an all -0.0
 * sum is np.cumsum's too. */
static void add_terms(const lw_batch *batch, long lo, long hi, double *sums)
{
    const double *e1_terms = batch->half, *h1_terms = e1_terms + half_row(batch->n);
    double e1 = sums[0], h1 = sums[1];
    for (long j = lo; j < hi; j++) {
        e1 += e1_terms[j];
        h1 += h1_terms[j];
    }
    sums[0] = e1;
    sums[1] = h1;
}

/* Writes member i's records of the step at `step` from what its parts left
 * in x, and its max|ubar + u| to io's TOP.  Each term of h1 is a sum of
 * squares times a positive weight: never NaN, and never inf - inf in the
 * sum, unless some u, v or w is NaN.  So h1 is NaN exactly when the new
 * state holds a NaN (ubar is finite), and only then do the maxima depend
 * on the nodes' order: then they are taken again, in node order. */
static void record(const lw_batch *batch, long i, long src, long step, double *x)
{
    const long B = batch->members, n = batch->n, stride = batch->runs * batch->capacity;
    const long field = B * n, dst = (1 - src) * 3 * field + i * n;
    double *rec = batch->records + (long)batch->io[SLOT * B + i] * batch->capacity + step;
    double *top = x + TOP_0;
    if (!(x[H1_SUM] == x[H1_SUM]))
        nan_maxima(n, batch->states + dst, batch->states + dst + 2 * field,
                   batch->states + dst + field, batch->ubar + i * n, top);
    rec[R_MAX_U * stride] = top[0];
    rec[R_MAX_UX * stride] = top[1];
    rec[R_MAX_UT * stride] = top[2];
    rec[R_E1 * stride] = x[E1_SUM];
    rec[R_H1 * stride] = x[H1_SUM];
    batch->io[TOP * B + i] = top[3];
}

/* What the two threads of split steps share.  Each counter only grows,
 * and one thread writes it: the caller counts the steps it started in
 * `go`, and the members whose nodes [0, m) it summed in `partials`; the
 * helper counts the members whose steps it finished in `done`, on a cache
 * line of its own.  A value written before a counter is stored is seen by
 * the thread that has loaded that count. */
typedef struct {
    const lw_batch *batch;
    long src, step;         /* the state the step reads, and its record */
    int quit;               /* set before the last `go`: the helper returns */
#ifdef __linux__
    int placed;             /* the helper was started on the others of `cpus` */
    cpu_set_t cpus;         /* the CPUs the caller may run on */
#endif
    long go, partials;
    char line[64];
    long done;
} lw_pair;

/* Pauses that a wait spins for before it yields the CPU at each test. */
enum { SPINS = 1024 };

static void publish(long *counter, long count)
{
    __atomic_store_n(counter, count, __ATOMIC_RELEASE);
}

static void wait_for(long *counter, long count)
{
    for (long spin = 0; __atomic_load_n(counter, __ATOMIC_ACQUIRE) < count; spin++) {
        if (spin >= SPINS)
            sched_yield();
#if defined(__x86_64__) || defined(__i386__)
        else
            __builtin_ia32_pause();
#endif
    }
}

/* The helper thread: nodes [m, n) of each member of each step the caller
 * starts, their sums continued from the caller's sums of [0, m), so that
 * each sum keeps node order. */
static void *helper(void *arg)
{
    lw_pair *pair = arg;
    const lw_batch *batch = pair->batch;
    const long B = batch->members, n = batch->n, m = batch->split;
#ifdef __linux__
    if (pair->placed)
        pthread_setaffinity_np(pthread_self(), sizeof pair->cpus, &pair->cpus);
#endif
    for (long started = 1, done = 0;; started++) {
        wait_for(&pair->go, started);
        if (pair->quit)
            return NULL;
        for (long i = 0; i < B; i++) {
            double *x = batch->share + SHARE * i;
            lw_part(batch, i, pair->src, pair->step, m, n);
            part_maxima(batch, i, pair->src, m, n, x + TOP_1);
            wait_for(&pair->partials, ++done);
            add_terms(batch, m, n, x);
            publish(&pair->done, done);
        }
    }
}

/* Starts the helper thread.  On Linux, where this thread may run on more
 * than one CPU, on another CPU than this thread's: a new thread starts on
 * its creator's CPU, and the scheduler took up to a second to move it
 * while both threads spun there.  Once running, the helper takes this
 * thread's CPUs, so that the scheduler may move it as any other thread. */
static int start_helper(pthread_t *thread, lw_pair *pair)
{
#ifdef __linux__
    pthread_attr_t attr;
    if (pthread_attr_init(&attr) != 0)
        return 0;
    const int here = sched_getcpu();
    if (here >= 0 && sched_getaffinity(0, sizeof pair->cpus, &pair->cpus) == 0
        && CPU_COUNT(&pair->cpus) > 1 && CPU_ISSET(here, &pair->cpus)) {
        cpu_set_t other = pair->cpus;
        CPU_CLR(here, &other);
        pair->placed = pthread_attr_setaffinity_np(&attr, sizeof other, &other) == 0;
    }
    const int started = pthread_create(thread, &attr, helper, pair) == 0;
    pthread_attr_destroy(&attr);
    return started;
#else
    return pthread_create(thread, NULL, helper, pair) == 0;
#endif
}

/* The steps of lw_advance: this thread takes nodes [0, m) of each member's
 * step, and with `pair` the helper takes [m, n). */
static long advance(const lw_batch *batch, long src, long index, lw_pair *pair)
{
    const long B = batch->members, n = batch->n, capacity = batch->capacity;
    const long stride = batch->runs * capacity, m = pair ? batch->split : n;
    double *io = batch->io;
    double *t = io + T * B, *dt = io + DT * B, *speed = io + SPEED * B, *top = io + TOP * B;
    double *status = io + STATUS * B, *value = io + VALUE * B, *at = io + AT * B;
    const double *t_snap = io + T_SNAP * B, *t_end = io + T_END * B;
    const double *cfl_dx = io + CFL_DX * B, *guard = io + GUARD * B, *slot = io + SLOT * B;
    const double *a = batch->coefficients;
    long partials = 0;

    for (long i = 0; i < B; i++)
        status[i] = RUNNING;
    for (long step = index; step < capacity; step++, src = 1 - src) {
        int failed = 0, stop = 0;

        /* the time step, clipped to land on the next snapshot time; every
         * member passes the CFL test before any member steps */
        for (long i = 0; i < B; i++) {
            const double x = cfl_dx[i] / speed[i], y = t_snap[i] - t[i];
            dt[i] = y < x ? y : x;                  /* Python's min(x, y) */
            const double cfl = dt[i] * speed[i] / batch->dx;
            if (cfl > 1.0 + 1e-12) {
                status[i] = CFL_FAILED;
                value[i] = cfl;
                at[i] = t[i];
                failed = 1;
            }
        }
        if (failed)
            return step - index;

        for (long i = 0; i < B; i++) {
            double *rec = batch->records + (long)slot[i] * capacity + step, b[3];
            rec[R_T * stride] = t[i] + dt[i];
            disturbance(io + DISTURBANCE * B + i, B, rec[R_T * stride], b);
            rec[R_B * stride] = b[0];
            rec[R_B_T * stride] = b[1];
        }
        if (pair) {
            pair->src = src;
            pair->step = step;
            publish(&pair->go, pair->go + 1);
        }
        for (long i = 0; i < B; i++) {
            double *x = batch->share + SHARE * i;
            x[E1_SUM] = x[H1_SUM] = -0.0;
            lw_part(batch, i, src, step, 0, m);
            add_terms(batch, 0, m, x);
            if (pair)
                publish(&pair->partials, ++partials);
            part_maxima(batch, i, src, 0, m, x + TOP_0);
        }
        if (pair)
            wait_for(&pair->done, partials);
        for (long i = 0; i < B; i++) {
            double *x = batch->share + SHARE * i;
            if (pair)   /* fold in the helper's maxima of this step: exact in any order */
                for (long r = 0; r < 4; r++)
                    x[TOP_0 + r] = x[TOP_1 + r] > x[TOP_0 + r] ? x[TOP_1 + r] : x[TOP_0 + r];
            record(batch, i, src, step, x);
            if (!(x[TOP_0] <= guard[i])) {      /* written so that NaN fails too */
                status[i] = GUARD_FAILED;
                value[i] = x[TOP_0];            /* max|u|, as recorded */
                at[i] = t[i] + dt[i];
                failed = 1;
            }
        }
        if (failed)
            return step - index;

        for (long i = 0; i < B; i++) {
            t[i] += dt[i];
            speed[i] = top[i] + a[i];
            if (t[i] >= t_snap[i] - 1e-12 || !(t[i] < t_end[i] - 1e-12))
                stop = 1;
        }
        if (stop)
            return step + 1 - index;
    }
    return capacity - index;        /* the records are full */
}

/* Steps the batch from state src, recording the first step at `index`;
 * returns the steps it took, 0 when the first fails.  With `split` < n, a
 * helper thread takes nodes [split, n) of each step, or, where it cannot
 * be started, this thread takes them. */
long lw_advance(const lw_batch *batch, long src, long index)
{
    lw_pair pair = {.batch = batch};
    pthread_t thread;
    const int split = batch->split < batch->n && start_helper(&thread, &pair);
    const long taken = advance(batch, src, index, split ? &pair : NULL);
    if (split) {
        pair.quit = 1;
        publish(&pair.go, pair.go + 1);
        pthread_join(thread, NULL);
    }
    return taken;
}
